package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100); NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// immune to p/100 not being exact in binary.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(rank, 1)
}

// tailPercentiles are the percentiles a tail latency is reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples above it under nearest rank, or ok =
// false when even the median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tail returns xs at the highest percentile that tailPercentile allows
// for its size, and that percentile; ok is false when xs is too small.
func tail(xs []float64) (v, pct float64, ok bool) {
	if pct, ok = tailPercentile(len(xs)); ok {
		v = percentile(xs, pct)
	}
	return v, pct, ok
}

// arrival is one request of an open-loop schedule: when it is due,
// relative to the start of the phase, and what to send.
type arrival struct {
	Due   time.Duration
	Class string
	Key   string
}

// outcome is what happened to one arrival. Latency runs from the due
// time to completion, so a request that had to wait behind a stall is
// charged for the wait. Lag is how late the generator sent it.
type outcome struct {
	Arrival arrival
	Latency time.Duration
	Lag     time.Duration
	Err     error
}

// refusedError marks an arrival the generator could not send because
// maxOutstanding requests were already waiting.
type refusedError struct{}

func (refusedError) Error() string { return "refused: too many requests outstanding" }

// openLoop sends every arrival at its due time, whether or not earlier
// requests have finished, with at most maxOutstanding in flight;
// arrivals beyond that are refused. It waits for every request it
// started and returns the outcomes in schedule order.
func openLoop(ctx context.Context, arrivals []arrival, maxOutstanding int, send func(ctx context.Context, a arrival) error) []outcome {
	out := make([]outcome, len(arrivals))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		sent := time.Now()
		out[i] = outcome{Arrival: a, Lag: sent.Sub(due)}
		if ctx.Err() != nil {
			out[i].Err = ctx.Err()
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			out[i].Err = refusedError{}
			continue
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := send(ctx, a)
			out[i].Latency = time.Since(due)
			out[i].Err = err
		}(i, a, due)
	}
	wg.Wait()
	return out
}
