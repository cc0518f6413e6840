package serve

import (
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightLeaderPanicReleasesKey: a leader whose computation panics
// gets the panic back as an error carrying its stack, the call record
// that followers wait on is completed with that same error, and the key
// is free again afterwards (the next call computes instead of blocking
// on a channel nobody will close).
func TestFlightLeaderPanicReleasesKey(t *testing.T) {
	g := newFlightGroup()
	entered := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		body   []byte
		leader bool
		err    error
	}
	leaderDone := make(chan result, 1)
	go func() {
		body, leader, err := g.do("k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("compute exploded")
		})
		leaderDone <- result{body, leader, err}
	}()
	<-entered

	// The record a follower joining now would wait on.
	g.mu.Lock()
	c := g.calls["k"]
	g.mu.Unlock()
	if c == nil {
		t.Fatal("leader's call is not registered under its key")
	}
	select {
	case <-c.done:
		t.Fatal("call completed before the leader finished")
	default:
	}
	close(release)

	var r result
	select {
	case r = <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leader wedged after its computation panicked")
	}
	var pe *panicError
	if !r.leader || r.body != nil || !errors.As(r.err, &pe) ||
		!strings.Contains(r.err.Error(), "compute exploded") || len(pe.Stack) == 0 {
		t.Fatalf("leader got body %q leader %v err %v, want the panic with its stack", r.body, r.leader, r.err)
	}
	select {
	case <-c.done:
	default:
		t.Fatal("followers' done channel left open after the panic")
	}
	if c.err != r.err || c.body != nil {
		t.Errorf("followers would see body %q err %v, want the leader's panic", c.body, c.err)
	}

	body, leader, err := g.do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || !leader || string(body) != "ok" {
		t.Fatalf("next call after the panic: body %q leader %v err %v", body, leader, err)
	}
}

// TestPanickingComputeReturns500: an endpoint whose computation panics
// answers 500, the next request for the same key computes and succeeds,
// and the drain is not held up by the failed request.
func TestPanickingComputeReturns500(t *testing.T) {
	base, srv, _ := startServer(t, Config{})
	var calls atomic.Int32
	srv.computeHook = func(string) {
		if calls.Add(1) == 1 {
			panic("compute exploded")
		}
	}
	// A novel key (unused seed) so the request misses and computes.
	url := base + "/v1/control?days=1&seed=91"
	st, body, _ := get(t, url)
	if st != http.StatusInternalServerError || !strings.Contains(string(body), "compute exploded") {
		t.Fatalf("panicking compute: %d %s, want 500 naming the panic", st, body)
	}
	st, body, _ = get(t, url)
	if st != http.StatusOK {
		t.Fatalf("request after the panic: %d %s, want 200", st, body)
	}
	srv.BeginDrain()
	if err := srv.Wait(10 * time.Second); err != nil {
		t.Errorf("Wait after a panicked request: %v", err)
	}
}
