package occupancy

import (
	"encoding/binary"
	"testing"
	"time"
)

// linearCountAt is CountAt as a scan over every event, the reference
// the indexed lookup must reproduce exactly (same events, same order,
// so the same float sum).
func linearCountAt(events []Event, t time.Time) int {
	var total float64
	for _, e := range events {
		switch {
		case t.Before(e.Start.Add(-rampIn)) || t.After(e.End.Add(rampOut)):
			continue
		case t.Before(e.Start):
			frac := 1 - e.Start.Sub(t).Seconds()/rampIn.Seconds()
			total += frac * float64(e.Attendees)
		case t.After(e.End):
			frac := 1 - t.Sub(e.End).Seconds()/rampOut.Seconds()
			total += frac * float64(e.Attendees)
		default:
			total += float64(e.Attendees)
		}
	}
	return int(total + 0.5)
}

// probeTimes returns t plus every ramp and event boundary of the
// schedule, each also one nanosecond either side.
func probeTimes(events []Event, t time.Time) []time.Time {
	out := []time.Time{t}
	for _, e := range events {
		for _, b := range []time.Time{e.Start.Add(-rampIn), e.Start, e.End, e.End.Add(rampOut)} {
			out = append(out, b.Add(-1), b, b.Add(1))
		}
	}
	return out
}

// decodeEvents turns fuzz bytes into events, 6 bytes each: start offset
// in minutes and duration in minutes (both int16, so events can overlap,
// touch, or end before they start), attendees, and a seconds offset.
func decodeEvents(data []byte) []Event {
	var events []Event
	for ; len(data) >= 6; data = data[6:] {
		startMin := int16(binary.LittleEndian.Uint16(data[0:]))
		durMin := int16(binary.LittleEndian.Uint16(data[2:]))
		st := start.Add(time.Duration(startMin)*time.Minute + time.Duration(data[5]%60)*time.Second)
		events = append(events, Event{
			Start:     st,
			End:       st.Add(time.Duration(durMin) * time.Minute),
			Attendees: int(data[4]),
			Kind:      "fuzz",
		})
	}
	return events
}

// FuzzCountAt: the indexed CountAt equals the linear scan for arbitrary
// events and probe times, including every window boundary.
func FuzzCountAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, probe int64) {
		events := decodeEvents(data)
		s := NewSchedule(events)
		at := start.Add(time.Duration(probe % int64(60*24*time.Hour)))
		for _, p := range probeTimes(s.Events(), at) {
			if got, want := s.CountAt(p), linearCountAt(s.Events(), p); got != want {
				t.Fatalf("CountAt(%v) = %d, linear scan %d (events %+v)", p, got, want, s.Events())
			}
		}
	})
}

// TestCountAtMatchesLinearScan checks the index on the generated
// 98-day schedule every 5 minutes and at every window boundary.
func TestCountAtMatchesLinearScan(t *testing.T) {
	s := mustSchedule(t)
	events := s.Events()
	probes := probeTimes(events, start)
	for at := start.Add(-time.Hour); at.Before(end.Add(time.Hour)); at = at.Add(5 * time.Minute) {
		probes = append(probes, at)
	}
	for _, p := range probes {
		if got, want := s.CountAt(p), linearCountAt(events, p); got != want {
			t.Fatalf("CountAt(%v) = %d, linear scan %d", p, got, want)
		}
	}
}
