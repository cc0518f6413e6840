package sensornet

import (
	"encoding/binary"
	"testing"
	"time"
)

// linearInOutage is the scan over every outage that the merged-interval
// lookup replaced.
func linearInOutage(outages []Outage, t time.Time) bool {
	for _, o := range outages {
		if o.Contains(t) {
			return true
		}
	}
	return false
}

// decodeOutages turns fuzz bytes into outages, 4 bytes each: start
// offset and duration in minutes (both int16, so windows can overlap,
// touch, be empty or end before they start).
func decodeOutages(data []byte) []Outage {
	var out []Outage
	for ; len(data) >= 4; data = data[4:] {
		st := t0.Add(time.Duration(int16(binary.LittleEndian.Uint16(data[0:]))) * time.Minute)
		dur := time.Duration(int16(binary.LittleEndian.Uint16(data[2:]))) * time.Minute
		out = append(out, Outage{Start: st, End: st.Add(dur)})
	}
	return out
}

// FuzzInOutage: Store.InOutage and the per-node failure lookup equal
// the linear scan for overlapping, touching and empty outages, at the
// probe and at every window edge (and one nanosecond either side).
func FuzzInOutage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, probe int64) {
		outages := decodeOutages(data)
		store := NewStore(outages)
		net, err := NewNetwork([]*Node{{name: "a"}}, store)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetNodeFailures("a", outages); err != nil {
			t.Fatal(err)
		}
		probes := []time.Time{t0.Add(time.Duration(probe % int64(60*24*time.Hour)))}
		for _, o := range outages {
			for _, b := range []time.Time{o.Start, o.End} {
				probes = append(probes, b.Add(-1), b, b.Add(1))
			}
		}
		for _, p := range probes {
			want := linearInOutage(outages, p)
			if got := store.InOutage(p); got != want {
				t.Fatalf("InOutage(%v) = %v, linear scan %v (outages %+v)", p, got, want, outages)
			}
			if got := net.failures[0].contains(p); got != want {
				t.Fatalf("node failure lookup at %v = %v, linear scan %v", p, got, want)
			}
		}
	})
}
