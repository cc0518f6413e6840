package building

import (
	"math"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

// validInputs is the input contract Step enforces, stated on its own:
// a positive dt, a non-negative occupant count, finite non-negative
// flows and finite ambient and supply temperatures.
func validInputs(dt time.Duration, in Inputs) bool {
	finite := func(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }
	ok := dt > 0 && in.Occupants >= 0 && finite(in.Ambient) && finite(in.HVAC.SupplyTemp)
	for _, f := range in.HVAC.Flows {
		ok = ok && f >= 0 && finite(f)
	}
	return ok
}

// FuzzKernelRef checks the compiled kernel against the per-node
// references on a RandomSpec draw of any archetype. Both start from a
// fuzzed clock (so the residence sees night or solar day, and the
// auditorium a drifted mixing), then take three Steps: plant as
// fuzzed, plant off, plant as fuzzed. Step must reject exactly the
// inputs outside the contract, and every accepted Step must leave the
// two kernels equal to the last bit.
func FuzzKernelRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, arch uint8, seed int64, index int, occupants int,
		f0, f1, f2, f3, ambient, supply float64, dtSec uint32, startHour uint8) {
		names := Archetypes()
		sp, err := RandomSpec(names[int(arch)%len(names)], seed, index)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.New()
		if err != nil {
			t.Fatal(err)
		}
		want := newRef(sp)
		start := float64(startHour%24) * 3600
		got.elapsed, want.base().elapsed = start, start

		dt := time.Duration(dtSec%3601) * time.Second
		on := Inputs{
			HVAC:      hvac.State{Flows: []float64{f0, f1, f2, f3}, SupplyTemp: supply},
			Occupants: occupants,
			LightsOn:  occupants > 0,
			Ambient:   ambient,
		}
		off := on
		off.HVAC.Flows = make([]float64, 4)
		for k, in := range []Inputs{on, off, on} {
			err := got.Step(dt, in)
			if valid := validInputs(dt, in); (err == nil) != valid {
				t.Fatalf("%s step %d: Step error %v for inputs with valid=%v: %+v", sp.Archetype, k, err, valid, in)
			}
			if err != nil {
				return
			}
			refStep(want, dt, in)
			if msg := sameBits(got, want); msg != "" {
				t.Fatalf("%s step %d: %s differs from the reference (inputs %+v)", sp.Archetype, k, msg, in)
			}
		}
	})
}
