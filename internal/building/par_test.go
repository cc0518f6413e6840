package building

import (
	"fmt"
	"testing"
	"time"

	"auditherm/internal/hvac"
	"auditherm/internal/par"
)

// withWorkers runs fn under a temporary process-wide default worker
// count.
func withWorkers(w int, fn func()) {
	prev := par.SetDefaultWorkers(w)
	defer par.SetDefaultWorkers(prev)
	fn()
}

// bigGridConfig is a grid large enough (80x60 = 4800 cells) to clear
// the simParCells parallelism gate.
func bigGridConfig() Config {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 80, 60
	return cfg
}

// runSim advances a fresh simulator through a deterministic day-like
// input schedule and returns the final cell temperature field.
func runSim(t *testing.T, cfg Config) []float64 {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		in := Inputs{
			HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0.25, 0.3}, SupplyTemp: 14},
			Occupants: 10 * (k % 9),
			LightsOn:  k%3 != 0,
			Ambient:   22 + 0.1*float64(k),
		}
		if err := s.Step(time.Minute, in); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, len(s.temps))
	copy(out, s.temps)
	return out
}

// TestSimulatorParallelDeterminism: the row-parallel substep must
// reproduce the serial trajectory bit-for-bit at workers in {1, 3, 8}
// (ISSUE determinism suite) on a grid above the parallelism gate.
func TestSimulatorParallelDeterminism(t *testing.T) {
	cfg := bigGridConfig()
	if cfg.NX*cfg.NY < simParCells {
		t.Fatalf("fixture grid %dx%d below parallel gate %d", cfg.NX, cfg.NY, simParCells)
	}
	var ref []float64
	withWorkers(1, func() { ref = runSim(t, cfg) })
	for _, w := range []int{1, 3, 8} {
		withWorkers(w, func() {
			got := runSim(t, cfg)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d: cell %d = %x, serial %x", w, i, got[i], ref[i])
				}
			}
		})
	}
}

// BenchmarkSimulatorSubstep measures one 10 s Step (one substep) of
// each default archetype, then of the parallel-scale big grid at
// several worker counts.
func BenchmarkSimulatorSubstep(b *testing.B) {
	in := Inputs{
		HVAC:      hvac.State{Flows: []float64{0.3, 0.2, 0.25, 0.3}, SupplyTemp: 14},
		Occupants: 60,
		LightsOn:  true,
		Ambient:   24,
	}
	run := func(b *testing.B, s *Simulator) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(10*time.Second, in); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, name := range Archetypes() {
		b.Run(name, func(b *testing.B) {
			sp, err := DefaultSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			s, err := sp.New()
			if err != nil {
				b.Fatal(err)
			}
			run(b, s)
		})
	}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("big/workers=%d", w), func(b *testing.B) {
			prev := par.SetDefaultWorkers(w)
			defer par.SetDefaultWorkers(prev)
			s, err := NewSimulator(bigGridConfig())
			if err != nil {
				b.Fatal(err)
			}
			run(b, s)
		})
	}
}
