package building

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

// refStep is the auditorium Step as it was before the conductance
// classes: every substep recomputes each cell's g, exp(-sub*g/cap) and
// oscillation sine from scratch through relax. It is kept only as the
// bit-identity reference for the class-compiled kernel.
func refStep(s *Simulator, dt time.Duration, in Inputs) {
	total := dt.Seconds()
	steps := int(math.Ceil(total / s.cfg.MaxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	for k := 0; k < steps; k++ {
		refSubstep(s, sub, in)
	}
}

func refOutletFlows(s *Simulator, flows []float64) []float64 {
	out := make([]float64, s.cfg.NumOutlets)
	if len(flows) == 0 {
		return out
	}
	for i, f := range flows {
		o := i * s.cfg.NumOutlets / len(flows)
		if o >= s.cfg.NumOutlets {
			o = s.cfg.NumOutlets - 1
		}
		out[o] += f
	}
	return out
}

func refSubstep(s *Simulator, sub float64, in Inputs) {
	cfg := &s.cfg
	drift := 1.0
	if cfg.MixDriftPerDay != 0 {
		drift = math.Exp(s.elapsed / 86400 * math.Log1p(cfg.MixDriftPerDay))
	}
	mix := cfg.MixingUA * drift
	boost := cfg.SeatMixBoost
	stage := cfg.StageMixFactor
	groundTemp := cfg.GroundTemp + cfg.GroundTempDriftPerDay*s.elapsed/86400

	flows := refOutletFlows(s, in.HVAC.Flows)
	var totalFlow float64
	for _, f := range flows {
		totalFlow += f
	}
	for o := range s.outlet {
		alpha := 1 - math.Exp(-sub*flows[o]/cfg.PlenumMass)
		s.outlet[o] += alpha * (in.HVAC.SupplyTemp - s.outlet[o])
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(len(s.seatCells))
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(s.temps))
	}
	var wobAmp, wobPhase float64
	if cfg.TurbulencePower > 0 {
		period := cfg.TurbulencePeriod
		if period <= 0 {
			period = 37 * time.Minute
		}
		frac := 0.12 + 0.88*totalFlow/1.2
		if frac > 1 {
			frac = 1
		}
		wobAmp = frac * cfg.TurbulencePower / float64(len(s.temps))
		wobPhase = 2 * math.Pi * s.elapsed / period.Seconds()
	}

	frontPerOutlet := make([]int, cfg.NumOutlets)
	for iy := 0; iy < s.ny; iy++ {
		frontPerOutlet[s.outletOf[iy]]++
	}

	old := s.temps
	next := s.scratch
	nx, ny := s.nx, s.ny
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			ti := old[i]
			seatI := s.seatMask[i]
			var g, gt float64
			edge := func(j int) {
				m := mix
				if seatI == s.seatMask[j] {
					if seatI {
						m *= boost
					}
				} else {
					m *= stage
				}
				g += m
				gt += m * old[j]
			}
			if ix > 0 {
				edge(i - ny)
			}
			if ix < nx-1 {
				edge(i + ny)
			}
			if iy > 0 {
				edge(i - 1)
			}
			if iy < ny-1 {
				edge(i + 1)
			}
			if e := s.envUA[i]; e > 0 {
				g += e
				gt += e * in.Ambient
			}
			g += s.groundUA
			gt += s.groundUA * groundTemp

			load := lightHeat
			if seatI {
				load += occHeat
			}
			if wobAmp > 0 {
				phase := wobPhase
				if 5*ix >= 2*nx {
					phase += math.Pi
				}
				load += wobAmp * math.Sin(phase)
			}
			if ix == 0 {
				o := s.outletOf[iy]
				if flows[o] > 0 {
					gs := flows[o] * airCp / float64(frontPerOutlet[o])
					g += gs
					gt += gs * s.outlet[o]
				}
			}
			next[i] = relax(ti, g, gt, load, sub, s.cellCap)
		}
	}
	s.temps, s.scratch = next, old

	if totalFlow > 0 || in.Occupants > 0 {
		dw := (float64(in.Occupants)*cfg.OccupantMoisture +
			totalFlow*(cfg.SupplyHumidity-s.humidity)) / s.airMass
		s.humidity += sub * dw
		if s.humidity < 0 {
			s.humidity = 0
		}
	}
	q := totalFlow / airDensity
	dc := (float64(in.Occupants)*cfg.OccupantCO2*1e6 + q*(cfg.AmbientCO2-s.co2)) / s.volume
	s.co2 += sub * dc
	if s.co2 < cfg.AmbientCO2 {
		s.co2 = cfg.AmbientCO2
	}
	s.elapsed += sub
}

// randomAuditorium draws a validated auditorium config. Grid shape,
// seating start, outlet count and every conductance vary (envelope and
// ground may be zero); turbulence switches the oscillation on or off.
func randomAuditorium(t *testing.T, rng *rand.Rand, nx, ny int, turbulence bool) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = nx, ny
	cfg.ThermalMassFactor = 1 + 4*rng.Float64()
	cfg.MixingUA = 200 + 2000*rng.Float64()
	cfg.MixDriftPerDay = []float64{0, 0.004, -0.01}[rng.Intn(3)]
	cfg.EnvelopeUA = 20 + 100*rng.Float64()
	cfg.GroundUA = 50 + 100*rng.Float64()
	switch rng.Intn(4) {
	case 0:
		cfg.EnvelopeUA = 0
	case 1:
		cfg.GroundUA = 0
	}
	cfg.GroundTempDriftPerDay = 0.03 * rng.Float64()
	cfg.SeatStartX = RoomDepth * 0.6 * rng.Float64()
	cfg.SeatMixBoost = 1 + 3*rng.Float64()
	cfg.StageMixFactor = 0.05 + 0.95*rng.Float64()
	cfg.NumOutlets = 1 + rng.Intn(ny)
	cfg.PlenumMass = 50 + 200*rng.Float64()
	cfg.LightingPower = 2000 * rng.Float64()
	cfg.TurbulencePower = 0
	if turbulence {
		cfg.TurbulencePower = 1000 + 8000*rng.Float64()
		cfg.TurbulencePeriod = time.Duration(10+rng.Intn(50)) * time.Minute
	}
	cfg.InitialTemp = 17 + 6*rng.Float64()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("random config invalid: %v", err)
	}
	return cfg
}

// TestKernelMatchesReference drives the class-compiled kernel and the
// per-cell reference side by side over two simulated days and requires
// every cell, plenum, humidity and CO2 value to agree bit for bit after
// every Step, at 1 and 4 par workers. The flows are zero overnight and
// non-zero by day; each grid runs once with turbulence off and once
// with it on. The 64x40 grid clears simParCells so the
// row-band par path runs.
func TestKernelMatchesReference(t *testing.T) {
	if 64*40 < simParCells {
		t.Fatalf("64x40 grid is below the parallel gate %d", simParCells)
	}
	grids := [][2]int{{10, 6}, {2, 2}, {3, 7}, {7, 3}, {12, 9}, {64, 40}}
	rng := rand.New(rand.NewSource(7))
	for gi, g := range grids {
		for _, turbulence := range []bool{false, true} {
			cfg := randomAuditorium(t, rng, g[0], g[1], turbulence)
			dt := 15 * time.Minute
			if g[0]*g[1] >= simParCells {
				// Coarser substeps keep the large grid quick.
				cfg.MaxStep = 2 * time.Minute
				dt = 20 * time.Minute
			}
			for _, workers := range []int{1, 4} {
				withWorkers(workers, func() {
					compareKernels(t, cfg, dt, int64(gi))
				})
			}
		}
	}
}

func compareKernels(t *testing.T, cfg Config, dt time.Duration, seed int64) {
	t.Helper()
	got, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	steps := int(48 * time.Hour / dt)
	for k := 0; k < steps; k++ {
		hour := (k * int(dt/time.Minute) / 60) % 24
		in := Inputs{
			HVAC:      hvac.State{Flows: make([]float64, 4), SupplyTemp: 12 + 4*rng.Float64()},
			Occupants: 0,
			LightsOn:  hour >= 8 && hour < 18,
			Ambient:   5 + 20*rng.Float64(),
		}
		if hour >= 7 && hour < 19 {
			for v := range in.HVAC.Flows {
				in.HVAC.Flows[v] = 0.5 * rng.Float64()
			}
			in.Occupants = rng.Intn(90)
		}
		if err := got.Step(dt, in); err != nil {
			t.Fatal(err)
		}
		refStep(want, dt, in)
		for i := range want.temps {
			if math.Float64bits(got.temps[i]) != math.Float64bits(want.temps[i]) {
				t.Fatalf("%dx%d turb=%v step %d cell %d: got %v, reference %v",
					cfg.NX, cfg.NY, cfg.TurbulencePower > 0, k, i, got.temps[i], want.temps[i])
			}
		}
		for o := range want.outlet {
			if math.Float64bits(got.outlet[o]) != math.Float64bits(want.outlet[o]) {
				t.Fatalf("step %d outlet %d: got %v, reference %v", k, o, got.outlet[o], want.outlet[o])
			}
		}
		for _, p := range [][2]float64{{got.humidity, want.humidity}, {got.co2, want.co2}, {got.elapsed, want.elapsed}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("step %d well-mixed state: got %v, reference %v", k, p[0], p[1])
			}
		}
	}
}

// TestKernelClassesShareCoefficients pins the premise of the class
// compilation on the paper's room: far fewer classes than cells, and
// every cell of a class sees the same neighbour layout.
func TestKernelClassesShareCoefficients(t *testing.T) {
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.classes); n == 0 || n*2 > s.NumCells() {
		t.Fatalf("%d classes for %d cells; want at most half", n, s.NumCells())
	}
	for i, c := range s.classOf {
		cl := s.classes[c]
		if cl.seat != s.seatMask[i] {
			t.Fatalf("cell %d seat %v in class with seat %v", i, s.seatMask[i], cl.seat)
		}
		for e := 0; e < cl.nEdge; e++ {
			if j := i + cl.off[e]; j < 0 || j >= s.NumCells() {
				t.Fatalf("cell %d edge %d points outside the grid", i, e)
			}
		}
	}
}
