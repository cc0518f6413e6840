package building

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

// The reference kernels below are the three archetypes' Steps as they
// were before the archetypes were compiled onto the one grid kernel:
// every substep recomputes each node's g, exp(-sub*g/cap), load and
// oscillation sine from scratch through relax. They are kept only as
// the bit-identity references for the compiled kernel.

// relax moves ti toward its frozen-neighborhood equilibrium
// (gt + load)/g with the exact exponential for time constant cap/g.
func relax(ti, g, gt, load, sub, cap float64) float64 {
	return relaxDecay(ti, g, gt, load, sub, cap, math.Exp(-sub*g/cap))
}

// refModel is one reference kernel.
type refModel interface {
	substep(sub float64, in Inputs)
	base() *refBase
}

// refBase is the state every reference shares: the node field, the
// well-mixed moisture and CO2 balance and the simulated clock.
type refBase struct {
	temps, scratch []float64
	outlet         []float64 // supply plenums (auditorium only)
	maxStep        time.Duration
	airMass        float64
	volume         float64
	humidity, co2  float64
	elapsed        float64

	occMoisture, supplyHumidity, occCO2, ambientCO2 float64
}

func newRefBase(n int, initial float64, maxStep time.Duration, volume,
	occMoisture, supplyHumidity, occCO2, ambientCO2 float64) refBase {
	if maxStep <= 0 {
		maxStep = 10 * time.Second
	}
	b := refBase{
		temps:          make([]float64, n),
		scratch:        make([]float64, n),
		maxStep:        maxStep,
		airMass:        volume * airDensity,
		volume:         volume,
		humidity:       supplyHumidity,
		co2:            ambientCO2,
		occMoisture:    occMoisture,
		supplyHumidity: supplyHumidity,
		occCO2:         occCO2,
		ambientCO2:     ambientCO2,
	}
	for i := range b.temps {
		b.temps[i] = initial
	}
	return b
}

func (b *refBase) base() *refBase { return b }

// air advances the well-mixed moisture and CO2 balance.
func (b *refBase) air(sub float64, occupants int, totalFlow float64) {
	if totalFlow > 0 || occupants > 0 {
		dw := (float64(occupants)*b.occMoisture +
			totalFlow*(b.supplyHumidity-b.humidity)) / b.airMass
		b.humidity += sub * dw
		if b.humidity < 0 {
			b.humidity = 0
		}
	}
	q := totalFlow / airDensity
	dc := (float64(occupants)*b.occCO2*1e6 + q*(b.ambientCO2-b.co2)) / b.volume
	b.co2 += sub * dc
	if b.co2 < b.ambientCO2 {
		b.co2 = b.ambientCO2
	}
}

// refStep splits dt into substeps no longer than the model's MaxStep.
func refStep(m refModel, dt time.Duration, in Inputs) {
	total := dt.Seconds()
	steps := int(math.Ceil(total / m.base().maxStep.Seconds()))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	for k := 0; k < steps; k++ {
		m.substep(sub, in)
	}
}

// newRef builds the reference kernel for a valid spec.
func newRef(sp Spec) refModel {
	switch sp.Archetype {
	case ArchetypeAuditorium:
		return newRefAuditorium(*sp.Auditorium)
	case ArchetypeOffice:
		return newRefOffice(*sp.Office)
	default:
		return newRefResidence(*sp.Residence)
	}
}

// refAuditorium is the per-cell zonal auditorium.
type refAuditorium struct {
	refBase
	cfg       Config
	nx, ny    int
	cellCap   float64
	envUA     []float64
	groundUA  float64
	seatMask  []bool
	seatCells int
	outletOf  []int
}

func newRefAuditorium(cfg Config) *refAuditorium {
	n := cfg.NX * cfg.NY
	r := &refAuditorium{
		refBase: newRefBase(n, cfg.InitialTemp, cfg.MaxStep, RoomDepth*RoomWidth*cfg.Height,
			cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2),
		cfg:      cfg,
		nx:       cfg.NX,
		ny:       cfg.NY,
		envUA:    make([]float64, n),
		seatMask: make([]bool, n),
		outletOf: make([]int, cfg.NY),
	}
	cellMass := r.airMass / float64(n) * cfg.ThermalMassFactor
	r.cellCap = cellMass * airCp
	r.groundUA = cfg.GroundUA / float64(n)
	perimeter := 0
	for ix := 0; ix < r.nx; ix++ {
		for iy := 0; iy < r.ny; iy++ {
			if ix == 0 || ix == r.nx-1 || iy == 0 || iy == r.ny-1 {
				perimeter++
			}
		}
	}
	for ix := 0; ix < r.nx; ix++ {
		for iy := 0; iy < r.ny; iy++ {
			if ix == 0 || ix == r.nx-1 || iy == 0 || iy == r.ny-1 {
				r.envUA[ix*r.ny+iy] = cfg.EnvelopeUA / float64(perimeter)
			}
		}
	}
	dx := RoomDepth / float64(r.nx)
	for ix := 0; ix < r.nx; ix++ {
		if (float64(ix)+0.5)*dx < cfg.SeatStartX {
			continue
		}
		for iy := 0; iy < r.ny; iy++ {
			r.seatCells++
			r.seatMask[ix*r.ny+iy] = true
		}
	}
	for iy := 0; iy < r.ny; iy++ {
		r.outletOf[iy] = iy * cfg.NumOutlets / r.ny
	}
	r.outlet = make([]float64, cfg.NumOutlets)
	for o := range r.outlet {
		r.outlet[o] = cfg.InitialTemp
	}
	return r
}

func (r *refAuditorium) substep(sub float64, in Inputs) {
	cfg := &r.cfg
	drift := 1.0
	if cfg.MixDriftPerDay != 0 {
		drift = math.Exp(r.elapsed / 86400 * math.Log1p(cfg.MixDriftPerDay))
	}
	mix := cfg.MixingUA * drift
	boost := cfg.SeatMixBoost
	stage := cfg.StageMixFactor
	groundTemp := cfg.GroundTemp + cfg.GroundTempDriftPerDay*r.elapsed/86400

	flows := make([]float64, cfg.NumOutlets)
	for i, f := range in.HVAC.Flows {
		o := i * cfg.NumOutlets / len(in.HVAC.Flows)
		if o >= cfg.NumOutlets {
			o = cfg.NumOutlets - 1
		}
		flows[o] += f
	}
	var totalFlow float64
	for _, f := range flows {
		totalFlow += f
	}
	for o := range r.outlet {
		alpha := 1 - math.Exp(-sub*flows[o]/cfg.PlenumMass)
		r.outlet[o] += alpha * (in.HVAC.SupplyTemp - r.outlet[o])
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(r.seatCells)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(r.temps))
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
		wobAmp = frac * cfg.TurbulencePower / float64(len(r.temps))
		wobPhase = 2 * math.Pi * r.elapsed / period.Seconds()
	}

	frontPerOutlet := make([]int, cfg.NumOutlets)
	for iy := 0; iy < r.ny; iy++ {
		frontPerOutlet[r.outletOf[iy]]++
	}

	old := r.temps
	next := r.scratch
	nx, ny := r.nx, r.ny
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := ix*ny + iy
			ti := old[i]
			seatI := r.seatMask[i]
			var g, gt float64
			edge := func(j int) {
				m := mix
				if seatI == r.seatMask[j] {
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
			if e := r.envUA[i]; e > 0 {
				g += e
				gt += e * in.Ambient
			}
			g += r.groundUA
			gt += r.groundUA * groundTemp

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
				o := r.outletOf[iy]
				if flows[o] > 0 {
					gs := flows[o] * airCp / float64(frontPerOutlet[o])
					g += gs
					gt += gs * r.outlet[o]
				}
			}
			next[i] = relax(ti, g, gt, load, sub, r.cellCap)
		}
	}
	r.temps, r.scratch = next, old
	r.air(sub, in.Occupants, totalFlow)
	r.elapsed += sub
}

// refOffice is the per-zone multi-zone office.
type refOffice struct {
	refBase
	cfg     OfficeConfig
	zx, zy  int
	edgeUA  []float64 // per-edge conductance, W/K (X-edges then Y-edges)
	envUA   []float64
	roofUA  float64
	zoneCap float64
}

func newRefOffice(cfg OfficeConfig) *refOffice {
	n := cfg.ZX * cfg.ZY
	o := &refOffice{
		refBase: newRefBase(n, cfg.InitialTemp, cfg.MaxStep, cfg.Depth*cfg.Width*cfg.Height,
			cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2),
		cfg:    cfg,
		zx:     cfg.ZX,
		zy:     cfg.ZY,
		envUA:  make([]float64, n),
		edgeUA: make([]float64, cfg.NumEdges()),
	}
	o.zoneCap = o.airMass / float64(n) * cfg.ThermalMassFactor * airCp
	o.roofUA = cfg.RoofUA / float64(n)
	for e := range o.edgeUA {
		s := 1.0
		if len(cfg.UAScale) > 0 {
			s = cfg.UAScale[e]
		}
		o.edgeUA[e] = cfg.InterZoneUA * s
	}
	perimeter := 0
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			if ix == 0 || ix == o.zx-1 || iy == 0 || iy == o.zy-1 {
				perimeter++
			}
		}
	}
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			if ix == 0 || ix == o.zx-1 || iy == 0 || iy == o.zy-1 {
				o.envUA[ix*o.zy+iy] = cfg.EnvelopeUA / float64(perimeter)
			}
		}
	}
	return o
}

func (o *refOffice) xEdge(ix, iy int) int { return ix*o.zy + iy }
func (o *refOffice) yEdge(ix, iy int) int { return (o.zx-1)*o.zy + ix*(o.zy-1) + iy }

func (o *refOffice) substep(sub float64, in Inputs) {
	cfg := &o.cfg
	n := len(o.temps)

	var totalFlow float64
	zoneFlow := make([]float64, n)
	if nf := len(in.HVAC.Flows); nf > 0 {
		colFlow := make([]float64, o.zy)
		for i, f := range in.HVAC.Flows {
			col := i * o.zy / nf
			if col >= o.zy {
				col = o.zy - 1
			}
			colFlow[col] += f
			totalFlow += f
		}
		for ix := 0; ix < o.zx; ix++ {
			for iy := 0; iy < o.zy; iy++ {
				zoneFlow[ix*o.zy+iy] = colFlow[iy] / float64(o.zx)
			}
		}
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(n)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(n)
	}

	old := o.temps
	next := o.scratch
	for ix := 0; ix < o.zx; ix++ {
		for iy := 0; iy < o.zy; iy++ {
			i := ix*o.zy + iy
			ti := old[i]
			var g, gt float64
			edge := func(j int, ua float64) {
				g += ua
				gt += ua * old[j]
			}
			if ix > 0 {
				edge(i-o.zy, o.edgeUA[o.xEdge(ix-1, iy)])
			}
			if ix < o.zx-1 {
				edge(i+o.zy, o.edgeUA[o.xEdge(ix, iy)])
			}
			if iy > 0 {
				edge(i-1, o.edgeUA[o.yEdge(ix, iy-1)])
			}
			if iy < o.zy-1 {
				edge(i+1, o.edgeUA[o.yEdge(ix, iy)])
			}
			if e := o.envUA[i]; e > 0 {
				g += e
				gt += e * in.Ambient
			}
			g += o.roofUA
			gt += o.roofUA * in.Ambient
			if f := zoneFlow[i]; f > 0 {
				gs := f * airCp
				g += gs
				gt += gs * in.HVAC.SupplyTemp
			}
			load := occHeat + lightHeat
			next[i] = relax(ti, g, gt, load, sub, o.zoneCap)
		}
	}
	o.temps, o.scratch = next, old
	o.air(sub, in.Occupants, totalFlow)
	o.elapsed += sub
}

// refResidence is the per-node lumped R/C residence chain.
type refResidence struct {
	refBase
	cfg       ResidenceConfig
	nodeCap   float64
	envUA     float64
	interUA   float64
	solarGain float64
}

func newRefResidence(cfg ResidenceConfig) *refResidence {
	r := &refResidence{
		refBase: newRefBase(cfg.Zones, cfg.InitialTemp, cfg.MaxStep, cfg.FloorArea*cfg.Height,
			cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2),
		cfg: cfg,
	}
	r.nodeCap = cfg.C * 1000 / float64(cfg.Zones)
	r.envUA = 1000 / cfg.R / float64(cfg.Zones)
	r.interUA = cfg.InterZoneUA
	r.solarGain = cfg.WindowFrac * cfg.FloorArea * cfg.SolarPeak *
		cfg.GlazingTransmittance * cfg.FrameFactor * cfg.SolarAccess
	return r
}

func (r *refResidence) substep(sub float64, in Inputs) {
	cfg := &r.cfg
	n := len(r.temps)
	front := (n + 1) / 2

	var totalFlow float64
	for _, f := range in.HVAC.Flows {
		totalFlow += f
	}
	nodeFlow := totalFlow / float64(n)

	var solar float64
	if h := math.Mod(r.elapsed/3600, 24); h >= 6 && h <= 18 {
		solar = r.solarGain * math.Sin(math.Pi*(h-6)/12)
	}
	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(front)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(front)
	}

	old := r.temps
	next := r.scratch
	for i := 0; i < n; i++ {
		ti := old[i]
		var g, gt float64
		if i > 0 {
			g += r.interUA
			gt += r.interUA * old[i-1]
		}
		if i < n-1 {
			g += r.interUA
			gt += r.interUA * old[i+1]
		}
		g += r.envUA
		gt += r.envUA * in.Ambient
		if nodeFlow > 0 {
			gs := nodeFlow * airCp
			g += gs
			gt += gs * in.HVAC.SupplyTemp
		}
		var load float64
		if i < front {
			load = occHeat + lightHeat + solar*0.7/float64(front)
		} else {
			load = solar * 0.3 / float64(n-front)
		}
		next[i] = relax(ti, g, gt, load, sub, r.nodeCap)
	}
	r.temps, r.scratch = next, old
	r.air(sub, in.Occupants, totalFlow)
	r.elapsed += sub
}

// sameBits reports the first state field where the compiled kernel and
// the reference disagree in any bit, or "" when they agree.
func sameBits(s *Simulator, ref refModel) string {
	b := ref.base()
	for i := range b.temps {
		if math.Float64bits(s.temps[i]) != math.Float64bits(b.temps[i]) {
			return "node temperature"
		}
	}
	var outlet []float64
	if a, ok := s.net.(*auditorium); ok {
		outlet = a.outlet
	}
	if len(outlet) != len(b.outlet) {
		return "plenum count"
	}
	for o := range b.outlet {
		if math.Float64bits(outlet[o]) != math.Float64bits(b.outlet[o]) {
			return "supply plenum"
		}
	}
	for _, p := range [][2]float64{{s.air.humidity, b.humidity}, {s.air.co2, b.co2}, {s.elapsed, b.elapsed}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return "well-mixed state"
		}
	}
	return ""
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

// TestKernelMatchesReference drives the compiled auditorium and the
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
					compareKernels(t, Spec{Archetype: ArchetypeAuditorium, Auditorium: &cfg}, dt, int64(gi))
				})
			}
		}
	}
}

// TestArchetypeKernelsMatchReference drives RandomSpec draws of every
// archetype (random UAScale networks, 3-5 residence zones) against
// their per-node references over two simulated days: plant off at
// night and on by day, with the residence seeing night and solar day.
func TestArchetypeKernelsMatchReference(t *testing.T) {
	for _, name := range Archetypes() {
		for index := 0; index < 6; index++ {
			sp, err := RandomSpec(name, 2024, index)
			if err != nil {
				t.Fatal(err)
			}
			compareKernels(t, sp, 10*time.Minute, int64(index))
		}
	}
}

func compareKernels(t *testing.T, sp Spec, dt time.Duration, seed int64) {
	t.Helper()
	got, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	want := newRef(sp)
	if msg := sameBits(got, want); msg != "" {
		t.Fatalf("%s: initial %s differs from the reference", sp.Archetype, msg)
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
		if msg := sameBits(got, want); msg != "" {
			t.Fatalf("%s %d nodes: step %d %s differs from the reference", sp.Archetype, got.NumCells(), k, msg)
		}
	}
}

// TestKernelClassesShareCoefficients pins the premise of the class
// compilation: every node of a class sees in-grid neighbours on every
// default archetype, and on the auditorium grids far fewer classes than
// cells, each sharing its cells' seating membership.
func TestKernelClassesShareCoefficients(t *testing.T) {
	for _, name := range Archetypes() {
		sp, err := DefaultSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sp.New()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.classes); n == 0 || n > s.NumCells() {
			t.Fatalf("%s: %d classes for %d nodes", name, n, s.NumCells())
		}
		for i, c := range s.classOf {
			cl := s.classes[c]
			for e := 0; e < cl.nEdge; e++ {
				if j := i + cl.off[e]; j < 0 || j >= s.NumCells() {
					t.Fatalf("%s: node %d edge %d points outside the grid", name, i, e)
				}
			}
		}
	}
	for _, cfg := range []Config{DefaultConfig(), bigGridConfig()} {
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.classes); n*2 > s.NumCells() || n > 64 {
			t.Fatalf("%dx%d: %d classes for %d cells; want at most half and at most 64", cfg.NX, cfg.NY, n, s.NumCells())
		}
		ref := newRefAuditorium(cfg)
		for i, c := range s.classOf {
			if seat := s.classes[c].group&groupSeat != 0; seat != ref.seatMask[i] {
				t.Fatalf("cell %d seat %v in class with seat %v", i, ref.seatMask[i], seat)
			}
		}
	}
}
