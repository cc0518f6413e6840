package building

import (
	"fmt"
	"math"
	"time"

	"auditherm/internal/hvac"
	"auditherm/internal/par"
)

// Physical constants.
const (
	airDensity = 1.204 // kg/m^3 at ~20 degC
	airCp      = hvac.AirCp
)

// simParCells gates the row-parallel node update in substep: grids with
// fewer nodes (including the paper's 10x6 default) stay on the serial
// path, where parallel dispatch would cost more than the physics.
const simParCells = 2048

// Source-temperature slots every archetype shares; the kernel writes
// them at the start of each Step. An archetype's own sources (ground,
// supply plenums) follow from srcFixed.
const (
	srcAmbient = iota // outdoor air
	srcSupply         // raw supply air
	srcFixed
)

// Inputs drives one simulation step.
type Inputs struct {
	// HVAC is the plant operating point (per-VAV flows, supply temp).
	HVAC hvac.State
	// Occupants is the current ground-truth occupant count.
	Occupants int
	// LightsOn reports whether the room lighting is on.
	LightsOn bool
	// Ambient is the outdoor air temperature in degC.
	Ambient float64
}

// Simulator is one building archetype compiled onto a rectangular grid
// of well-mixed air nodes: the auditorium is its NX×NY cell grid, the
// office its ZX×ZY zones, the residence a Zones×1 chain. Each node
// exchanges heat with its grid neighbours and with boundary sources
// (ambient, ground, supply air) through conductances, and the whole
// volume shares one moisture and CO2 balance. It is advanced by Step
// and probed with TemperatureAt / RelativeHumidityAt / CO2.
type Simulator struct {
	net network // the archetype's supply split and per-substep fill

	nx, ny       int
	depth, width float64   // floor-plan extent in meters (X, Y)
	temps        []float64 // node temperatures, row-major [ix*ny+iy]
	scratch      []float64
	cellCap      float64 // J/K per node
	maxStep      float64 // substep cap in seconds

	// Compiled conductance classes (see cellClass): classOf maps each
	// node to its class, whose per-substep coefficients substep fills
	// in once before the node sweep.
	classes []cellClass
	classOf []int32

	// Slot tables the classes read: conductances in W/K, source
	// temperatures in degC and group loads in W. cond[:dynamic] are
	// rewritten by the archetype every Step or substep; cond[dynamic:]
	// are compile-time constants.
	cond    []float64
	dynamic int
	src     []float64
	load    []float64

	air       wellMixed
	totalFlow float64 // supply mass flow in kg/s, constant over a Step
	elapsed   float64 // seconds simulated so far (drift, solar phase)
}

// network is an archetype's part of a compiled Simulator: it writes
// the dynamic slots its classes read.
type network interface {
	// supply writes the Step-constant supply state for the per-VAV
	// flows (kg/s) and returns the total supply flow.
	supply(s *Simulator, sub float64, flows []float64) float64
	// fill writes the per-substep conductances, source temperatures and
	// group loads.
	fill(s *Simulator, sub float64, in Inputs)
}

// cellClass is one conductance class: nodes whose neighbour edges have
// the same offsets and conductance slots in edge order (x−1, x+1, y−1,
// y+1), the same boundary terms in order and the same load group.
// Every node of a class sums the same terms into g in the same order,
// so they share g bit-for-bit, and with it exp(-sub*g/cap) and the
// heat load: substep computes those once per class instead of once per
// node.
type cellClass struct {
	nEdge  int
	off    [4]int   // neighbour index offsets in edge order
	edge   [4]int32 // conductance slot of each edge
	nBound int
	bound  [3]int32 // conductance slot of each boundary term
	src    [3]int32 // source-temperature slot of each boundary term
	group  int32    // load group

	// Per-substep coefficients, written before the node sweep and only
	// read during it: each edge's conductance, each boundary term's
	// conductance times its source temperature, the total conductance
	// g, exp(-sub*g/cap) and the heat load.
	m              [4]float64
	bt             [3]float64
	g, decay, load float64
}

// boundary appends a boundary term: conductance slot g fed by source
// slot src.
func (c *cellClass) boundary(g, src int32) {
	c.bound[c.nBound] = g
	c.src[c.nBound] = src
	c.nBound++
}

// newSimulator returns an empty nx×ny grid for net with its dynamic
// conductance, source and load-group slots allocated. The archetype's
// constructor then sets the capacities and air, compiles the classes
// and calls start.
func newSimulator(net network, nx, ny int, depth, width float64, dynamic, sources, groups int) *Simulator {
	return &Simulator{
		net: net, nx: nx, ny: ny, depth: depth, width: width,
		cond: make([]float64, dynamic), dynamic: dynamic,
		src:  make([]float64, sources),
		load: make([]float64, groups),
	}
}

// fixed interns a compile-time conductance and returns its slot.
func (s *Simulator) fixed(g float64) int32 {
	for k := s.dynamic; k < len(s.cond); k++ {
		if math.Float64bits(s.cond[k]) == math.Float64bits(g) {
			return int32(k)
		}
	}
	s.cond = append(s.cond, g)
	return int32(len(s.cond) - 1)
}

// fixedBoundary appends a compile-time boundary conductance g fed by
// source slot src. A zero conductance compiles to no term at all:
// Step admits only finite inputs, so its 0*source addend is a signed
// zero, which never changes a sum that starts at +0.
func (s *Simulator) fixedBoundary(c *cellClass, g float64, src int32) {
	if g > 0 {
		c.boundary(s.fixed(g), src)
	}
}

// compile groups the grid's nodes into conductance classes. edge
// returns the conductance slot of the edge from node (ix, iy) to its
// neighbour (jx, jy); node appends the node's boundary terms in
// summation order and returns its load group.
func (s *Simulator) compile(edge func(ix, iy, jx, jy int) int32, node func(ix, iy int, c *cellClass) int32) {
	nx, ny := s.nx, s.ny
	s.classOf = make([]int32, nx*ny)
	index := make(map[cellClass]int32)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			var c cellClass
			link := func(jx, jy int) {
				c.off[c.nEdge] = (jx-ix)*ny + jy - iy
				c.edge[c.nEdge] = edge(ix, iy, jx, jy)
				c.nEdge++
			}
			if ix > 0 {
				link(ix-1, iy)
			}
			if ix < nx-1 {
				link(ix+1, iy)
			}
			if iy > 0 {
				link(ix, iy-1)
			}
			if iy < ny-1 {
				link(ix, iy+1)
			}
			c.group = node(ix, iy, &c)
			id, ok := index[c]
			if !ok {
				id = int32(len(s.classes))
				index[c] = id
				s.classes = append(s.classes, c)
			}
			s.classOf[ix*ny+iy] = id
		}
	}
}

// start puts the compiled grid at a uniform initial temperature with
// the substep cap maxStep (zero selects 10 s).
func (s *Simulator) start(initial float64, maxStep time.Duration) {
	if maxStep <= 0 {
		maxStep = 10 * time.Second
	}
	s.maxStep = maxStep.Seconds()
	s.temps = make([]float64, s.nx*s.ny)
	s.scratch = make([]float64, len(s.temps))
	for i := range s.temps {
		s.temps[i] = initial
	}
}

// onPerimeter reports whether node (ix, iy) of an nx×ny grid lies on
// the outer wall.
func onPerimeter(ix, iy, nx, ny int) bool {
	return ix == 0 || ix == nx-1 || iy == 0 || iy == ny-1
}

// perimeterShare splits a total envelope conductance equally over the
// perimeter nodes of an nx×ny grid.
func perimeterShare(total float64, nx, ny int) float64 {
	interior := max(nx-2, 0) * max(ny-2, 0)
	return total / float64(nx*ny-interior)
}

// NumCells returns the grid node count.
func (s *Simulator) NumCells() int { return s.nx * s.ny }

// checkInputs rejects a non-positive dt and every input that is not a
// finite physical value: a negative occupant count, a negative or
// non-finite VAV flow, a non-finite ambient or supply temperature.
func checkInputs(dt time.Duration, in Inputs) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if dt <= 0 {
		return fmt.Errorf("building: step dt %v must be positive", dt)
	}
	if in.Occupants < 0 {
		return fmt.Errorf("building: negative occupant count %d", in.Occupants)
	}
	for _, f := range in.HVAC.Flows {
		if f < 0 || !finite(f) {
			return fmt.Errorf("building: invalid VAV flow %v", f)
		}
	}
	if !finite(in.Ambient) {
		return fmt.Errorf("building: ambient temperature %v is not finite", in.Ambient)
	}
	if !finite(in.HVAC.SupplyTemp) {
		return fmt.Errorf("building: supply temperature %v is not finite", in.HVAC.SupplyTemp)
	}
	return nil
}

// Step advances the building by dt under the given inputs. dt is split
// into substeps no longer than the archetype's MaxStep, so results
// have the same fidelity whatever the caller's stepping.
func (s *Simulator) Step(dt time.Duration, in Inputs) error {
	if err := checkInputs(dt, in); err != nil {
		return err
	}
	total := dt.Seconds()
	steps := int(math.Ceil(total / s.maxStep))
	if steps < 1 {
		steps = 1
	}
	sub := total / float64(steps)
	s.totalFlow = s.net.supply(s, sub, in.HVAC.Flows)
	s.src[srcAmbient] = in.Ambient
	s.src[srcSupply] = in.HVAC.SupplyTemp
	for k := 0; k < steps; k++ {
		s.substep(sub, in)
	}
	stepsTotal.Inc()
	cellsStepped.Add(int64(steps * len(s.temps)))
	return nil
}

// substep advances one internal step of sub seconds. Step has already
// written the Step-constant supply state and shared sources.
func (s *Simulator) substep(sub float64, in Inputs) {
	s.net.fill(s, sub, in)

	// Per-class coefficients: the relaxation rate g (edges in edge
	// order, then the boundary terms in order, exactly the per-node
	// summation order), its exponential decay over the substep, each
	// boundary term's conductance-weighted source and the heat load.
	for c := range s.classes {
		cl := &s.classes[c]
		var g float64
		for e := 0; e < cl.nEdge; e++ {
			cl.m[e] = s.cond[cl.edge[e]]
			g += cl.m[e]
		}
		for k := 0; k < cl.nBound; k++ {
			b := s.cond[cl.bound[k]]
			g += b
			cl.bt[k] = b * s.src[cl.src[k]]
		}
		cl.g = g
		if g > 0 {
			cl.decay = math.Exp(-sub * g / s.cellCap)
		}
		cl.load = s.load[cl.group]
	}

	// The node update reads only the frozen field and the class
	// coefficients, and writes only its own rows, so grid-row bands are
	// independent: large grids fan out over the par worker pool with
	// the exact serial per-node arithmetic (bit-for-bit identical
	// results at any worker count). The paper-scale default grid (10x6
	// cells) stays below simParCells and runs serially with zero
	// overhead.
	if s.nx*s.ny >= simParCells {
		par.For(0, s.nx, 1, func(ixlo, ixhi int) { s.sweep(ixlo, ixhi, sub) })
	} else {
		s.sweep(0, s.nx, sub)
	}
	s.temps, s.scratch = s.scratch, s.temps

	s.air.step(sub, in.Occupants, s.totalFlow)
	s.elapsed += sub
}

// sweep writes the next temperature of every node in grid rows
// [ixlo, ixhi) from the frozen field and the class coefficients.
func (s *Simulator) sweep(ixlo, ixhi int, sub float64) {
	old, next := s.temps, s.scratch
	for i := ixlo * s.ny; i < ixhi*s.ny; i++ {
		cl := &s.classes[s.classOf[i]]
		// Conductance-weighted equilibrium of the frozen neighborhood:
		// unconditionally stable exponential relaxation toward it.
		var gt float64
		for e := 0; e < cl.nEdge; e++ {
			gt += cl.m[e] * old[i+cl.off[e]]
		}
		for k := 0; k < cl.nBound; k++ {
			gt += cl.bt[k]
		}
		next[i] = relaxDecay(old[i], cl.g, gt, cl.load, sub, s.cellCap, cl.decay)
	}
}

// relaxDecay moves ti toward its frozen-neighborhood equilibrium
// (gt + load)/g with decay = exp(-sub*g/cap), the exact exponential
// for time constant cap/g. It is unconditionally stable for any
// substep; the decay is unused when g <= 0.
func relaxDecay(ti, g, gt, load, sub, cap, decay float64) float64 {
	if g <= 0 {
		return ti + sub*load/cap
	}
	teq := (gt + load) / g
	return teq + (ti-teq)*decay
}

// wellMixed is the room air's moisture and CO2 balance: one well-mixed
// volume per building, the same for every archetype.
type wellMixed struct {
	airMass, volume             float64 // kg (true, unscaled air mass), m^3
	occMoisture, supplyHumidity float64 // kg/s per person, kg/kg
	occCO2, ambientCO2          float64 // m^3/s per person, ppm
	humidity, co2               float64 // kg/kg, ppm
}

func newAir(volume, occMoisture, supplyHumidity, occCO2, ambientCO2 float64) wellMixed {
	return wellMixed{
		airMass: volume * airDensity, volume: volume,
		occMoisture: occMoisture, supplyHumidity: supplyHumidity,
		occCO2: occCO2, ambientCO2: ambientCO2,
		humidity: supplyHumidity, co2: ambientCO2,
	}
}

// step advances the balance by sub seconds (supply air is
// outdoor-equivalent for CO2).
func (a *wellMixed) step(sub float64, occupants int, totalFlow float64) {
	if totalFlow > 0 || occupants > 0 {
		dw := (float64(occupants)*a.occMoisture +
			totalFlow*(a.supplyHumidity-a.humidity)) / a.airMass
		a.humidity += sub * dw
		if a.humidity < 0 {
			a.humidity = 0
		}
	}
	q := totalFlow / airDensity // m^3/s
	dc := (float64(occupants)*a.occCO2*1e6 + q*(a.ambientCO2-a.co2)) / a.volume
	a.co2 += sub * dc
	if a.co2 < a.ambientCO2 {
		a.co2 = a.ambientCO2
	}
}

// TemperatureAt returns the air temperature at a floor-plan point by
// bilinear interpolation between node centers, clamped at the walls
// (on the residence's one-row chain, linear along X).
func (s *Simulator) TemperatureAt(p Point) float64 {
	return interpBilinear(s.temps, s.nx, s.ny, s.depth, s.width, p)
}

// TemperaturesAt evaluates TemperatureAt for every point in ps,
// writing into dst when it has matching length (zero-alloc for hot
// monitoring loops that sample the truth field every control step) and
// allocating otherwise. It returns the filled slice.
func (s *Simulator) TemperaturesAt(ps []Point, dst []float64) []float64 {
	if len(dst) != len(ps) {
		dst = make([]float64, len(ps))
	}
	for i, p := range ps {
		dst[i] = s.TemperatureAt(p)
	}
	return dst
}

// MeanTemp returns the average node temperature (the return-air
// temperature seen by the plant).
func (s *Simulator) MeanTemp() float64 {
	var sum float64
	for _, t := range s.temps {
		sum += t
	}
	return sum / float64(len(s.temps))
}

// RelativeHumidityAt returns the relative humidity (percent) at a
// point: the well-mixed humidity ratio evaluated against the local
// temperature's saturation ratio.
func (s *Simulator) RelativeHumidityAt(p Point) float64 {
	return RelativeHumidity(s.TemperatureAt(p), s.air.humidity)
}

// RelativeHumidity returns the relative humidity (percent, clamped to
// [0, 100]) of air at t degC holding humidity ratio w kg/kg.
func RelativeHumidity(t, w float64) float64 {
	rh := 100 * w / saturationRatio(t)
	if rh < 0 {
		return 0
	}
	if rh > 100 {
		return 100
	}
	return rh
}

// HumidityRatio returns the well-mixed humidity ratio in kg/kg.
func (s *Simulator) HumidityRatio() float64 { return s.air.humidity }

// CO2 returns the well-mixed CO2 concentration in ppm.
func (s *Simulator) CO2() float64 { return s.air.co2 }

// saturationRatio is the saturation humidity ratio (kg/kg) at t degC
// and standard pressure, via the Magnus formula.
func saturationRatio(t float64) float64 {
	psat := 610.94 * math.Exp(17.625*t/(t+243.04))
	const pAtm = 101325.0
	if psat >= pAtm {
		psat = pAtm - 1
	}
	return 0.622 * psat / (pAtm - psat)
}

// interpBilinear evaluates a row-major nx-by-ny node-center field at a
// floor-plan point by bilinear interpolation, clamped to the
// node-center lattice. depth/width is the floor-plan extent.
func interpBilinear(temps []float64, nx, ny int, depth, width float64, p Point) float64 {
	dx := depth / float64(nx)
	dy := width / float64(ny)
	fx := p.X/dx - 0.5
	fy := p.Y/dy - 0.5
	fx = minf(maxf(fx, 0), float64(nx-1))
	fy = minf(maxf(fy, 0), float64(ny-1))
	ix0 := int(fx)
	iy0 := int(fy)
	ix1 := ix0 + 1
	iy1 := iy0 + 1
	if ix1 > nx-1 {
		ix1 = nx - 1
	}
	if iy1 > ny-1 {
		iy1 = ny - 1
	}
	tx := fx - float64(ix0)
	ty := fy - float64(iy0)
	t00 := temps[ix0*ny+iy0]
	t01 := temps[ix0*ny+iy1]
	t10 := temps[ix1*ny+iy0]
	t11 := temps[ix1*ny+iy1]
	return (1-tx)*((1-ty)*t00+ty*t01) + tx*((1-ty)*t10+ty*t11)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
