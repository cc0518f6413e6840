package building

import (
	"math"
	"time"
)

// Config parameterizes the zonal simulator. The defaults reproduce the
// paper's room; every field is physical, so alternative buildings are a
// matter of retuning rather than re-coding.
type Config struct {
	// NX, NY is the zone grid resolution (front-to-back x side-to-side).
	NX, NY int
	// Height is the ceiling height in meters.
	Height float64
	// ThermalMassFactor scales the air mass to an effective thermal
	// mass including furniture, finishes and the bounding slab layer.
	ThermalMassFactor float64
	// MixingUA is the inter-cell mixing conductance between adjacent
	// cells in W/K (bulk air exchange driven by diffusers and buoyancy).
	MixingUA float64
	// MixDriftPerDay is the fractional daily growth of MixingUA: the
	// seasonal non-stationarity that makes very long training horizons
	// over-fit (paper Fig. 5). 0.005 is +0.5%/day compounded.
	MixDriftPerDay float64
	// EnvelopeUA is the total conductance to ambient air in W/K,
	// distributed over the perimeter cells (the room is a basement, so
	// this is small: light wells, doors and the above-grade wall strip).
	EnvelopeUA float64
	// GroundUA is the total conductance to the surrounding earth in
	// W/K, distributed over all cells.
	GroundUA float64
	// GroundTemp is the slab/earth temperature in degC at simulation
	// start.
	GroundTemp float64
	// GroundTempDriftPerDay is the seasonal slab warming in degC/day
	// (the basement slab follows the season with a long lag). Together
	// with MixDriftPerDay this is the non-stationarity that makes very
	// long training horizons over-fit (paper Fig. 5).
	GroundTempDriftPerDay float64
	// OccupantHeat is the sensible heat per person in W.
	OccupantHeat float64
	// SeatStartX is the front-to-back coordinate where seating begins;
	// occupant heat lands uniformly on cells behind it.
	SeatStartX float64
	// SeatMixBoost multiplies the mixing conductance between two
	// seating cells: occupant plumes and the ceiling diffusers churn
	// the seating block into a near-uniform zone, while the front
	// (stage/outlet) cells keep their own microclimate. Must be >= 1
	// (Validate rejects smaller values).
	SeatMixBoost float64
	// StageMixFactor multiplies the mixing conductance on edges that
	// cross the stage/seating boundary. The supply jets wash the stage
	// and short-circuit toward the front returns, so the stage
	// microclimate couples only weakly into the seating block; this is
	// what makes the front sensor column track the supply plenum while
	// the seats track the occupant load (the correlation structure
	// behind the paper's Fig. 6 clusters). Must be in (0, 1]
	// (Validate rejects anything else).
	StageMixFactor float64
	// LightingPower is the total lighting heat in W when lights are on.
	LightingPower float64
	// TurbulencePower is the amplitude (W, total over the room) of the
	// deterministic thermal oscillation modeling diffuser turbulence
	// and buoyancy plumes: a real room never sits perfectly still,
	// which is what keeps report-on-change sensors chatting. Zero
	// disables it.
	TurbulencePower float64
	// TurbulencePeriod is the oscillation period; zero selects 37
	// minutes (incommensurate with the sampling grids).
	TurbulencePeriod time.Duration
	// NumOutlets is the number of supply outlets on the front wall (the
	// paper's room has 2, fed by 4 VAVs).
	NumOutlets int
	// PlenumMass is the air-equivalent mass of each outlet's supply
	// mixing node in kg. Supply air reaches the room only through this
	// first-order lag, which is what makes the measured response
	// greater than first order.
	PlenumMass float64
	// InitialTemp is the uniform starting temperature in degC.
	InitialTemp float64
	// OccupantMoisture is the latent moisture release per person in
	// kg/s.
	OccupantMoisture float64
	// SupplyHumidity is the supply-air humidity ratio in kg/kg.
	SupplyHumidity float64
	// OccupantCO2 is the CO2 generation per person in m^3/s.
	OccupantCO2 float64
	// AmbientCO2 is the outdoor CO2 concentration in ppm.
	AmbientCO2 float64
	// MaxStep caps the internal integration substep; Step subdivides
	// larger dt values so physics fidelity does not depend on the
	// caller's stepping.
	MaxStep time.Duration
}

// DefaultConfig returns the tuned auditorium: ~90 seats, 20x15x3.5 m,
// 2 front outlets fed by 4 VAVs.
func DefaultConfig() Config {
	return Config{
		NX:                    10,
		NY:                    6,
		Height:                3.5,
		ThermalMassFactor:     3.5,
		MixingUA:              1200,
		MixDriftPerDay:        0.005,
		EnvelopeUA:            50,
		GroundUA:              90,
		GroundTemp:            16,
		GroundTempDriftPerDay: 0.012,
		OccupantHeat:          90,
		SeatStartX:            4,
		SeatMixBoost:          3,
		StageMixFactor:        0.2,
		TurbulencePower:       5000,
		TurbulencePeriod:      37 * time.Minute,
		LightingPower:         1200,
		NumOutlets:            2,
		PlenumMass:            135,
		InitialTemp:           20,
		OccupantMoisture:      1.5e-5,
		SupplyHumidity:        0.008,
		OccupantCO2:           5.2e-6,
		AmbientCO2:            420,
		MaxStep:               10 * time.Second,
	}
}

// Dynamic slots of the compiled auditorium: the three mixing-edge
// conductances, then one supply conductance per outlet; the ground
// temperature source, then one plenum source per outlet; and the load
// groups, whose bits mark seating cells and the return-plume half of
// the oscillation.
const (
	edgePlain = iota
	edgeBoost
	edgeStage
	audSupply
)

const (
	srcGround = srcFixed + iota
	srcOutlet
)

const (
	groupSeat = 1 << iota
	groupBack
	audGroups = (groupSeat | groupBack) + 1
)

// auditorium is the paper's room as a network: a zonal NX×NY cell grid
// whose inter-cell mixing drifts seasonally, with envelope and slab
// conduction, front cells fed through per-outlet supply plenums and a
// supply-driven oscillation between the front and back halves.
type auditorium struct {
	cfg            Config
	outlet         []float64 // per-outlet plenum temperatures
	plenumAlpha    []float64 // per-outlet plenum mixing fraction per substep
	frontPerOutlet []int     // front cells fed by each outlet
	seats          int       // cells sharing the occupant heat
	logDrift       float64   // log1p(MixDriftPerDay), cached for driftFactor
}

// NewSimulator validates cfg and returns the auditorium at the initial
// uniform state.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nx, ny, n := cfg.NX, cfg.NY, cfg.NX*cfg.NY
	a := &auditorium{
		cfg:            cfg,
		outlet:         make([]float64, cfg.NumOutlets),
		plenumAlpha:    make([]float64, cfg.NumOutlets),
		frontPerOutlet: make([]int, cfg.NumOutlets),
		logDrift:       math.Log1p(cfg.MixDriftPerDay),
	}
	s := newSimulator(a, nx, ny, RoomDepth, RoomWidth, audSupply+cfg.NumOutlets, srcOutlet+cfg.NumOutlets, audGroups)
	s.air = newAir(RoomDepth*RoomWidth*cfg.Height,
		cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2)
	cellMass := s.air.airMass / float64(n) * cfg.ThermalMassFactor
	s.cellCap = cellMass * airCp

	// Seating cells have centers behind SeatStartX; front cells (ix ==
	// 0) are fed by the outlet covering their Y band.
	dx := RoomDepth / float64(nx)
	seat := func(ix int) bool { return (float64(ix)+0.5)*dx >= cfg.SeatStartX }
	for ix := 0; ix < nx; ix++ {
		if seat(ix) {
			a.seats += ny
		}
	}
	outletOf := func(iy int) int { return iy * cfg.NumOutlets / ny }
	for iy := 0; iy < ny; iy++ {
		a.frontPerOutlet[outletOf(iy)]++
	}

	// An edge between two seating cells carries the boosted mixing
	// conductance (occupant-churned zone); an edge crossing the
	// stage/seating boundary carries the attenuated one (the supply
	// jets short-circuit to the stage returns, so the stage
	// microclimate couples only weakly into the seats); any other edge
	// carries the plain one.
	edge := func(ix, _, jx, _ int) int32 {
		switch si := seat(ix); {
		case si != seat(jx):
			return edgeStage
		case si:
			return edgeBoost
		}
		return edgePlain
	}
	// Boundary terms: perimeter cells share the envelope conductance
	// equally, every cell its share of the ground, front cells their
	// outlet's supply.
	env := perimeterShare(cfg.EnvelopeUA, nx, ny)
	s.compile(edge, func(ix, iy int, c *cellClass) int32 {
		if onPerimeter(ix, iy, nx, ny) {
			s.fixedBoundary(c, env, srcAmbient)
		}
		s.fixedBoundary(c, cfg.GroundUA/float64(n), srcGround)
		if ix == 0 {
			o := outletOf(iy)
			c.boundary(int32(audSupply+o), int32(srcOutlet+o))
		}
		var group int32
		if seat(ix) {
			group |= groupSeat
		}
		if 5*ix >= 2*nx {
			group |= groupBack
		}
		return group
	})

	s.start(cfg.InitialTemp, cfg.MaxStep)
	for o := range a.outlet {
		a.outlet[o] = cfg.InitialTemp
	}
	return s, nil
}

// supply sums the per-VAV flows into per-outlet totals and derives
// each outlet's plenum mixing fraction over one substep and its
// front-cell supply conductance.
func (a *auditorium) supply(s *Simulator, sub float64, vavFlows []float64) float64 {
	nOut := a.cfg.NumOutlets
	sup := s.cond[audSupply : audSupply+nOut]
	for o := range sup {
		sup[o] = 0
	}
	for i, f := range vavFlows {
		o := i * nOut / len(vavFlows)
		if o >= nOut {
			o = nOut - 1
		}
		sup[o] += f
	}
	var total float64
	for o, f := range sup {
		total += f
		a.plenumAlpha[o] = 1 - math.Exp(-sub*f/a.cfg.PlenumMass)
		// Each outlet's flow splits over the front cells in its band.
		sup[o] = f * airCp / float64(a.frontPerOutlet[o])
	}
	return total
}

// fill writes the drifted mixing conductances, the drifted ground
// temperature, the supply plenums and the four group loads.
func (a *auditorium) fill(s *Simulator, sub float64, in Inputs) {
	cfg := &a.cfg
	mix := cfg.MixingUA * a.driftFactor(s.elapsed)
	// Validate() guarantees boost >= 1 and stage in (0, 1].
	s.cond[edgePlain] = mix
	s.cond[edgeBoost] = mix * cfg.SeatMixBoost
	s.cond[edgeStage] = mix * cfg.StageMixFactor
	s.src[srcGround] = cfg.GroundTemp + cfg.GroundTempDriftPerDay*s.elapsed/86400

	// Supply plenums: first-order mixing of supply air into each
	// outlet's delivery stream.
	for o := range a.outlet {
		a.outlet[o] += a.plenumAlpha[o] * (in.HVAC.SupplyTemp - a.outlet[o])
		s.src[srcOutlet+o] = a.outlet[o]
	}

	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(a.seats)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(len(s.temps))
	}
	// Diffuser/buoyancy turbulence: a slow counter-phase oscillation
	// between the supply-jet half and the return-plume half of the room.
	// It is driven by the supply jets, so its strength follows the total
	// supply flow: near-quiet overnight when the plant is off (a small
	// buoyancy floor keeps the air from sitting perfectly still), full
	// strength under daytime ventilation. The front and back halves
	// breathe in counter-phase, like a slow room-scale circulation cell.
	var wob bool
	var wobFront, wobBack float64
	if cfg.TurbulencePower > 0 {
		period := cfg.TurbulencePeriod
		if period <= 0 {
			period = 37 * time.Minute
		}
		frac := 0.12 + 0.88*s.totalFlow/1.2
		if frac > 1 {
			frac = 1
		}
		wobAmp := frac * cfg.TurbulencePower / float64(len(s.temps))
		wobPhase := 2 * math.Pi * s.elapsed / period.Seconds()
		if wob = wobAmp > 0; wob {
			wobFront = wobAmp * math.Sin(wobPhase)
			wobBack = wobAmp * math.Sin(wobPhase+math.Pi)
		}
	}
	for grp := range s.load {
		load := lightHeat
		if grp&groupSeat != 0 {
			load += occHeat
		}
		if wob {
			if grp&groupBack != 0 {
				load += wobBack
			} else {
				load += wobFront
			}
		}
		s.load[grp] = load
	}
}

// driftFactor is the seasonal mixing drift multiplier after elapsed
// simulated seconds.
func (a *auditorium) driftFactor(elapsed float64) float64 {
	if a.cfg.MixDriftPerDay == 0 {
		return 1
	}
	days := elapsed / 86400
	return math.Exp(days * a.logDrift)
}
