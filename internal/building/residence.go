package building

import (
	"fmt"
	"math"
	"time"
)

// ResidenceConfig parameterizes the lumped R/C residence archetype,
// after the cooling-demand ThermalModel referenced in SNIPPETS.md: a
// whole-envelope resistance R (K/kW), a whole-house capacitance C
// (kJ/K), solar gains through the glazing, and occupancy scaled from
// floor area by the SAP formula. The single R/C pair is split over a
// short chain of air nodes (front "living" rooms to back bedrooms) so
// the building still has a spatial field for sensors to disagree
// about.
type ResidenceConfig struct {
	// FloorArea is the conditioned floor area in m^2.
	FloorArea float64
	// Height is the storey height in meters.
	Height float64
	// Zones is the number of lumped air nodes in the front-to-back
	// chain (at least 2).
	Zones int
	// R is the whole-envelope thermal resistance in K/kW.
	R float64
	// C is the whole-house thermal capacitance in kJ/K.
	C float64
	// InterZoneUA is the conductance between adjacent nodes in W/K
	// (internal doorways and partition walls).
	InterZoneUA float64
	// WindowFrac is the glazed area as a fraction of floor area.
	WindowFrac float64
	// SolarPeak is the peak irradiance on the glazing in W/m^2 at
	// solar noon on the simulated day.
	SolarPeak float64
	// GlazingTransmittance, FrameFactor and SolarAccess scale the
	// incident irradiance to the heat that actually enters (SAP-style
	// defaults 0.76 / 0.7 / 0.9).
	GlazingTransmittance float64
	FrameFactor          float64
	SolarAccess          float64
	// OccupantHeat is the sensible heat per person in W; occupants
	// land in the front (living) half of the chain.
	OccupantHeat float64
	// LightingPower is the total lighting heat in W when lights are on.
	LightingPower float64
	// InitialTemp is the uniform starting temperature in degC.
	InitialTemp float64
	// OccupantMoisture is the latent moisture release per person in kg/s.
	OccupantMoisture float64
	// SupplyHumidity is the supply-air humidity ratio in kg/kg.
	SupplyHumidity float64
	// OccupantCO2 is the CO2 generation per person in m^3/s.
	OccupantCO2 float64
	// AmbientCO2 is the outdoor CO2 concentration in ppm.
	AmbientCO2 float64
	// MaxStep caps the internal integration substep (default 10 s).
	MaxStep time.Duration
}

// DefaultResidenceConfig returns a tuned 120 m^2 dwelling split over
// four nodes.
func DefaultResidenceConfig() ResidenceConfig {
	return ResidenceConfig{
		FloorArea:            120,
		Height:               2.5,
		Zones:                4,
		R:                    8,
		C:                    12000,
		InterZoneUA:          150,
		WindowFrac:           0.2,
		SolarPeak:            450,
		GlazingTransmittance: 0.76,
		FrameFactor:          0.7,
		SolarAccess:          0.9,
		OccupantHeat:         90,
		LightingPower:        300,
		InitialTemp:          20,
		OccupantMoisture:     1.5e-5,
		SupplyHumidity:       0.008,
		OccupantCO2:          5.2e-6,
		AmbientCO2:           420,
		MaxStep:              10 * time.Second,
	}
}

// Validate checks every field against its physical range.
func (c ResidenceConfig) Validate() error {
	if c.FloorArea <= 0 {
		return fmt.Errorf("building: residence floor area %v must be positive", c.FloorArea)
	}
	if c.Height <= 0 {
		return fmt.Errorf("building: residence height %v must be positive", c.Height)
	}
	if c.Zones < 2 {
		return fmt.Errorf("building: residence needs at least 2 zones, got %d", c.Zones)
	}
	if c.R <= 0 {
		return fmt.Errorf("building: residence envelope resistance %v K/kW must be positive", c.R)
	}
	if c.C <= 0 {
		return fmt.Errorf("building: residence capacitance %v kJ/K must be positive", c.C)
	}
	if c.InterZoneUA <= 0 {
		return fmt.Errorf("building: residence inter-zone conductance %v must be positive", c.InterZoneUA)
	}
	if c.WindowFrac < 0 || c.WindowFrac > 1 {
		return fmt.Errorf("building: residence window fraction %v outside [0, 1]", c.WindowFrac)
	}
	if c.SolarPeak < 0 {
		return fmt.Errorf("building: residence solar peak %v must not be negative", c.SolarPeak)
	}
	if c.GlazingTransmittance <= 0 || c.GlazingTransmittance > 1 ||
		c.FrameFactor <= 0 || c.FrameFactor > 1 ||
		c.SolarAccess <= 0 || c.SolarAccess > 1 {
		return fmt.Errorf("building: residence glazing factors (%v, %v, %v) must be in (0, 1]",
			c.GlazingTransmittance, c.FrameFactor, c.SolarAccess)
	}
	if c.MaxStep < 0 {
		return fmt.Errorf("building: residence max step %v must not be negative", c.MaxStep)
	}
	return nil
}

// Dims returns the floor-plan extent: a 2:1 rectangle with the
// configured area, depth along X.
func (c ResidenceConfig) Dims() (depth, width float64) {
	width = math.Sqrt(c.FloorArea / 2)
	return 2 * width, width
}

// Sensors returns the residence deployment: one wireless sensor at
// each node center plus the hallway thermostat near the front door.
func (c ResidenceConfig) Sensors() []SensorSpec {
	depth, width := c.Dims()
	dx := depth / float64(c.Zones)
	specs := make([]SensorSpec, 0, c.Zones+1)
	for i := 0; i < c.Zones; i++ {
		specs = append(specs, SensorSpec{
			ID:  i + 1,
			Pos: Point{X: (float64(i) + 0.5) * dx, Y: width / 2},
		})
	}
	specs = append(specs, SensorSpec{
		ID:         c.Zones + 1,
		Pos:        Point{X: 0.4, Y: width / 2},
		Thermostat: true,
	})
	return specs
}

// Occupancy returns the SAP expected occupancy for the floor area
// (the cooling_demand formula referenced in SNIPPETS.md).
func (c ResidenceConfig) Occupancy() float64 {
	fa := c.FloorArea
	if fa <= 13.9 {
		return 1
	}
	d := fa - 13.9
	return 1 + 1.76*(1-math.Exp(-0.000349*d*d)) + 0.0013*d
}

// Metadata summarizes the residence for fleet reports.
func (c ResidenceConfig) Metadata() Metadata {
	return Metadata{
		Archetype:       ArchetypeResidence,
		FloorArea:       c.FloorArea,
		Zones:           c.Zones,
		Sensors:         c.Zones + 1,
		DesignOccupancy: int(math.Round(c.Occupancy())),
	}
}

// residence is the lumped R/C dwelling as a network: a Zones×1 chain
// of nodes sharing the whole-house R and C, with solar gains through
// the glazing on a diurnal half-sine.
type residence struct {
	cfg       ResidenceConfig
	front     int     // nodes in the front (living) half
	solarGain float64 // W total at peak irradiance
}

// newResidence validates cfg and returns the residence at the initial
// uniform state.
func newResidence(cfg ResidenceConfig) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Zones
	r := &residence{
		cfg:   cfg,
		front: (n + 1) / 2,
		solarGain: cfg.WindowFrac * cfg.FloorArea * cfg.SolarPeak *
			cfg.GlazingTransmittance * cfg.FrameFactor * cfg.SolarAccess,
	}
	// One dynamic supply conductance shared by every node; load group 0
	// is the front half, 1 the back.
	depth, width := cfg.Dims()
	s := newSimulator(r, n, 1, depth, width, 1, srcFixed, 2)
	s.air = newAir(cfg.FloorArea*cfg.Height,
		cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2)
	// The whole-house R/C pair splits evenly over the node chain: R in
	// K/kW means the envelope conductance is 1000/R W/K total, C in
	// kJ/K means 1000*C J/K total.
	s.cellCap = cfg.C * 1000 / float64(n)
	inter := s.fixed(cfg.InterZoneUA)
	env := 1000 / cfg.R / float64(n)
	s.compile(func(_, _, _, _ int) int32 { return inter }, func(ix, _ int, c *cellClass) int32 {
		s.fixedBoundary(c, env, srcAmbient)
		c.boundary(0, srcSupply)
		if ix < r.front {
			return 0
		}
		return 1
	})
	s.start(cfg.InitialTemp, cfg.MaxStep)
	return s, nil
}

// supply splits the total VAV flow evenly over the nodes.
func (r *residence) supply(s *Simulator, _ float64, flows []float64) float64 {
	var total float64
	for _, f := range flows {
		total += f
	}
	s.cond[0] = total / float64(len(s.temps)) * airCp
	return total
}

// fill writes the front and back loads. Solar lands mostly on the
// front (south-glazed) half; occupants and lights live there too. The
// asymmetry is what keeps the node chain from collapsing to one
// effective state.
func (r *residence) fill(s *Simulator, _ float64, in Inputs) {
	cfg := &r.cfg
	n, front := len(s.temps), r.front
	solar := r.solarGain * solarShape(s.elapsed)
	occHeat := float64(in.Occupants) * cfg.OccupantHeat / float64(front)
	var lightHeat float64
	if in.LightsOn {
		lightHeat = cfg.LightingPower / float64(front)
	}
	s.load[0] = occHeat + lightHeat + solar*0.7/float64(front)
	s.load[1] = solar * 0.3 / float64(n-front)
}

// solarShape is the diurnal irradiance profile after elapsed simulated
// seconds: a half-sine between 06:00 and 18:00. Traces start at
// midnight, so the phase is just elapsed time modulo 24 h.
func solarShape(elapsed float64) float64 {
	h := math.Mod(elapsed/3600, 24)
	if h < 6 || h > 18 {
		return 0
	}
	return math.Sin(math.Pi * (h - 6) / 12)
}
