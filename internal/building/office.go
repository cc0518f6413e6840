package building

import (
	"fmt"
	"math"
	"time"
)

// OfficeConfig parameterizes the multi-zone office archetype: a grid
// of thermally coupled zones whose inter-zone conductances form an
// identified thermal network in the style of Doddi et al.
// ("Data-driven identification of a thermal network in multi-zone
// building"). Each zone is a lumped air node; adjacent zones exchange
// heat through partition conductances, perimeter zones couple to
// ambient, and every zone sees the roof.
type OfficeConfig struct {
	// ZX, ZY is the zone grid (front-to-back x side-to-side). At least
	// two zones in total.
	ZX, ZY int
	// Depth, Width, Height are the floor-plate dimensions in meters.
	Depth, Width, Height float64
	// ThermalMassFactor scales the zone air mass to an effective
	// thermal mass including furniture, partitions and slab coupling.
	ThermalMassFactor float64
	// InterZoneUA is the base conductance between adjacent zones in
	// W/K before per-edge scaling.
	InterZoneUA float64
	// UAScale optionally carries one multiplier per inter-zone edge —
	// the identified thermal network. Edges are enumerated X-edges
	// first (between (ix,iy) and (ix+1,iy), row-major), then Y-edges
	// (between (ix,iy) and (ix,iy+1), row-major); NumEdges gives the
	// count. nil means a uniform network (all scales 1).
	UAScale []float64
	// EnvelopeUA is the total conductance to ambient in W/K, shared
	// equally by the perimeter zones.
	EnvelopeUA float64
	// RoofUA is the total roof conductance to ambient in W/K, shared
	// equally by all zones.
	RoofUA float64
	// OccupantHeat is the sensible heat per person in W; occupants
	// spread uniformly over all zones.
	OccupantHeat float64
	// LightingPower is the total lighting + equipment heat in W when
	// lights are on, spread over all zones.
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

// DefaultOfficeConfig returns a tuned 3x3-zone open-plan office floor.
func DefaultOfficeConfig() OfficeConfig {
	return OfficeConfig{
		ZX:                3,
		ZY:                3,
		Depth:             30,
		Width:             20,
		Height:            3,
		ThermalMassFactor: 6,
		InterZoneUA:       300,
		EnvelopeUA:        400,
		RoofUA:            150,
		OccupantHeat:      100,
		LightingPower:     4000,
		InitialTemp:       21,
		OccupantMoisture:  1.5e-5,
		SupplyHumidity:    0.008,
		OccupantCO2:       5.2e-6,
		AmbientCO2:        420,
		MaxStep:           10 * time.Second,
	}
}

// NumEdges returns the inter-zone edge count for the configured grid.
func (c OfficeConfig) NumEdges() int {
	if c.ZX < 1 || c.ZY < 1 {
		return 0
	}
	return (c.ZX-1)*c.ZY + c.ZX*(c.ZY-1)
}

// Validate checks every field against its physical range.
func (c OfficeConfig) Validate() error {
	if c.ZX < 1 || c.ZY < 1 || c.ZX*c.ZY < 2 {
		return fmt.Errorf("building: office zone grid %dx%d must hold at least 2 zones", c.ZX, c.ZY)
	}
	if c.Depth <= 0 || c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("building: office dimensions %vx%vx%v must be positive", c.Depth, c.Width, c.Height)
	}
	if c.ThermalMassFactor < 1 {
		return fmt.Errorf("building: office thermal mass factor %v must be >= 1", c.ThermalMassFactor)
	}
	if c.InterZoneUA <= 0 {
		return fmt.Errorf("building: office inter-zone conductance %v must be positive", c.InterZoneUA)
	}
	if n := len(c.UAScale); n != 0 && n != c.NumEdges() {
		return fmt.Errorf("building: office UA scale has %d entries for %d edges", n, c.NumEdges())
	}
	for i, s := range c.UAScale {
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("building: office UA scale[%d] = %v must be positive", i, s)
		}
	}
	if c.EnvelopeUA < 0 || c.RoofUA < 0 {
		return fmt.Errorf("building: office conductances must be non-negative (envelope %v, roof %v)",
			c.EnvelopeUA, c.RoofUA)
	}
	if c.MaxStep < 0 {
		return fmt.Errorf("building: office max step %v must not be negative", c.MaxStep)
	}
	return nil
}

// Sensors returns the office deployment: one wireless sensor at each
// zone center plus two wired thermostats on the front wall.
func (c OfficeConfig) Sensors() []SensorSpec {
	n := c.ZX * c.ZY
	specs := make([]SensorSpec, 0, n+2)
	dx := c.Depth / float64(c.ZX)
	dy := c.Width / float64(c.ZY)
	id := 1
	for ix := 0; ix < c.ZX; ix++ {
		for iy := 0; iy < c.ZY; iy++ {
			specs = append(specs, SensorSpec{
				ID:  id,
				Pos: Point{X: (float64(ix) + 0.5) * dx, Y: (float64(iy) + 0.5) * dy},
			})
			id++
		}
	}
	specs = append(specs,
		SensorSpec{ID: id, Pos: Point{X: 0.6, Y: c.Width / 3}, Thermostat: true},
		SensorSpec{ID: id + 1, Pos: Point{X: 0.6, Y: 2 * c.Width / 3}, Thermostat: true},
	)
	return specs
}

// Metadata summarizes the office for fleet reports; design occupancy
// follows a 12 m^2-per-person open-plan density.
func (c OfficeConfig) Metadata() Metadata {
	area := c.Depth * c.Width
	return Metadata{
		Archetype:       ArchetypeOffice,
		FloorArea:       area,
		Zones:           c.ZX * c.ZY,
		Sensors:         c.ZX*c.ZY + 2,
		DesignOccupancy: int(math.Round(area / 12)),
	}
}

// office is the multi-zone office as a network: a ZX×ZY zone grid
// whose edges carry the identified per-edge conductances, with
// perimeter envelope and per-zone roof losses to ambient and VAV supply
// fanned into column bands.
type office struct{ cfg OfficeConfig }

// newOffice validates cfg and returns the office at the initial
// uniform state.
func newOffice(cfg OfficeConfig) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	zx, zy, n := cfg.ZX, cfg.ZY, cfg.ZX*cfg.ZY
	// One dynamic supply conductance per zone column.
	s := newSimulator(&office{cfg}, zx, zy, cfg.Depth, cfg.Width, zy, srcFixed, 1)
	s.air = newAir(cfg.Depth*cfg.Width*cfg.Height,
		cfg.OccupantMoisture, cfg.SupplyHumidity, cfg.OccupantCO2, cfg.AmbientCO2)
	s.cellCap = s.air.airMass / float64(n) * cfg.ThermalMassFactor * airCp

	// The identified thermal network: base conductance times the
	// per-edge scale (uniform when UAScale is nil). Edges are numbered
	// X-edges first, then Y-edges, each row-major.
	edge := func(ix, iy, jx, jy int) int32 {
		e := (zx-1)*zy + ix*(zy-1) + min(iy, jy)
		if jx != ix {
			e = min(ix, jx)*zy + iy
		}
		scale := 1.0
		if len(cfg.UAScale) > 0 {
			scale = cfg.UAScale[e]
		}
		return s.fixed(cfg.InterZoneUA * scale)
	}
	env := perimeterShare(cfg.EnvelopeUA, zx, zy)
	s.compile(edge, func(ix, iy int, c *cellClass) int32 {
		if onPerimeter(ix, iy, zx, zy) {
			s.fixedBoundary(c, env, srcAmbient)
		}
		s.fixedBoundary(c, cfg.RoofUA/float64(n), srcAmbient)
		c.boundary(int32(iy), srcSupply)
		return 0
	})
	s.start(cfg.InitialTemp, cfg.MaxStep)
	return s, nil
}

// supply fans the VAV flows over the zone columns: each VAV serves a
// contiguous band of Y columns, and a column's flow splits evenly over
// its zones.
func (o *office) supply(s *Simulator, _ float64, flows []float64) float64 {
	zx, zy := o.cfg.ZX, o.cfg.ZY
	col := s.cond[:zy]
	for iy := range col {
		col[iy] = 0
	}
	var total float64
	for i, f := range flows {
		c := i * zy / len(flows)
		if c >= zy {
			c = zy - 1
		}
		col[c] += f
		total += f
	}
	for iy, f := range col {
		col[iy] = f / float64(zx) * airCp
	}
	return total
}

// fill spreads occupant and lighting heat uniformly over all zones.
func (o *office) fill(s *Simulator, _ float64, in Inputs) {
	n := float64(len(s.temps))
	occHeat := float64(in.Occupants) * o.cfg.OccupantHeat / n
	var lightHeat float64
	if in.LightsOn {
		lightHeat = o.cfg.LightingPower / n
	}
	s.load[0] = occHeat + lightHeat
}
