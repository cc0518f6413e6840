package building

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"auditherm/internal/hvac"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the testdata/*_golden.json fixtures from the current simulator")

// goldenFixture pins one archetype's trajectory bit-for-bit. The
// auditorium fixture was captured from the pre-archetype-refactor
// simulator, the office and residence fixtures from their per-node
// kernels before they were compiled onto the shared grid kernel; the
// test failing means the numerics changed. Floats are stored as exact
// IEEE-754 bit patterns so the comparison is exact, not
// tolerance-based.
type goldenFixture struct {
	// Steps is the number of recorded checkpoints.
	Steps int `json:"steps"`
	// SensorTemps[k] holds the probe temperatures at checkpoint k (the
	// archetype's sensors, then any extra probe points), as uint64
	// float bits rendered in hex.
	SensorTemps [][]string `json:"sensor_temps_bits"`
	// MeanTemp, RH, CO2 are per-checkpoint scalars (bit patterns): the
	// zone mean, relative humidity at the first thermostat's position,
	// and the well-mixed CO2.
	MeanTemp []string `json:"mean_temp_bits"`
	RH       []string `json:"rh_bits"`
	CO2      []string `json:"co2_bits"`
}

func bits(v float64) string   { return strconv.FormatUint(math.Float64bits(v), 16) }
func unbits(s string) float64 { u, _ := strconv.ParseUint(s, 16, 64); return math.Float64frombits(u) }

// goldenCase is one archetype's pinned scenario.
type goldenCase struct {
	name string
	spec func() (Spec, error)
	// idleFlow is the per-VAV flow before 08:00; zero runs the plant
	// off for the first two hours.
	idleFlow float64
	// extra probes points beyond the sensor deployment: off the sensor
	// lines and outside the floor plan, where interpolation clamps.
	extra func(depth, width float64) []Point
}

func goldenCases() []goldenCase {
	offPlan := func(depth, width float64) []Point {
		return []Point{
			{X: 0.3 * depth, Y: 0.1 * width},
			{X: 0.7 * depth, Y: 0.85 * width},
			{X: -1, Y: -2},
			{X: depth + 3, Y: width / 2},
			{X: depth / 2, Y: 1.5 * width},
			{X: depth + 1, Y: width + 1},
		}
	}
	return []goldenCase{
		{name: ArchetypeAuditorium, spec: func() (Spec, error) { return DefaultSpec(ArchetypeAuditorium) }, idleFlow: 0.1},
		// A 3x2 office with a non-uniform UAScale network.
		{name: ArchetypeOffice, spec: func() (Spec, error) { return RandomSpec(ArchetypeOffice, 1, 1) }, extra: offPlan},
		// A 5-node residence: an odd chain with a 3-node front half.
		{name: ArchetypeResidence, spec: func() (Spec, error) { return RandomSpec(ArchetypeResidence, 1, 3) }, extra: offPlan},
	}
}

// goldenTrajectory drives one building through a deterministic 12-hour
// scenario — idle flow, then a stepped occupancy and flow profile with
// a diurnal ambient — checkpointing every 30 minutes. The building
// clock starts at midnight, so the residence sees six hours of night
// and six of sun. No randomness anywhere: the trajectory is a pure
// function of the simulator's arithmetic.
func goldenTrajectory(t *testing.T, gc goldenCase, record func(b *Simulator, probes []Point, rh Point)) {
	t.Helper()
	sp, err := gc.spec()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	var probes []Point
	var rh Point
	found := false
	for _, s := range sp.Sensors() {
		probes = append(probes, s.Pos)
		if s.Thermostat && !found {
			rh, found = s.Pos, true
		}
	}
	if gc.extra != nil {
		probes = append(probes, gc.extra(sp.Dims())...)
	}
	const step = 30 * time.Second
	const perCheckpoint = 60 // 30 minutes of 30s steps
	const checkpoints = 24   // 12 hours
	for k := 0; k < checkpoints; k++ {
		for i := 0; i < perCheckpoint; i++ {
			minute := float64(k*perCheckpoint+i) * step.Seconds() / 60
			hour := 6 + minute/60 // scenario runs 06:00-18:00
			occ := 0
			if hour >= 9 && hour < 11 {
				occ = 35
			} else if hour >= 12 && hour < 14 {
				occ = 80
			}
			flow := gc.idleFlow
			if hour >= 8 {
				flow = 0.25 + 0.15*math.Sin(2*math.Pi*minute/180)
				if flow < 0.05 {
					flow = 0.05
				}
			}
			supply := 20.0
			if occ > 0 {
				supply = 14.0
			}
			ambient := 8 + 6*math.Sin(2*math.Pi*(hour-9)/24)
			in := Inputs{
				HVAC: hvac.State{
					Flows:      []float64{flow, flow, flow * 0.8, flow * 1.2},
					SupplyTemp: supply,
				},
				Occupants: occ,
				LightsOn:  occ > 0,
				Ambient:   ambient,
			}
			if err := sim.Step(step, in); err != nil {
				t.Fatal(err)
			}
		}
		record(sim, probes, rh)
	}
}

// TestArchetypeGolden locks every archetype to its recorded
// trajectory, exact to the last float bit.
func TestArchetypeGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) { checkGolden(t, gc) })
	}
}

func checkGolden(t *testing.T, gc goldenCase) {
	path := filepath.Join("testdata", gc.name+"_golden.json")

	var got goldenFixture
	goldenTrajectory(t, gc, func(b *Simulator, probes []Point, rh Point) {
		got.Steps++
		row := make([]string, len(probes))
		for i, p := range probes {
			row[i] = bits(b.TemperatureAt(p))
		}
		got.SensorTemps = append(got.SensorTemps, row)
		got.MeanTemp = append(got.MeanTemp, bits(b.MeanTemp()))
		got.RH = append(got.RH, bits(b.RelativeHumidityAt(rh)))
		got.CO2 = append(got.CO2, bits(b.CO2()))
	})

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(&got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	var want goldenFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.Steps != want.Steps {
		t.Fatalf("checkpoints: got %d, want %d", got.Steps, want.Steps)
	}
	for k := 0; k < want.Steps; k++ {
		if len(got.SensorTemps[k]) != len(want.SensorTemps[k]) {
			t.Fatalf("checkpoint %d: %d probes, want %d", k, len(got.SensorTemps[k]), len(want.SensorTemps[k]))
		}
		for i := range want.SensorTemps[k] {
			if got.SensorTemps[k][i] != want.SensorTemps[k][i] {
				t.Fatalf("checkpoint %d probe %d: got %v (bits %s), want %v (bits %s) — %s numerics changed",
					k, i, unbits(got.SensorTemps[k][i]), got.SensorTemps[k][i],
					unbits(want.SensorTemps[k][i]), want.SensorTemps[k][i], gc.name)
			}
		}
		if got.MeanTemp[k] != want.MeanTemp[k] {
			t.Fatalf("checkpoint %d mean temp: got %v, want %v", k, unbits(got.MeanTemp[k]), unbits(want.MeanTemp[k]))
		}
		if got.RH[k] != want.RH[k] {
			t.Fatalf("checkpoint %d RH: got %v, want %v", k, unbits(got.RH[k]), unbits(want.RH[k]))
		}
		if got.CO2[k] != want.CO2[k] {
			t.Fatalf("checkpoint %d CO2: got %v, want %v", k, unbits(got.CO2[k]), unbits(want.CO2[k]))
		}
	}
}
