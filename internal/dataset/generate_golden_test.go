package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/timeseries"
)

var updateGenerateDigests = flag.Bool("update-generate-digests", false,
	"rewrite testdata/generate_sha256.json from the current Generate")

const generateDigestsFile = "testdata/generate_sha256.json"

// generateDigest pins one Generate output: the sha256 of the frame's
// and the ground truth's channel names and IEEE-754 value bits.
type generateDigest struct {
	Frame string `json:"frame_sha256"`
	Truth string `json:"truth_sha256"`
}

// goldenGenerateConfigs are the configurations whose Generate output is
// pinned bit for bit: the auditorium with node failures and backend
// outages, the vision-camera occupancy path, and the office and
// residence archetypes (each with outages and node failures too).
func goldenGenerateConfigs(t *testing.T) map[string]Config {
	t.Helper()
	archetype := func(name string, index int) Config {
		sp, err := building.RandomSpec(name, 1, index)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Days = 4
		cfg.SimStep = time.Minute
		cfg.NumLongOutages = 1
		cfg.NumShortOutages = 2
		cfg.NodeFailureProb = 0.5
		cfg.Spec = &sp
		cfg.Occupancy.Capacity = sp.Metadata().DesignOccupancy
		return cfg
	}
	auditorium := DefaultConfig()
	auditorium.Days = 7
	auditorium.NumLongOutages = 1
	auditorium.NumShortOutages = 3
	auditorium.NodeFailureProb = 0.4

	vision := DefaultConfig()
	vision.Days = 3
	vision.SimStep = 2 * time.Minute
	vision.NumLongOutages = 0
	vision.NumShortOutages = 1
	vision.UseVisionCamera = true

	return map[string]Config{
		"auditorium_7d_node_failures": auditorium,
		"auditorium_vision_camera":    vision,
		"office":                      archetype(building.ArchetypeOffice, 1),
		"residence":                   archetype(building.ArchetypeResidence, 3),
	}
}

func frameSHA256(f *timeseries.Frame) string {
	h := sha256.New()
	var buf [8]byte
	for i, name := range f.Channels {
		h.Write([]byte(name))
		h.Write([]byte{0})
		for _, v := range f.Values[i] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGoldenDigests regenerates each pinned configuration and
// requires the frame and truth to hash to the recorded digests: any
// change to the co-simulation's RNG draw order, arithmetic or
// summation order fails it.
func TestGenerateGoldenDigests(t *testing.T) {
	got := map[string]generateDigest{}
	for name, cfg := range goldenGenerateConfigs(t) {
		d := mustGenerate(t, cfg)
		got[name] = generateDigest{Frame: frameSHA256(d.Frame), Truth: frameSHA256(d.Truth)}
	}
	if *updateGenerateDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(generateDigestsFile), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(generateDigestsFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]generateDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned configurations, %d generated", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest", name)
		case g != w:
			t.Errorf("%s: digests %+v, want %+v", name, g, w)
		}
	}
}

// TestGenerateJoinsSampler checks that Generate leaves no goroutine
// behind: on success, on a configuration rejected before the loop, and
// on a building-step failure inside it (a reheat supply temperature of
// +Inf reaches the building on the first cold occupied morning).
func TestGenerateJoinsSampler(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := smallConfig()
	cfg.Days = 2
	mustGenerate(t, cfg)
	bad := cfg
	bad.NodeFailureProb = 2
	if _, err := Generate(bad); err == nil {
		t.Fatal("NodeFailureProb 2 accepted")
	}
	bad = cfg
	bad.HVAC.HeatSupplyTemp = math.Inf(1)
	_, err := Generate(bad)
	if err == nil || !strings.Contains(err.Error(), "dataset: building step at 2013-01-31 ") ||
		!strings.Contains(err.Error(), "supply temperature +Inf is not finite") {
		t.Fatalf("infinite reheat supply: error %v", err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before Generate, %d after", before, after)
	}
}
