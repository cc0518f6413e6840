package dataset

import (
	"math"
	"testing"
	"time"

	"auditherm/internal/timeseries"
)

func TestClassifyChannels(t *testing.T) {
	sensors, inputs, err := ClassifyChannels([]string{
		"s3", "s41", "vav2", "vav10", "vav1", "vav12", "occ", "light", "ambient", "supply", "co2", "rh3", "vavx", "junk",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 2 || sensors[0] != "s3" || sensors[1] != "s41" {
		t.Errorf("sensors = %v", sensors)
	}
	// VAVs sorted numerically, then occ/light/ambient; rh/co2/supply,
	// vavx and junk ignored.
	want := []string{"vav1", "vav2", "vav10", "vav12", "occ", "light", "ambient"}
	if len(inputs) != len(want) {
		t.Fatalf("inputs = %v", inputs)
	}
	for i := range want {
		if inputs[i] != want[i] {
			t.Errorf("inputs[%d] = %s, want %s", i, inputs[i], want[i])
		}
	}
}

func TestClassifyChannelsErrors(t *testing.T) {
	if _, _, err := ClassifyChannels([]string{"vav1", "occ", "light", "ambient"}); err == nil {
		t.Error("no sensors accepted")
	}
	if _, _, err := ClassifyChannels([]string{"s1", "occ", "light", "ambient"}); err == nil {
		t.Error("missing VAVs accepted")
	}
	if _, _, err := ClassifyChannels([]string{"s1", "vav1", "light", "ambient"}); err == nil {
		t.Error("missing occupancy accepted")
	}
	// "s" alone and "sx" are not sensor channels.
	if sensors, _, err := ClassifyChannels([]string{"s", "sx", "s2", "vav1", "occ", "light", "ambient"}); err != nil {
		t.Fatal(err)
	} else if len(sensors) != 1 || sensors[0] != "s2" {
		t.Errorf("sensors = %v, want [s2]", sensors)
	}
}

func TestFrameMatrices(t *testing.T) {
	g, err := timeseries.NewGrid(
		time.Date(2013, time.February, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2013, time.February, 1, 1, 0, 0, 0, time.UTC),
		15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := timeseries.NewFrame(g, []string{"s1", "vav1", "occ", "light", "ambient"})
	for _, ch := range f.Channels {
		if err := f.SetChannel(ch, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	temps, inputs, sensors, err := FrameMatrices(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 1 || temps.Rows() != 1 || inputs.Rows() != 4 {
		t.Fatalf("shapes: %d sensors, %dx temps, %dx inputs", len(sensors), temps.Rows(), inputs.Rows())
	}
	if temps.At(0, 2) != 3 || inputs.At(3, 1) != 2 {
		t.Error("values misplaced")
	}
}

func TestGridModeWindows(t *testing.T) {
	g, err := timeseries.NewGrid(
		time.Date(2013, time.February, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2013, time.February, 3, 12, 0, 0, 0, time.UTC), // 2.5 days
		15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	occ := GridModeWindows(g, Occupied, 6, 21)
	if len(occ) != 3 {
		t.Fatalf("occupied windows = %d, want 3", len(occ))
	}
	if occ[0].Start != 24 || occ[0].End != 84 {
		t.Errorf("first window = %+v", occ[0])
	}
	// Third day clips at the grid end (12:00 = step 2*96+48).
	if occ[2].End != g.N {
		t.Errorf("last window end = %d, want %d", occ[2].End, g.N)
	}
	un := GridModeWindows(g, Unoccupied, 6, 21)
	if len(un) == 0 || un[0].Start != 84 {
		t.Errorf("unoccupied windows = %+v", un)
	}
}

func TestUsableWindowsAndSplit(t *testing.T) {
	valid := make([]bool, 10)
	for k := range valid {
		valid[k] = true
	}
	valid[3] = false
	wins := []timeseries.Segment{{Start: 0, End: 5}, {Start: 5, End: 10}, {Start: 10, End: 10}}
	// Window 1 misses 1 of 5 (20% > 10%); window 2 is clean; window 3
	// is empty.
	usable := UsableWindows(valid, wins, 0.1)
	if len(usable) != 1 || usable[0].Start != 5 {
		t.Errorf("usable = %+v", usable)
	}
	usable = UsableWindows(valid, wins, 0.25)
	if len(usable) != 2 {
		t.Errorf("relaxed usable = %+v", usable)
	}
	train, validWins := SplitWindows(usable)
	if len(train) != 1 || len(validWins) != 1 {
		t.Errorf("split = %d/%d", len(train), len(validWins))
	}

	// A sensor stuck at +Inf counts as missing, exactly as it does for
	// sysid.Fit: one day whose first occupied hour reads +Inf (4 of 60
	// steps, 6.7%) stays usable, one whose first three hours do (12 of
	// 60, 20%) does not.
	g, err := timeseries.NewGrid(
		time.Date(2013, time.February, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2013, time.February, 3, 0, 0, 0, 0, time.UTC),
		15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := timeseries.NewFrame(g, []string{"s1", "s2", "vav1", "occ", "light", "ambient"})
	for _, ch := range f.Channels {
		vals := make([]float64, g.N)
		for k := range vals {
			vals[k] = 20
		}
		if ch == "s2" {
			for k := 24; k < 28; k++ {
				vals[k] = math.Inf(1)
			}
			for k := 96 + 24; k < 96+36; k++ {
				vals[k] = math.Inf(1)
			}
		}
		if err := f.SetChannel(ch, vals); err != nil {
			t.Fatal(err)
		}
	}
	md, err := NewModelData(f)
	if err != nil {
		t.Fatal(err)
	}
	occ := GridModeWindows(g, Occupied, 6, 21)
	usable = UsableWindows(md.Valid, occ, 0.1)
	if len(usable) != 1 || usable[0] != occ[0] {
		t.Errorf("usable with +Inf = %+v, want only %+v", usable, occ[0])
	}
}

func TestSplitWindowsDoesNotAlias(t *testing.T) {
	wins := []timeseries.Segment{{Start: 0, End: 1}, {Start: 1, End: 2}, {Start: 2, End: 3}, {Start: 3, End: 4}}
	train, valid := SplitWindows(wins)
	want := valid[0]
	train = append(train, timeseries.Segment{Start: 9, End: 10})
	if valid[0] != want {
		t.Errorf("appending to train rewrote valid[0]: %+v, want %+v", valid[0], want)
	}
	if len(train) != 3 || train[2].Start != 9 {
		t.Errorf("train = %+v", train)
	}
}
