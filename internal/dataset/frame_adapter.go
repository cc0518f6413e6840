package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"auditherm/internal/mat"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// ClassifyChannels splits a frame's channel names into temperature
// sensors and model inputs by the dataset naming convention: sensors
// are "s<N>", inputs are "vav<N>" (sorted numerically) followed by
// occupancy, light and ambient. Unknown channels (e.g. "supply") are
// ignored.
func ClassifyChannels(channels []string) (sensors, inputs []string, err error) {
	var vavs []string
	var hasOcc, hasLight, hasAmbient bool
	for _, c := range channels {
		switch {
		case strings.HasPrefix(c, "s") && isDigits(c[1:]):
			sensors = append(sensors, c)
		case strings.HasPrefix(c, "vav") && isDigits(c[3:]):
			vavs = append(vavs, c)
		case c == ChannelOccupancy:
			hasOcc = true
		case c == ChannelLight:
			hasLight = true
		case c == ChannelAmbient:
			hasAmbient = true
		}
	}
	if len(sensors) == 0 {
		return nil, nil, fmt.Errorf("dataset: no sensor channels (s<N>) found")
	}
	if len(vavs) == 0 || !hasOcc || !hasLight || !hasAmbient {
		return nil, nil, fmt.Errorf("dataset: missing input channels (need vav<N>, occ, light, ambient)")
	}
	sort.Slice(vavs, func(i, j int) bool {
		ni, _ := strconv.Atoi(vavs[i][3:])
		nj, _ := strconv.Atoi(vavs[j][3:])
		if ni != nj {
			return ni < nj
		}
		return vavs[i] < vavs[j]
	})
	inputs = append(vavs, ChannelOccupancy, ChannelLight, ChannelAmbient)
	return sensors, inputs, nil
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// FrameMatrices builds the temperature and input matrices of a frame
// using ClassifyChannels.
func FrameMatrices(f *timeseries.Frame) (temps, inputs *mat.Dense, sensors []string, err error) {
	sensors, inputNames, err := ClassifyChannels(f.Channels)
	if err != nil {
		return nil, nil, nil, err
	}
	temps = mat.NewDense(len(sensors), f.Grid.N)
	for i, name := range sensors {
		vals, err := f.Channel(name)
		if err != nil {
			return nil, nil, nil, err
		}
		temps.SetRow(i, vals)
	}
	inputs = mat.NewDense(len(inputNames), f.Grid.N)
	for i, name := range inputNames {
		vals, err := f.Channel(name)
		if err != nil {
			return nil, nil, nil, err
		}
		inputs.SetRow(i, vals)
	}
	return temps, inputs, sensors, nil
}

// ModelData is a frame in the form the thermal models consume: the
// temperature and input matrices, the names of the temperature rows and
// the one valid-step mask that every split and collection reads.
type ModelData struct {
	sysid.Data
	// Sensors names the rows of Temps.
	Sensors []string
	// Grid is the frame's time grid.
	Grid timeseries.Grid
	// Valid marks the steps where every temperature and every input is
	// finite (sysid.Data.ValidMask, the rule sysid.Fit applies to its
	// equations); a step with any NaN or ±Inf is missing.
	Valid []bool
}

// NewModelData builds the model view of a frame.
func NewModelData(f *timeseries.Frame) (*ModelData, error) {
	temps, inputs, sensors, err := FrameMatrices(f)
	if err != nil {
		return nil, err
	}
	data := sysid.Data{Temps: temps, Inputs: inputs}
	valid, err := data.ValidMask()
	if err != nil {
		return nil, err
	}
	return &ModelData{Data: data, Sensors: sensors, Grid: f.Grid, Valid: valid}, nil
}

// Split is the train/validation rule of every model identification:
// keep the mode windows that are missing on at most maxMissing of their
// steps, and split them into halves in time order (the first half
// trains). The paper keeps 64 of its 98 days this way and splits them
// 32/32.
func (m *ModelData) Split(mode Mode, onHour, offHour int, maxMissing float64) (train, valid []timeseries.Segment) {
	wins := GridModeWindows(m.Grid, mode, onHour, offHour)
	return SplitWindows(UsableWindows(m.Valid, wins, maxMissing))
}

// GridModeWindows returns the per-day windows of the given mode across
// a whole grid, using the HVAC schedule hours. The unoccupied window of
// day i spans the off hour of day i to the on hour of day i+1; the last
// window clips at the grid end. An unknown mode has no windows.
func GridModeWindows(g timeseries.Grid, mode Mode, onHour, offHour int) []timeseries.Segment {
	spd := int(24 * time.Hour / g.Step)
	days := g.N / spd
	if g.N%spd != 0 {
		days++
	}
	onStep := onHour * spd / 24
	offStep := offHour * spd / 24
	var out []timeseries.Segment
	for day := 0; day < days; day++ {
		var seg timeseries.Segment
		switch mode {
		case Occupied:
			seg = timeseries.Segment{Start: day*spd + onStep, End: day*spd + offStep}
		case Unoccupied:
			seg = timeseries.Segment{Start: day*spd + offStep, End: (day+1)*spd + onStep}
		default:
			return nil
		}
		if seg.Start >= g.N {
			break
		}
		if seg.End > g.N {
			seg.End = g.N
		}
		out = append(out, seg)
	}
	return out
}

// UsableWindows keeps the non-empty windows whose fraction of invalid
// steps (valid[k] false) is at most maxMissing.
func UsableWindows(valid []bool, wins []timeseries.Segment, maxMissing float64) []timeseries.Segment {
	var out []timeseries.Segment
	for _, w := range wins {
		if w.Len() == 0 {
			continue
		}
		missing := 0
		for _, ok := range valid[w.Start:w.End] {
			if !ok {
				missing++
			}
		}
		if float64(missing)/float64(w.Len()) <= maxMissing {
			out = append(out, w)
		}
	}
	return out
}

// SplitWindows divides windows into train and validation halves in
// order. The train half is capped at its length, so appending to it
// never overwrites the validation half.
func SplitWindows(wins []timeseries.Segment) (train, valid []timeseries.Segment) {
	half := len(wins) / 2
	return wins[:half:half], wins[half:]
}
