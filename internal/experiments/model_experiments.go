package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/dataset"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// fitMode identifies a model of the given order on the mode's training
// windows. Each (mode, order) is fitted once per Env and shared by every
// report and concurrent caller that asks for it; callers must not
// modify the returned model.
func (e *Env) fitMode(mode dataset.Mode, order sysid.Order) (*sysid.Model, error) {
	key := modeFit{mode, order}
	e.fitsMu.Lock()
	f, ok := e.fits[key]
	if !ok {
		f = &fitOnce{}
		e.fits[key] = f
	}
	e.fitsMu.Unlock()
	f.once.Do(func() {
		f.model, f.err = sysid.Fit(e.Data, e.TrainWindows(mode), order, sysid.DefaultOptions())
		if f.err != nil {
			f.err = fmt.Errorf("experiments: fitting %v %v model: %w", mode, order, f.err)
		}
	})
	return f.model, f.err
}

// evalMode evaluates a model on the mode's validation windows.
func (e *Env) evalMode(m *sysid.Model, mode dataset.Mode, horizon int) (*sysid.EvalResult, error) {
	return sysid.Evaluate(m, e.Data, e.ValidWindows(mode), horizon)
}

// TableIResult reproduces Table I: the 90th-percentile per-sensor RMS
// prediction error for first/second-order models in both modes.
type TableIResult struct {
	// RMS90 is indexed [mode][order-1]: modes Occupied, Unoccupied.
	RMS90 [2][2]float64
}

// TableI runs the paper's Table I experiment: its four mode × order
// fits run concurrently.
func TableI(e *Env) (*TableIResult, error) {
	horizon := e.HorizonSteps(PaperHorizon)
	modes := []dataset.Mode{dataset.Occupied, dataset.Unoccupied}
	orders := []sysid.Order{sysid.FirstOrder, sysid.SecondOrder}
	p90s, errs := fanOut(len(modes)*len(orders), func(i int) (float64, error) {
		mode := modes[i/len(orders)]
		m, err := e.fitMode(mode, orders[i%len(orders)])
		if err != nil {
			return 0, err
		}
		ev, err := e.evalMode(m, mode, horizon)
		if err != nil {
			return 0, err
		}
		return ev.RMSPercentile(90)
	})
	res := &TableIResult{}
	for i, p90 := range p90s {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.RMS90[i/len(orders)][i%len(orders)] = p90
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *TableIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: RMS of prediction error (degC) at 90th percentile\n")
	fmt.Fprintf(&b, "%-12s %-10s %-10s\n", "mode", "first", "second")
	fmt.Fprintf(&b, "%-12s %-10.2f %-10.2f\n", "occupied", r.RMS90[0][0], r.RMS90[0][1])
	fmt.Fprintf(&b, "%-12s %-10.2f %-10.2f\n", "unoccupied", r.RMS90[1][0], r.RMS90[1][1])
	return b.String()
}

// Figure2Result reproduces Fig. 2: the spatial temperature snapshot of
// the occupied seminar (Friday March 22, 2013 12:30 in the paper).
type Figure2Result struct {
	Time    time.Time
	Sensors []Figure2Sensor
	// Min, Max bound the color scale.
	Min, Max float64
	// Spread is Max - Min, the paper's ~2 degC argument.
	Spread float64
}

// Figure2Sensor is one sensor's snapshot reading.
type Figure2Sensor struct {
	ID         int
	Pos        building.Point
	Temp       float64
	Thermostat bool
}

// Figure2 extracts the seminar snapshot.
func Figure2(e *Env) (*Figure2Result, error) {
	at := time.Date(2013, time.March, 22, 12, 30, 0, 0, time.UTC)
	k, ok := e.Dataset.Frame.Grid.Index(at)
	if !ok {
		// Trace configured differently: fall back to the step with the
		// highest occupancy.
		occ, err := e.Dataset.Frame.Channel(dataset.ChannelOccupancy)
		if err != nil {
			return nil, err
		}
		best := 0.0
		for i, v := range occ {
			if !math.IsNaN(v) && v > best {
				best, k = v, i
			}
		}
	}
	res := &Figure2Result{Time: e.Dataset.Frame.Grid.Time(k), Min: math.Inf(1), Max: math.Inf(-1)}
	for i, sp := range e.Dataset.Sensors {
		v := e.Temps.At(i, k)
		if math.IsNaN(v) {
			continue
		}
		res.Sensors = append(res.Sensors, Figure2Sensor{ID: sp.ID, Pos: sp.Pos, Temp: v, Thermostat: sp.Thermostat})
		if v < res.Min {
			res.Min = v
		}
		if v > res.Max {
			res.Max = v
		}
	}
	if len(res.Sensors) == 0 {
		return nil, fmt.Errorf("experiments: no sensor readings at snapshot %v", res.Time)
	}
	res.Spread = res.Max - res.Min
	return res, nil
}

// String renders the snapshot as a sensor table.
func (r *Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: snapshot at %v (spread %.2f degC)\n", r.Time.Format("2006-01-02 15:04"), r.Spread)
	fmt.Fprintf(&b, "%-6s %-8s %-8s %-8s %s\n", "sensor", "x(m)", "y(m)", "temp", "kind")
	for _, s := range r.Sensors {
		kind := "wireless"
		if s.Thermostat {
			kind = "thermostat"
		}
		fmt.Fprintf(&b, "s%-5d %-8.1f %-8.1f %-8.2f %s\n", s.ID, s.Pos.X, s.Pos.Y, s.Temp, kind)
	}
	return b.String()
}

// Figure3Result reproduces Fig. 3: the CDF of per-sensor RMS
// prediction error for both model orders in occupied mode.
type Figure3Result struct {
	// FirstRMS and SecondRMS hold one RMS per sensor.
	FirstRMS, SecondRMS []float64
	// CDF evaluation points (x) and values for each model.
	FirstX, FirstF   []float64
	SecondX, SecondF []float64
}

// Figure3 runs the per-sensor RMS CDF experiment.
func Figure3(e *Env) (*Figure3Result, error) {
	horizon := e.HorizonSteps(PaperHorizon)
	res := &Figure3Result{}
	for _, order := range []sysid.Order{sysid.FirstOrder, sysid.SecondOrder} {
		m, err := e.fitMode(dataset.Occupied, order)
		if err != nil {
			return nil, err
		}
		ev, err := e.evalMode(m, dataset.Occupied, horizon)
		if err != nil {
			return nil, err
		}
		var rms []float64
		for _, v := range ev.PerSensorRMS {
			if !math.IsNaN(v) {
				rms = append(rms, v)
			}
		}
		ecdf, err := stats.NewECDF(rms)
		if err != nil {
			return nil, err
		}
		xs, fs := ecdf.Points()
		if order == sysid.FirstOrder {
			res.FirstRMS, res.FirstX, res.FirstF = rms, xs, fs
		} else {
			res.SecondRMS, res.SecondX, res.SecondF = rms, xs, fs
		}
	}
	return res, nil
}

// String renders both CDFs as x/F pairs.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: per-sensor RMS CDF (occupied, 13.5 h horizon)\n")
	fmt.Fprintf(&b, "first-order:  ")
	for i := range r.FirstX {
		fmt.Fprintf(&b, "(%.2f,%.2f) ", r.FirstX[i], r.FirstF[i])
	}
	fmt.Fprintf(&b, "\nsecond-order: ")
	for i := range r.SecondX {
		fmt.Fprintf(&b, "(%.2f,%.2f) ", r.SecondX[i], r.SecondF[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// Figure4Result reproduces Fig. 4: measured vs predicted temperature
// trace of one sensor over one validation day.
type Figure4Result struct {
	SensorID int
	Times    []time.Time
	Measured []float64
	First    []float64
	Second   []float64
}

// Figure4 predicts sensor 1's trace on the first validation day.
func Figure4(e *Env) (*Figure4Result, error) {
	// Global row of sensor 1.
	row := -1
	for i, sp := range e.Dataset.Sensors {
		if sp.ID == 1 {
			row = i
			break
		}
	}
	if row < 0 {
		return nil, fmt.Errorf("experiments: sensor 1 missing from layout")
	}
	win := e.OccValid[0]
	res := &Figure4Result{SensorID: 1}
	data := e.Data
	var lastStep int
	for _, order := range []sysid.Order{sysid.FirstOrder, sysid.SecondOrder} {
		m, err := e.fitMode(dataset.Occupied, order)
		if err != nil {
			return nil, err
		}
		pred, meas, first, err := sysid.PredictWindow(m, data, win)
		if err != nil {
			return nil, err
		}
		if order == sysid.FirstOrder {
			res.First = pred.Row(row)
		} else {
			res.Second = pred.Row(row)
		}
		res.Measured = meas.Row(row)
		lastStep = first + pred.Cols()
	}
	// The orders consume different initial-condition steps; both end at
	// the run end, so align on the common suffix.
	n := len(res.First)
	if len(res.Second) < n {
		n = len(res.Second)
	}
	if len(res.Measured) < n {
		n = len(res.Measured)
	}
	res.First = res.First[len(res.First)-n:]
	res.Second = res.Second[len(res.Second)-n:]
	res.Measured = res.Measured[len(res.Measured)-n:]
	res.Times = make([]time.Time, n)
	for k := 0; k < n; k++ {
		res.Times[k] = e.Dataset.Frame.Grid.Time(lastStep - n + k)
	}
	return res, nil
}

// String renders the day trace.
func (r *Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: sensor %d measured vs predicted (one validation day)\n", r.SensorID)
	fmt.Fprintf(&b, "%-8s %-9s %-9s %-9s\n", "time", "measured", "first", "second")
	for k := range r.Times {
		fmt.Fprintf(&b, "%-8s %-9.2f %-9.2f %-9.2f\n",
			r.Times[k].Format("15:04"), r.Measured[k], r.First[k], r.Second[k])
	}
	return b.String()
}

// Figure5Result reproduces Fig. 5: prediction error vs training
// horizon (top) and vs prediction length (bottom).
type Figure5Result struct {
	TrainDays      []int
	TrainRMS90     [2][]float64 // [order-1][i]
	PredictHours   []float64
	PredictRMS90   [2][]float64
	ValidationDays int
}

// Figure5 sweeps training horizon and prediction length. The
// training-horizon fits run concurrently.
func Figure5(e *Env) (*Figure5Result, error) {
	res := &Figure5Result{
		TrainDays:    []int{13, 27, 34, 44, 58},
		PredictHours: []float64{2.5, 5, 7.5, 10, 13.5},
	}
	all := slices.Concat(e.OccTrain, e.OccValid)
	// Validate the training sweep on one held-out day: the last usable
	// day. Each horizon trains on the nd most recent days before it,
	// which is how an online deployment would use a growing history.
	validWin := all[len(all)-1]
	history := all[:len(all)-1]
	data := e.Data
	horizon := e.HorizonSteps(PaperHorizon)
	res.ValidationDays = 1
	orders := []sysid.Order{sysid.FirstOrder, sysid.SecondOrder}
	nTrain := len(res.TrainDays)
	trainP90, trainErrs := fanOut(len(orders)*nTrain, func(i int) (float64, error) {
		nd := min(res.TrainDays[i%nTrain], len(history))
		m, err := sysid.Fit(data, history[len(history)-nd:], orders[i/nTrain], sysid.DefaultOptions())
		if err != nil {
			return 0, err
		}
		ev, err := sysid.Evaluate(m, data, []timeseries.Segment{validWin}, horizon)
		if err != nil {
			return 0, err
		}
		return ev.RMSPercentile(90)
	})
	for oi, order := range orders {
		for i := oi * nTrain; i < (oi+1)*nTrain; i++ {
			if trainErrs[i] != nil {
				return nil, trainErrs[i]
			}
			res.TrainRMS90[oi] = append(res.TrainRMS90[oi], trainP90[i])
		}
		// Prediction-length sweep on the standard split.
		m, err := e.fitMode(dataset.Occupied, order)
		if err != nil {
			return nil, err
		}
		for _, hrs := range res.PredictHours {
			h := e.HorizonSteps(time.Duration(hrs * float64(time.Hour)))
			ev, err := e.evalMode(m, dataset.Occupied, h)
			if err != nil {
				return nil, err
			}
			p90, err := ev.RMSPercentile(90)
			if err != nil {
				return nil, err
			}
			res.PredictRMS90[oi] = append(res.PredictRMS90[oi], p90)
		}
	}
	return res, nil
}

// String renders both sweeps.
func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 (top): RMS (90th pct) vs training horizon\n")
	fmt.Fprintf(&b, "%-12s", "train days")
	for _, d := range r.TrainDays {
		fmt.Fprintf(&b, "%-8d", d)
	}
	fmt.Fprintf(&b, "\n%-12s", "first")
	for _, v := range r.TrainRMS90[0] {
		fmt.Fprintf(&b, "%-8.2f", v)
	}
	fmt.Fprintf(&b, "\n%-12s", "second")
	for _, v := range r.TrainRMS90[1] {
		fmt.Fprintf(&b, "%-8.2f", v)
	}
	b.WriteString("\nFigure 5 (bottom): RMS (90th pct) vs prediction length\n")
	fmt.Fprintf(&b, "%-12s", "hours")
	for _, h := range r.PredictHours {
		fmt.Fprintf(&b, "%-8.1f", h)
	}
	fmt.Fprintf(&b, "\n%-12s", "first")
	for _, v := range r.PredictRMS90[0] {
		fmt.Fprintf(&b, "%-8.2f", v)
	}
	fmt.Fprintf(&b, "\n%-12s", "second")
	for _, v := range r.PredictRMS90[1] {
		fmt.Fprintf(&b, "%-8.2f", v)
	}
	b.WriteByte('\n')
	return b.String()
}
