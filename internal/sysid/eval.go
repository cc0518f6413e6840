package sysid

import (
	"fmt"
	"math"

	"auditherm/internal/mat"
	"auditherm/internal/stats"
	"auditherm/internal/timeseries"
)

// EvalResult summarizes free-run prediction accuracy over a set of
// evaluation windows.
type EvalResult struct {
	// PerSensorRMS is the RMS prediction error of each sensor across
	// all evaluated steps (NaN for a sensor with no evaluated steps).
	PerSensorRMS []float64
	// Residuals collects the signed per-step errors of each sensor.
	Residuals [][]float64
	// Windows counts the windows that contributed predictions.
	Windows int
	// Steps counts the total predicted steps.
	Steps int
}

// RMSPercentile returns the q-th percentile of the per-sensor RMS
// distribution, the statistic the paper's Table I reports.
func (r *EvalResult) RMSPercentile(q float64) (float64, error) {
	vals := make([]float64, 0, len(r.PerSensorRMS))
	for _, v := range r.PerSensorRMS {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return stats.Percentile(vals, q)
}

// Evaluate free-runs the model over each window and accumulates
// prediction residuals against the measurements.
//
// For each window the longest contiguous valid run is used: the model
// starts from the measured state at the run start (plus the previous
// step for second order) and predicts up to horizon steps (the whole
// run when horizon <= 0), feeding back its own outputs while reading
// the measured inputs. This matches the paper's evaluation, which
// predicts 13.5-hour occupied windows from the morning state.
func Evaluate(m *Model, d Data, windows []timeseries.Segment, horizon int) (*EvalResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	p := d.NumSensors()
	if p != m.NumSensors() {
		return nil, fmt.Errorf("sysid: model has %d sensors, data %d", m.NumSensors(), p)
	}
	if d.NumInputs() != m.NumInputs() {
		return nil, fmt.Errorf("sysid: model has %d inputs, data %d", m.NumInputs(), d.NumInputs())
	}
	// Validity is computed per window, over the steps it covers only;
	// the empty range still rejects data without channels.
	if _, err := d.validMaskRange(0, 0); err != nil {
		return nil, err
	}
	n := d.Temps.Cols()
	evaluationsTotal.Inc()
	res := &EvalResult{
		PerSensorRMS: make([]float64, p),
		Residuals:    make([][]float64, p),
	}
	need := int(m.Order) + 1 // steps consumed by initial conditions + 1 prediction
	for _, w := range windows {
		if w.Start < 0 || w.End > n || w.Start > w.End {
			return nil, fmt.Errorf("sysid: window %+v outside %d-step data", w, n)
		}
		mask, err := d.validMaskRange(w.Start, w.End)
		if err != nil {
			return nil, err
		}
		run := longestRun(mask)
		if run.Len() < need {
			continue
		}
		start := w.Start + run.Start
		end := w.Start + run.End
		k0 := start // index of T(0)
		var prev []float64
		if m.Order == SecondOrder {
			k0++
			prev = d.Temps.Col(k0 - 1)
		}
		h := end - k0 - 1
		if horizon > 0 && h > horizon {
			h = horizon
		}
		if h <= 0 {
			continue
		}
		inputs := d.Inputs.Slice(0, d.NumInputs(), k0, k0+h)
		pred, err := m.Simulate(d.Temps.Col(k0), prev, inputs)
		if err != nil {
			return nil, err
		}
		for i := 0; i < p; i++ {
			for k := 0; k < h; k++ {
				meas := d.Temps.At(i, k0+1+k)
				res.Residuals[i] = append(res.Residuals[i], pred.At(i, k)-meas)
			}
		}
		res.Windows++
		res.Steps += h
	}
	if res.Windows == 0 {
		return nil, fmt.Errorf("sysid: no evaluable windows: %w", ErrInsufficientData)
	}
	for i := 0; i < p; i++ {
		res.PerSensorRMS[i] = stats.RMS(res.Residuals[i])
	}
	return res, nil
}

// longestRun returns the longest run of true values.
func longestRun(mask []bool) timeseries.Segment {
	var best timeseries.Segment
	for _, s := range timeseries.Segments(mask) {
		if s.Len() > best.Len() {
			best = s
		}
	}
	return best
}

// PredictWindow free-runs the model over the longest valid run of one
// window and returns the predicted and measured trajectories (both
// p x H) plus the grid index of the first predicted step. It is the
// building block for trace plots like the paper's Fig. 4.
func PredictWindow(m *Model, d Data, w timeseries.Segment) (pred, meas *mat.Dense, firstStep int, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, 0, err
	}
	// Validity is computed over the window's steps only; the empty
	// range still rejects data without channels.
	if _, err := d.validMaskRange(0, 0); err != nil {
		return nil, nil, 0, err
	}
	if n := d.Temps.Cols(); w.Start < 0 || w.End > n || w.Start > w.End {
		return nil, nil, 0, fmt.Errorf("sysid: window %+v outside %d-step data", w, n)
	}
	mask, err := d.validMaskRange(w.Start, w.End)
	if err != nil {
		return nil, nil, 0, err
	}
	run := longestRun(mask)
	need := int(m.Order) + 1
	if run.Len() < need {
		return nil, nil, 0, fmt.Errorf("sysid: window %+v has no run of %d valid steps: %w", w, need, ErrInsufficientData)
	}
	start := w.Start + run.Start
	end := w.Start + run.End
	k0 := start
	var prev []float64
	if m.Order == SecondOrder {
		k0++
		prev = d.Temps.Col(k0 - 1)
	}
	h := end - k0 - 1
	inputs := d.Inputs.Slice(0, d.NumInputs(), k0, k0+h)
	pred, err = m.Simulate(d.Temps.Col(k0), prev, inputs)
	if err != nil {
		return nil, nil, 0, err
	}
	meas = d.Temps.Slice(0, d.NumSensors(), k0+1, k0+1+h)
	return pred, meas, k0 + 1, nil
}
