package experiments

import (
	"fmt"
	"strings"

	"auditherm/internal/dataset"
	"auditherm/internal/estimate"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// VirtualSensingResult is the estimation extension study: after the
// paper's pipeline removes all but the selected sensors, how well can
// the discarded locations be reconstructed in real time?
type VirtualSensingResult struct {
	// ObservedSensors are the kept sensor IDs.
	ObservedSensors []int
	// KalmanRMS, HoldRMS and OpenLoopRMS are the pooled RMS errors
	// (degC) of the unobserved sensors' estimates on validation data:
	// Kalman filter on the identified model, cluster-representative
	// hold (each removed sensor estimated by its cluster's kept
	// sensor), and open-loop model simulation.
	KalmanRMS, HoldRMS, OpenLoopRMS float64
	// Windows and Steps count the evaluated spans.
	Windows, Steps int
}

// warmupSteps are skipped before scoring so the filter forgets its
// prior.
const warmupSteps = 8

// VirtualSensing runs the Kalman-filter reconstruction study.
func VirtualSensing(e *Env) (*VirtualSensingResult, error) {
	model, err := e.fitMode(dataset.Occupied, sysid.SecondOrder)
	if err != nil {
		return nil, err
	}
	sc, err := e.newSelectionContext(2)
	if err != nil {
		return nil, err
	}
	smsSel, err := e.smsSelection(sc)
	if err != nil {
		return nil, err
	}
	reps := flattenReps(smsSel)
	res := &VirtualSensingResult{}
	for _, r := range reps {
		res.ObservedSensors = append(res.ObservedSensors, e.SensorID(r))
	}
	// Map each sensor to its cluster's representative for the hold
	// baseline.
	repOf := make(map[int]int)
	for c, members := range sc.membersGlobal {
		for _, mrow := range members {
			repOf[mrow] = reps[c]
		}
	}
	for _, tr := range e.ThermoIdx {
		repOf[tr] = reps[0]
	}

	validWins := e.ValidWindows(dataset.Occupied)
	mask := e.Valid
	observed := map[int]bool{}
	for _, r := range reps {
		observed[r] = true
	}
	var kfErrs, holdErrs, openErrs []float64
	p := e.Temps.Rows()
	for _, w := range validWins {
		run := longestValidRun(mask, w)
		if run.Len() < warmupSteps+4 {
			continue
		}
		start := run.Start
		filter, err := estimate.NewFilter(estimate.Config{
			Model:        model,
			ObservedRows: reps,
			ProcessVar:   0.01,
			MeasureVar:   0.25, // the paper's +-0.5 degC accuracy
		}, e.Temps.Col(start), 4)
		if err != nil {
			return nil, err
		}
		open := e.Temps.Col(start)
		openPrev := e.Temps.Col(start)
		for k := start; k+1 < run.End; k++ {
			u := e.Inputs.Col(k)
			z := make([]float64, len(reps))
			for i, r := range reps {
				z[i] = e.Temps.At(r, k+1)
			}
			if err := filter.Step(u, z); err != nil {
				return nil, err
			}
			dt := make([]float64, p)
			for i := range dt {
				dt[i] = open[i] - openPrev[i]
			}
			next, err := model.Predict(open, dt, u)
			if err != nil {
				return nil, err
			}
			openPrev, open = open, next

			if k-start < warmupSteps {
				continue
			}
			est := filter.Estimate()
			for i := 0; i < p; i++ {
				if observed[i] {
					continue
				}
				truth := e.Temps.At(i, k+1)
				kfErrs = append(kfErrs, est[i]-truth)
				holdErrs = append(holdErrs, e.Temps.At(repOf[i], k+1)-truth)
				openErrs = append(openErrs, open[i]-truth)
			}
			res.Steps++
		}
		res.Windows++
	}
	if res.Windows == 0 {
		return nil, fmt.Errorf("experiments: no evaluable virtual-sensing windows: %w",
			sysid.ErrInsufficientData)
	}
	res.KalmanRMS = stats.RMS(kfErrs)
	res.HoldRMS = stats.RMS(holdErrs)
	res.OpenLoopRMS = stats.RMS(openErrs)
	return res, nil
}

// longestValidRun returns the longest contiguous valid run inside a
// window.
func longestValidRun(mask []bool, w timeseries.Segment) timeseries.Segment {
	var best timeseries.Segment
	for _, s := range timeseries.Segments(mask[w.Start:w.End]) {
		if s.Len() > best.Len() {
			best = timeseries.Segment{Start: w.Start + s.Start, End: w.Start + s.End}
		}
	}
	return best
}

// String renders the study.
func (r *VirtualSensingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Virtual sensing: reconstruct 25 removed sensors from %v (%d windows, %d steps)\n",
		r.ObservedSensors, r.Windows, r.Steps)
	fmt.Fprintf(&b, "%-28s %s\n", "method", "RMS (degC)")
	fmt.Fprintf(&b, "%-28s %.3f\n", "Kalman filter (model+2 obs)", r.KalmanRMS)
	fmt.Fprintf(&b, "%-28s %.3f\n", "cluster representative hold", r.HoldRMS)
	fmt.Fprintf(&b, "%-28s %.3f\n", "open-loop model", r.OpenLoopRMS)
	return b.String()
}
