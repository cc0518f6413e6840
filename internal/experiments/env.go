// Package experiments reproduces every table and figure of the paper's
// evaluation on the simulated auditorium dataset: model identification
// quality (Table I, Figs. 3-5), the spatial snapshot (Fig. 2), sensor
// clustering (Figs. 6-8) and sensor selection / model simplification
// (Table II, Figs. 9-11).
//
// Each experiment is a pure function of an Env, the generated dataset
// plus its derived matrices and train/validation window split. Shared()
// caches one default Env per process because dataset generation costs
// a few seconds.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"auditherm/internal/dataset"
	"auditherm/internal/mat"
	"auditherm/internal/par"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// MaxMissingFraction is the per-window missing-data budget above which
// a day's mode window is discarded, mirroring the paper's exclusion of
// failure days.
const MaxMissingFraction = 0.1

// CorrelationSharpness is the correlation-kernel exponent used by the
// clustering experiments; see cluster.SimilarityOptions.
const CorrelationSharpness = 8

// Env bundles a generated dataset with everything the experiments
// derive from it.
type Env struct {
	// Dataset is the generated trace.
	Dataset *dataset.Dataset
	// ModelData holds the frame's 27 temperature rows (Temps, in
	// Dataset.Sensors order), its 7 model inputs (Inputs) and the
	// valid-step mask (Valid).
	*dataset.ModelData
	// WirelessIdx and ThermoIdx are row indices into Temps.
	WirelessIdx, ThermoIdx []int
	// Train/validation windows per mode: the usable mode windows split
	// in time order (dataset.ModelData.Split).
	OccTrain, OccValid     []timeseries.Segment
	UnoccTrain, UnoccValid []timeseries.Segment

	// fits memoizes fitMode per (mode, order).
	fitsMu sync.Mutex
	fits   map[modeFit]*fitOnce
}

type modeFit struct {
	mode  dataset.Mode
	order sysid.Order
}

type fitOnce struct {
	once  sync.Once
	model *sysid.Model
	err   error
}

// NewEnv generates a dataset and derives the experiment inputs.
func NewEnv(cfg dataset.Config) (*Env, error) {
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating dataset: %w", err)
	}
	return NewEnvFromDataset(d)
}

// NewEnvFromDataset derives the experiment inputs from an existing
// dataset — freshly generated or rehydrated from the artifact store;
// both yield the same matrices, splits and downstream results.
func NewEnvFromDataset(d *dataset.Dataset) (*Env, error) {
	md, err := dataset.NewModelData(d.Frame)
	if err != nil {
		return nil, err
	}
	env := &Env{Dataset: d, ModelData: md, fits: make(map[modeFit]*fitOnce)}
	for i, sp := range d.Sensors {
		if sp.Thermostat {
			env.ThermoIdx = append(env.ThermoIdx, i)
		} else {
			env.WirelessIdx = append(env.WirelessIdx, i)
		}
	}
	on, off := d.Config.HVAC.OnHour, d.Config.HVAC.OffHour
	env.OccTrain, env.OccValid = md.Split(dataset.Occupied, on, off, MaxMissingFraction)
	env.UnoccTrain, env.UnoccValid = md.Split(dataset.Unoccupied, on, off, MaxMissingFraction)
	if len(env.OccTrain) == 0 || len(env.OccValid) == 0 {
		return nil, fmt.Errorf("experiments: no usable occupied days in trace")
	}
	return env, nil
}

var (
	sharedOnce sync.Once
	sharedEnv  *Env
	sharedErr  error
)

// Shared returns a process-wide Env over the default (paper-scale)
// dataset configuration.
func Shared() (*Env, error) {
	sharedOnce.Do(func() {
		sharedEnv, sharedErr = NewEnv(dataset.DefaultConfig())
	})
	return sharedEnv, sharedErr
}

// TrainWindows returns the mode's training windows.
func (e *Env) TrainWindows(mode dataset.Mode) []timeseries.Segment {
	if mode == dataset.Unoccupied {
		return e.UnoccTrain
	}
	return e.OccTrain
}

// ValidWindows returns the mode's validation windows.
func (e *Env) ValidWindows(mode dataset.Mode) []timeseries.Segment {
	if mode == dataset.Unoccupied {
		return e.UnoccValid
	}
	return e.OccValid
}

// fanOut runs fn for every index in [0, n) on the process default
// worker count and returns each index's result and error. Callers fold
// them in the serial loop's order, so sums keep their summation order
// and the error returned is the one that loop would have hit first.
func fanOut[T any](n int, fn func(i int) (T, error)) ([]T, []error) {
	type result struct {
		v   T
		err error
	}
	rs, _ := par.Map(context.Background(), 0, n, func(i int) (result, error) {
		v, err := fn(i)
		return result{v, err}, nil
	})
	vs, errs := make([]T, n), make([]error, n)
	for i, r := range rs {
		vs[i], errs[i] = r.v, r.err
	}
	return vs, errs
}

// HorizonSteps converts a wall-clock horizon to grid steps.
func (e *Env) HorizonSteps(d time.Duration) int {
	return int(d / e.Dataset.Config.GridStep)
}

// PaperHorizon is the paper's 13.5-hour prediction window.
const PaperHorizon = 13*time.Hour + 30*time.Minute

// WirelessTrainTraces collects the wireless sensors' gap-free training
// columns (occupied mode): the matrix the clustering experiments run
// on. Row order follows WirelessIdx.
func (e *Env) WirelessTrainTraces() *mat.Dense {
	all := dataset.CollectValid(e.Temps, e.Valid, e.OccTrain)
	cols := make([]int, all.Cols())
	for i := range cols {
		cols[i] = i
	}
	return all.SubMatrix(e.WirelessIdx, cols)
}

// AllValidTraces collects every sensor's gap-free columns over the
// given windows (all 27 rows, global indices preserved).
func (e *Env) AllValidTraces(windows []timeseries.Segment) *mat.Dense {
	return dataset.CollectValid(e.Temps, e.Valid, windows)
}

// GlobalWireless maps wireless-local cluster member indices to global
// sensor row indices.
func (e *Env) GlobalWireless(members [][]int) [][]int {
	out := make([][]int, len(members))
	for c, ms := range members {
		for _, i := range ms {
			out[c] = append(out[c], e.WirelessIdx[i])
		}
	}
	return out
}

// SensorID returns the paper's sensor number of a global row index.
func (e *Env) SensorID(row int) int { return e.Dataset.Sensors[row].ID }
