package experiments

import (
	"context"
	"fmt"
	"sync"

	"auditherm/internal/artifact"
	"auditherm/internal/dataset"
	"auditherm/internal/pipeline"
)

// Report is the cacheable outcome of one experiment: the rendered text
// block plus the headline metrics it contributes to the run manifest.
// Timing is deliberately excluded so a warm rerun reproduces the cold
// run's stdout byte for byte.
type Report struct {
	ID      string                    `json:"id"`
	Text    string                    `json:"text"`
	Metrics map[string]artifact.Float `json:"metrics,omitempty"`
}

// ReportCodec serializes experiment reports in the artifact store.
var ReportCodec = artifact.JSONCodec[*Report]("experiment-report", 1)

// EnvSource derives at most one Env per process from the engine's
// cached dataset stage. Every experiment report depends on the dataset
// node's content digest, so on a warm run where all reports hit the
// cache, neither the dataset decode nor the Env derivation happens.
type EnvSource struct {
	ds *pipeline.Node[*dataset.Dataset]

	mu   sync.Mutex
	done bool
	env  *Env
	err  error
}

// NewEnvSource registers the dataset simulate stage on the engine and
// wraps it as the lazy environment provider for experiment stages.
func NewEnvSource(e *pipeline.Engine, cfg dataset.Config) *EnvSource {
	return &EnvSource{ds: pipeline.SimulateNamed(e, "simulate", cfg)}
}

// DatasetNode exposes the underlying dataset stage for dependency
// lists of custom experiment nodes.
func (s *EnvSource) DatasetNode() pipeline.AnyNode { return s.ds }

// Env resolves (and memoizes) the experiment environment from the
// dataset stage — generated on a cold run, rehydrated on a warm run.
func (s *EnvSource) Env(ctx context.Context) (*Env, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.done = true
		if d, err := s.ds.Get(ctx); err != nil {
			s.err = err
		} else {
			s.env, s.err = NewEnvFromDataset(d)
		}
	}
	return s.env, s.err
}

// Seed pre-populates the memoized environment with one derived
// earlier for the same dataset configuration, so a caller holding a
// hot Env (the serving daemon's cross-request cache) skips both the
// dataset decode and the derivation. No-op if Env already ran.
func (s *EnvSource) Seed(env *Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.done = true
		s.env = env
	}
}

// Derived returns the environment this source has materialized so far
// (nil when every report stage was served from the cache and the Env
// was never needed). Callers use it to keep the Env hot across runs.
func (s *EnvSource) Derived() *Env {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.env
}

// DefineReport registers an experiment as a pipeline stage. The cache
// key covers the experiment id, any extra knobs and the dataset
// content digest, so changing one experiment's knob invalidates that
// stage alone. run receives the derived Env only on a cache miss.
func DefineReport(e *pipeline.Engine, id string, knobs map[string]string, src *EnvSource,
	run func(env *Env) (fmt.Stringer, map[string]float64, error)) *pipeline.Node[*Report] {
	config := map[string]string{"experiment": id}
	for k, v := range knobs {
		config[k] = v
	}
	return pipeline.Define(e, "exp-"+id, ReportCodec, config,
		[]pipeline.AnyNode{src.DatasetNode()},
		func(ctx context.Context) (*Report, error) {
			env, err := src.Env(ctx)
			if err != nil {
				return nil, err
			}
			res, metrics, err := run(env)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: id, Text: res.String()}
			if len(metrics) > 0 {
				rep.Metrics = make(map[string]artifact.Float, len(metrics))
				for k, v := range metrics {
					rep.Metrics[k] = artifact.Float(v)
				}
			}
			return rep, nil
		})
}

// SummaryReport caches the dataset usable-day header so a warm repro
// run prints it without rederiving the Env.
func SummaryReport(e *pipeline.Engine, src *EnvSource) *pipeline.Node[*Report] {
	return pipeline.Define(e, "exp-summary", ReportCodec,
		map[string]string{"experiment": "summary"},
		[]pipeline.AnyNode{src.DatasetNode()},
		func(ctx context.Context) (*Report, error) {
			env, err := src.Env(ctx)
			if err != nil {
				return nil, err
			}
			occ := len(env.OccTrain) + len(env.OccValid)
			text := fmt.Sprintf("dataset ready: %d usable occupied days (%d train / %d valid)\n",
				occ, len(env.OccTrain), len(env.OccValid))
			return &Report{
				ID:   "summary",
				Text: text,
				Metrics: map[string]artifact.Float{
					"usable_occupied_days": artifact.Float(occ),
				},
			}, nil
		})
}
