package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/fleet"
	"auditherm/internal/par"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// fleetSize is the portfolio size: enough buildings that the cold runs
// are steady and both cores have work.
const fleetSize = 16

// fleetConfig is a mixed portfolio, round-robin over every archetype,
// with 4 trace days and 1 control day per building. The portfolio is
// fleet seed 1's: the buildings another fleet seed draws cost very
// different amounts to identify (the sysid fits of seeds 1 to 5 took
// 2.8 s to 11.9 s at one worker), which would swamp any change being
// measured. The benchmark seed sets the comfort setpoint instead, so
// every seed changes the control stage and the report.
func fleetConfig(seed int64) fleet.Config {
	c := fleet.DefaultConfig()
	c.N = fleetSize
	c.Seed = 1
	c.Days = 4
	c.ControlDays = 1
	c.Setpoint = 21 + float64((seed-1)%21)/10
	return c
}

// fleetRun is one resolution of the fleet report.
type fleetRun struct {
	wall    time.Duration
	report  []byte
	rep     *fleet.Report
	results []pipeline.Result
	counts  counters
}

// runFleetOnce runs the portfolio on a fresh engine over store at the
// given worker count, counting each building as one operation.
func (b *bench) runFleetOnce(ctx context.Context, store artifact.Backend, workers int, kind string) (*fleetRun, error) {
	par.SetDefaultWorkers(workers)
	runtime.GC()
	before := readCounters()
	t0 := time.Now()
	eng, err := pipeline.New(pipeline.Options{Backend: store, Workers: workers})
	if err != nil {
		return nil, err
	}
	rep, err := fleet.Run(ctx, eng, fleetConfig(b.seed))
	r := &fleetRun{wall: time.Since(t0), rep: rep, results: eng.Results()}
	r.counts = readCounters().since(before)
	b.countBuildings(kind, r.results, err)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := fleet.ReportCodec.Encode(&buf, rep); err != nil {
		return nil, err
	}
	r.report = buf.Bytes()
	return r, eng.Close()
}

// countBuildings records one operation per portfolio member: a member
// whose summary stage did not resolve failed.
func (b *bench) countBuildings(kind string, results []pipeline.Result, err error) {
	done := map[string]bool{}
	for _, r := range results {
		if strings.HasSuffix(r.Stage, "/summary") {
			done[r.Stage] = true
		}
	}
	for i := 0; i < fleetSize; i++ {
		var e error
		if !done[fmt.Sprintf("b%04d/summary", i)] {
			e = fmt.Errorf("building b%04d: %v", i, err)
		}
		b.op(kind, e)
	}
}

// fleetPhases are one unit's runs; serial is nil when the unit skips
// the 1-worker run.
type fleetPhases struct {
	serial, parallel *fleetRun
	warm             []*fleetRun
}

// serialEvery is how often a unit includes the 1-worker cold run. It
// only feeds fleet_par_speedup, so the other units spend the time on
// more samples of the nproc-worker cold run.
const serialEvery = 3

// fleetUnit runs the portfolio cold at nproc workers into an empty
// store (and, every serialEvery units, at 1 worker into another), then
// warm on fresh engines over the nproc store, and checks the reports
// agree byte for byte.
func (b *bench) fleetUnit(ctx context.Context, i int) (*fleetPhases, error) {
	serialDir := filepath.Join(b.work, fmt.Sprintf("fleet-%d-serial", i))
	parDir := filepath.Join(b.work, fmt.Sprintf("fleet-%d-par", i))
	defer os.RemoveAll(serialDir)
	defer os.RemoveAll(parDir)
	run := func(dir string, workers int, kind string) (*fleetRun, error) {
		st, err := artifact.Open(dir)
		if err != nil {
			return nil, err
		}
		r, err := b.runFleetOnce(ctx, st, workers, kind)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		return r, nil
	}
	var p fleetPhases
	var err error
	if i%serialEvery == 0 {
		if p.serial, err = run(serialDir, 1, "building.cold1"); err != nil {
			return nil, err
		}
	}
	if p.parallel, err = run(parDir, b.nproc, "building.coldN"); err != nil {
		return nil, err
	}
	if p.serial != nil {
		b.check(bytes.Equal(p.serial.report, p.parallel.report), "fleet: report at %d workers differs from 1 worker", b.nproc)
		b.checkRepeat(fmt.Sprintf("fleet 1 vs %d workers", b.nproc), p.serial.counts, p.parallel.counts)
	}
	for r := 0; r < warmReps; r++ {
		w, err := run(parDir, b.nproc, "building.warm")
		if err != nil {
			return nil, err
		}
		b.check(bytes.Equal(p.parallel.report, w.report), "fleet: warm report differs from cold")
		for _, res := range w.results {
			b.check(res.CacheHit, "fleet: warm stage %s was not a cache hit", res.Stage)
		}
		p.warm = append(p.warm, w)
	}
	return &p, nil
}

// fleetSetup plans the portfolio, opens an empty store at dir and
// defines every member's stages and the report on an engine over it.
func (b *bench) fleetSetup(dir string) (io.Closer, error) {
	cfg := fleetConfig(b.seed)
	members, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.New(pipeline.Options{Backend: st, Workers: b.nproc})
	if err != nil {
		st.Close()
		return nil, err
	}
	nodes := make([]*pipeline.Node[*fleet.BuildingResult], len(members))
	for i, m := range members {
		nodes[i] = fleet.BuildingStage(eng, cfg, m)
	}
	fleet.ReportStage(eng, cfg, nodes)
	return st, nil
}

func runFleet(b *bench) error {
	ctx := context.Background()
	setups := &setupTimer{b: b, setup: b.fleetSetup}
	if err := setups.sample(setupWarmups, setupBatches); err != nil {
		return err
	}

	var serial, parallel, warm []float64
	var first *fleetPhases
	unit := func(i int) error {
		p, err := b.fleetUnit(ctx, i)
		if err != nil {
			return err
		}
		var ws []float64
		for _, w := range p.warm {
			ws = append(ws, w.wall.Seconds())
		}
		fmt.Printf("unit %d cold%d=%.3fs warm=%.4fs\n", i, b.nproc, p.parallel.wall.Seconds(), median(ws))
		if p.serial != nil {
			fmt.Printf("unit %d cold1=%.3fs\n", i, p.serial.wall.Seconds())
			serial = append(serial, p.serial.wall.Seconds())
		}
		parallel = append(parallel, p.parallel.wall.Seconds())
		warm = append(warm, median(ws))
		if first == nil {
			first = p
		} else {
			b.check(bytes.Equal(first.parallel.report, p.parallel.report), "fleet: report differs between repeats at one seed")
			b.checkRepeat("fleet cold", first.parallel.counts, p.parallel.counts)
		}
		return setups.sample(0, setupBatches)
	}
	if b.traced {
		if err := unit(0); err != nil {
			return err
		}
		return b.fleetTraced(ctx, first)
	}
	n, err := b.repeat(2, unit)
	if err != nil {
		return err
	}
	coldN, cold1, warmS := median(parallel), median(serial), median(warm)
	var rmse []float64
	for _, br := range first.parallel.rep.Buildings {
		rmse = append(rmse, float64(br.ModelRMSE))
	}
	b.e2e["setup_s"] = median(setups.perSetup)
	b.e2e["cold_s"] = coldN
	b.e2e["warm_s"] = warmS
	note := fmt.Sprintf("%d buildings, median of %d runs", fleetSize, n)
	b.record("fleet_cold_bldg_per_s", fleetSize/coldN, "1/s", fmt.Sprintf("%s at %d workers", note, b.nproc))
	b.record("fleet_par_speedup", cold1/coldN, "ratio", fmt.Sprintf("cold %d workers vs 1, %d and %d runs", b.nproc, len(parallel), len(serial)))
	b.record("fleet_warm_bldg_per_s", fleetSize/warmS, "1/s", note)
	b.record("fleet_rmse_p50_degc", median(rmse), "degC", "median member model RMSE")
	return nil
}

// memberStages mirrors fleet.BuildingStage with the public pipeline
// constructors. The identify, cluster and select settings, the
// evaluation horizon and the summary stage are private to fleet, so
// they are copied here; the traced run's digest check against
// fleet.Run proves the copy equal.
type memberStages struct {
	id       string
	simulate *pipeline.Node[*dataset.Dataset]
	frame    *pipeline.Node[*timeseries.Frame]
	model    *pipeline.Node[*artifact.SavedModel]
	eval     *pipeline.Node[*pipeline.EvalArtifact]
	clusters *pipeline.Node[*artifact.ClusterArtifact]
	sel      *pipeline.Node[*artifact.SelectionArtifact]
	ctl      *pipeline.Node[*pipeline.ControlSummary]
	summary  *pipeline.Node[*fleet.BuildingResult]
}

func mirrorMember(eng *pipeline.Engine, cfg fleet.Config, m fleet.Member) *memberStages {
	id := m.ID
	icfg := pipeline.IdentifyConfig{
		Order:      sysid.SecondOrder,
		Mode:       dataset.Occupied,
		OnHour:     6,
		OffHour:    21,
		MaxMissing: 0.25,
	}
	k := len(m.Spec.Sensors()) - 2
	switch {
	case len(m.Spec.Sensors()) >= 12:
		k = 4
	case k < 2:
		k = 2
	case k > 3:
		k = 3
	}
	s := &memberStages{id: id}
	s.simulate = pipeline.SimulateNamed(eng, id+"/simulate", cfg.DatasetConfig(m))
	s.frame = pipeline.DatasetFrameNamed(eng, id+"/frame", s.simulate)
	frame := s.frame
	s.model = pipeline.IdentifyNamed(eng, id+"/sysid", frame, icfg)
	s.eval = pipeline.EvaluateNamed(eng, id+"/evaluate", frame, s.model, icfg, 2*time.Hour)
	s.clusters = pipeline.ClusterSensorsNamed(eng, id+"/cluster", frame, pipeline.ClusterConfig{
		Metric: cluster.Correlation,
		K:      k,
		OnHour: 6, OffHour: 21,
		Seed: 11, TrainHalf: true,
	})
	s.sel = pipeline.SelectRepresentativesNamed(eng, id+"/select", frame, s.clusters, pipeline.SelectConfig{
		OnHour: 6, OffHour: 21,
		Seeds: 3, GPMode: "fast",
	})
	s.ctl = pipeline.ControlRunNamed(eng, id+"/control", cfg.ControlConfig(m), nil)
	s.summary = pipeline.Define(eng, id+"/summary", fleet.BuildingCodec,
		map[string]string{"member": fmt.Sprintf("%d/%s/%s", m.Index, m.ID, m.Spec.Archetype)},
		[]pipeline.AnyNode{s.eval, s.clusters, s.sel, s.ctl},
		func(ctx context.Context) (*fleet.BuildingResult, error) {
			ev, err := s.eval.Get(ctx)
			if err != nil {
				return nil, err
			}
			ca, err := s.clusters.Get(ctx)
			if err != nil {
				return nil, err
			}
			if _, err := s.sel.Get(ctx); err != nil {
				return nil, err
			}
			cs, err := s.ctl.Get(ctx)
			if err != nil {
				return nil, err
			}
			rmse, err := ev.RMSPercentile(50)
			if err != nil {
				return nil, fmt.Errorf("%s model RMS: %w", id, err)
			}
			return &fleet.BuildingResult{
				Index:                 m.Index,
				ID:                    m.ID,
				Archetype:             m.Spec.Archetype,
				Metadata:              m.Spec.Metadata(),
				ModelRMSE:             artifact.Float(rmse),
				SpectralRadius:        ev.SpectralRadius,
				Clusters:              ca.K,
				ComfortRMS:            cs.ComfortRMS,
				ComfortViolationHours: cs.ComfortViolationHours,
				OccupiedHours:         cs.OccupiedHours,
				CoolingKWh:            cs.CoolingKWh,
			}, nil
		})
	return s
}

// resolveMember gets one member's stages one at a time in dependency
// order, each inside its own span, so each span holds one layer's work
// and the store calls that layer made. The identified model's spectral
// radius is timed on its own and must match the evaluation's.
func (b *bench) resolveMember(ctx context.Context, rec *recorder, s *memberStages) error {
	get := func(stage string, fn func() error) error {
		id := rec.begin("stage." + stage)
		err := fn()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", s.id, stage, err)
		}
		return nil
	}
	var model *artifact.SavedModel
	var ev *pipeline.EvalArtifact
	steps := []struct {
		stage string
		fn    func() error
	}{
		{"simulate", func() error { _, err := s.simulate.Get(ctx); return err }},
		{"frame", func() error { _, err := s.frame.Get(ctx); return err }},
		{"sysid", func() (err error) { model, err = s.model.Get(ctx); return err }},
		{"evaluate", func() (err error) { ev, err = s.eval.Get(ctx); return err }},
		{"cluster", func() error { _, err := s.clusters.Get(ctx); return err }},
		{"select", func() error { _, err := s.sel.Get(ctx); return err }},
		{"control", func() error { _, err := s.ctl.Get(ctx); return err }},
		{"summary", func() error { _, err := s.summary.Get(ctx); return err }},
	}
	for _, st := range steps {
		if err := get(st.stage, st.fn); err != nil {
			return err
		}
	}
	id := rec.begin(spanSpectral)
	rho, err := model.Model.SpectralRadius()
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s spectral radius: %w", s.id, err)
	}
	b.check(rho == float64(ev.SpectralRadius) || (math.IsNaN(rho) && math.IsNaN(float64(ev.SpectralRadius))),
		"fleet: %s spectral radius %v, evaluation recorded %v", s.id, rho, float64(ev.SpectralRadius))
	return nil
}

// fleetTraced resolves the portfolio at one worker with every stage in
// its own span and the store behind the timing wrapper, then re-runs it
// warm, and derives the per-layer metrics. untraced is the same
// invocation's untraced unit: its digests and counts must match.
func (b *bench) fleetTraced(ctx context.Context, untraced *fleetPhases) error {
	rec := newRecorder()
	bytesSeen := &storeBytes{}
	dir := filepath.Join(b.work, "fleet-traced")
	defer os.RemoveAll(dir)
	cfg := fleetConfig(b.seed)
	members, err := cfg.Plan()
	if err != nil {
		return err
	}
	par.SetDefaultWorkers(1)
	runtime.GC()
	before := readCounters()

	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	eng, err := pipeline.New(pipeline.Options{Backend: wrapBackend(st, rec, bytesSeen), Workers: 1})
	if err != nil {
		return err
	}
	summaries := make([]*pipeline.Node[*fleet.BuildingResult], len(members))
	var runErr error
	for i, m := range members {
		s := mirrorMember(eng, cfg, m)
		summaries[i] = s.summary
		if runErr = b.resolveMember(ctx, rec, s); runErr != nil {
			break
		}
	}
	var rep *fleet.Report
	if runErr == nil {
		id := rec.begin("stage.report")
		rep, runErr = fleet.ReportStage(eng, cfg, summaries).Get(ctx)
		rec.end(id)
	}
	cold := time.Since(t0)
	coldCounts := readCounters().since(before)
	results := eng.Results()
	b.countBuildings("building.traced", results, runErr)
	if cerr := st.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return fmt.Errorf("traced cold: %w", runErr)
	}
	var buf bytes.Buffer
	if err := fleet.ReportCodec.Encode(&buf, rep); err != nil {
		return err
	}
	b.check(bytes.Equal(buf.Bytes(), untraced.serial.report), "fleet: traced report differs from untraced")
	b.checkDigests("fleet", untraced.serial.results, results)
	b.checkRepeat("fleet traced vs untraced", untraced.serial.counts, coldCounts)

	// Warm: key derivation, Stat and lazy decode on a fresh engine.
	st, err = artifact.Open(dir)
	if err != nil {
		return err
	}
	t1 := time.Now()
	id := rec.begin("pipeline.warm")
	weng, err := pipeline.New(pipeline.Options{Backend: wrapBackend(st, rec, bytesSeen), Workers: 1})
	if err == nil {
		_, err = fleet.Run(ctx, weng, cfg)
		b.countBuildings("building.traced_warm", weng.Results(), err)
	}
	rec.end(id)
	warm := time.Since(t1)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("traced warm: %w", err)
	}
	for _, r := range weng.Results() {
		b.check(r.CacheHit, "fleet: traced warm stage %s was not a cache hit", r.Stage)
	}

	b.setLayers(readCounters().since(before), rec.done(), bytesSeen)
	// The traced run is serial, so the pool's work comes from the
	// untraced run at nproc workers.
	pc := untraced.parallel.counts
	b.layer["par.tasks"] = pc["auditherm_par_tasks_total"]
	b.layer["par.worker_busy_s"] = pc["auditherm_par_worker_busy_seconds_sum"]
	b.layer["par.utilization"] = pc["auditherm_par_worker_busy_seconds_sum"] / (untraced.parallel.wall.Seconds() * float64(b.nproc))
	b.layer["pipeline.warm_resolve_s"] = warm.Seconds()
	b.layer["obs.trace_overhead"] = cold.Seconds() / untraced.serial.wall.Seconds()
	return nil
}
