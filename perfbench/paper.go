package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/dataset"
	"auditherm/internal/experiments"
	"auditherm/internal/par"
	"auditherm/internal/pipeline"
)

// paperControlDays sizes the control study as cmd/repro does by
// default.
const paperControlDays = 7

// paperDataset is the default 98-day auditorium trace; seed 1 is the
// paper's own dataset.
func paperDataset(seed int64) dataset.Config {
	cfg := dataset.DefaultConfig()
	redrawWeatherAndAudience(&cfg, seed)
	return cfg
}

// redrawWeatherAndAudience makes the seed's inputs: seed 1 keeps the
// paper's weather, occupancy and camera streams, other seeds redraw
// them. The sensor network's outage and failure plan stays the
// paper's, so every seed keeps the readings the reports rely on.
func redrawWeatherAndAudience(cfg *dataset.Config, seed int64) {
	cfg.Weather.Seed += seed - 1
	cfg.Occupancy.Seed += seed - 1
	cfg.Camera.Seed += seed - 1
}

// paperRun is one serial resolution of the whole catalog.
type paperRun struct {
	wall    time.Duration
	stdout  []byte
	results []pipeline.Result
	rms     float64 // table1_occupied_rms90_order2
	counts  counters
}

// resolvePaper defines the catalog on a fresh engine over store and
// gets the dataset summary and every report in print order, as
// cmd/repro does, rendering repro's stdout. With a recorder, each Get
// runs inside a span and fits holds each report's sysid fit count.
func (b *bench) resolvePaper(ctx context.Context, store artifact.Backend, kind string, rec *recorder, fits map[string]float64) (*paperRun, error) {
	before := readCounters()
	t0 := time.Now()
	eng, err := pipeline.New(pipeline.Options{Backend: store, Workers: b.nproc})
	if err != nil {
		return nil, err
	}
	src := experiments.NewEnvSource(eng, paperDataset(b.seed))
	summary := experiments.SummaryReport(eng, src)
	catalog := experiments.Catalog(eng, src, paperControlDays)

	// Warm spans get their own names so the cold reports' self times
	// stay separate.
	prefix := ""
	if kind == "report.warm" {
		prefix = "warm."
	}
	var out bytes.Buffer
	id := rec.begin(prefix + "dataset")
	sum, err := summary.Get(ctx)
	rec.end(id)
	b.op(kind, err)
	if err != nil {
		return nil, fmt.Errorf("summary: %w", err)
	}
	fmt.Fprintf(&out, "%s\n", sum.Text)
	run := &paperRun{}
	for _, ex := range catalog {
		var c0 counters
		if fits != nil {
			c0 = readCounters()
		}
		id := rec.begin(prefix + "experiments." + ex.ID)
		rep, err := ex.Node.Get(ctx)
		rec.end(id)
		b.op(kind, err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.ID, err)
		}
		if fits != nil {
			fits[ex.ID] = readCounters().since(c0)["auditherm_sysid_fits_total"]
		}
		fmt.Fprintf(&out, "== %s ==\n%s\n", ex.ID, rep.Text)
		if v, ok := rep.Metrics["table1_occupied_rms90_order2"]; ok {
			run.rms = float64(v)
		}
	}
	run.wall = time.Since(t0)
	run.stdout = out.Bytes()
	run.results = eng.Results()
	run.counts = readCounters().since(before)
	return run, eng.Close()
}

// warmReps is how many warm runs follow each cold run; the unit
// reports their median. A warm run takes milliseconds, so many of them
// cost little and steady the median.
const warmReps = 25

// paperUnit runs the catalog cold into an empty store, then warm on
// fresh engines over the reopened store (once when traced), and checks
// every warm run against the cold one.
func (b *bench) paperUnit(ctx context.Context, dir string, rec *recorder, fits map[string]float64) (cold *paperRun, warm []*paperRun, store *storeBytes, err error) {
	defer os.RemoveAll(dir)
	store = &storeBytes{}
	resolve := func(kind string, fits map[string]float64) (*paperRun, error) {
		st, err := artifact.Open(dir)
		if err != nil {
			return nil, err
		}
		var backend artifact.Backend = st
		if rec != nil {
			backend = wrapBackend(st, rec, store)
		}
		r, err := b.resolvePaper(ctx, backend, kind, rec, fits)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		return r, nil
	}
	runtime.GC()
	if cold, err = resolve("report.cold", fits); err != nil {
		return nil, nil, nil, err
	}
	reps := warmReps
	if rec != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		w, err := resolve("report.warm", nil)
		if err != nil {
			return nil, nil, nil, err
		}
		b.check(bytes.Equal(cold.stdout, w.stdout), "paper: warm stdout differs from cold")
		for _, r := range w.results {
			b.check(r.CacheHit, "paper: warm stage %s was not a cache hit", r.Stage)
		}
		warm = append(warm, w)
	}
	return cold, warm, store, nil
}

// walls returns the runs' wall times.
func walls(runs []*paperRun) []time.Duration {
	out := make([]time.Duration, len(runs))
	for i, r := range runs {
		out[i] = r.wall
	}
	return out
}

// paperSetup opens an empty store at dir and defines the catalog on an
// engine over it: everything a cold run does before its first Get.
func (b *bench) paperSetup(dir string) (io.Closer, error) {
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.New(pipeline.Options{Backend: st, Workers: b.nproc})
	if err != nil {
		st.Close()
		return nil, err
	}
	src := experiments.NewEnvSource(eng, paperDataset(b.seed))
	experiments.SummaryReport(eng, src)
	experiments.Catalog(eng, src, paperControlDays)
	return st, nil
}

func runPaper(b *bench) error {
	ctx := context.Background()
	par.SetDefaultWorkers(b.nproc)
	setups := &setupTimer{b: b, setup: b.paperSetup}
	if err := setups.sample(setupWarmups, setupBatches); err != nil {
		return err
	}

	var colds, warms []float64
	var first *paperRun
	unit := func(i int) error {
		cold, warm, _, err := b.paperUnit(ctx, filepath.Join(b.work, fmt.Sprintf("paper-%d", i)), nil, nil)
		if err != nil {
			return err
		}
		w := median(seconds(walls(warm)))
		fmt.Printf("unit %d cold=%.3fs warm=%.4fs\n", i, cold.wall.Seconds(), w)
		colds = append(colds, cold.wall.Seconds())
		warms = append(warms, w)
		if first == nil {
			first = cold
		} else {
			b.check(bytes.Equal(first.stdout, cold.stdout), "paper: cold stdout differs between repeats at one seed")
			b.checkRepeat("paper cold", first.counts, cold.counts)
		}
		return setups.sample(0, setupBatches)
	}
	if b.traced {
		if err := unit(0); err != nil {
			return err
		}
		return b.paperTraced(ctx, first)
	}
	n, err := b.repeat(2, unit)
	if err != nil {
		return err
	}
	b.e2e["setup_s"] = median(setups.perSetup)
	b.e2e["cold_s"] = median(colds)
	b.e2e["warm_s"] = median(warms)
	b.record("repro_cold_s", b.e2e["cold_s"], "s", fmt.Sprintf("median of %d cold runs", n))
	b.record("repro_warm_s", b.e2e["warm_s"], "s", fmt.Sprintf("median over %d units of %d warm runs each", n, warmReps))
	b.record("repro_rms90_occ2_degc", first.rms, "degC", "table1_occupied_rms90_order2")
	return nil
}

// paperTraced reruns the paper unit with a span around every report
// Get and the timing wrapper around the store, and derives the
// per-layer metrics from it.
func (b *bench) paperTraced(ctx context.Context, untraced *paperRun) error {
	rec := newRecorder()
	fits := map[string]float64{}
	before := readCounters()
	cold, warm, store, err := b.paperUnit(ctx, filepath.Join(b.work, "paper-traced"), rec, fits)
	if err != nil {
		return err
	}
	d := readCounters().since(before)
	b.setLayers(d, rec.done(), store)
	for id, n := range fits {
		b.layer["experiments."+id+"_fits"] = n
	}
	b.layer["pipeline.warm_resolve_s"] = warm[0].wall.Seconds()
	b.layer["par.utilization"] = d["auditherm_par_worker_busy_seconds_sum"] / ((cold.wall + warm[0].wall).Seconds() * float64(b.nproc))
	b.layer["obs.trace_overhead"] = cold.wall.Seconds() / untraced.wall.Seconds()
	b.checkDigests("paper", untraced.results, cold.results)
	b.checkRepeat("paper traced vs untraced", untraced.counts, cold.counts)
	return nil
}

// checkDigests requires every stage of the traced run to produce the
// same artifact digest as the untraced run.
func (b *bench) checkDigests(what string, untraced, traced []pipeline.Result) {
	want := make(map[string]artifact.Digest, len(untraced))
	for _, r := range untraced {
		want[r.Stage] = r.Digest
	}
	b.check(len(traced) == len(untraced), "%s: traced run resolved %d stages, untraced %d", what, len(traced), len(untraced))
	for _, r := range traced {
		w, ok := want[r.Stage]
		b.check(ok && w == r.Digest, "%s: traced stage %s digest %s, untraced %s", what, r.Stage, r.Digest.Short(), w.Short())
	}
}
