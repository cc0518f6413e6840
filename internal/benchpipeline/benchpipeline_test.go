// Package benchpipeline records the pipeline-engine cache benchmark
// into BENCH_pipeline.json at the repository root. It is a test
// package only: run via
//
//	make bench-pipeline
//
// (equivalently: go test ./internal/benchpipeline -run
// RecordPipelineBench -record-pipeline-bench). It runs the paper DAG
// (simulate -> frame -> sysid -> evaluate, frame -> cluster -> select)
// cold against an empty artifact store, then warm with a fresh engine
// over the same store, and enforces two gates before writing the
// file: every warm stage must be a cache hit with a bit-identical
// artifact digest, and the warm end-to-end run must be at least 5x
// faster than the cold one.
package benchpipeline

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/pipeline"
	"auditherm/internal/sysid"
)

var recordPipelineBench = flag.Bool("record-pipeline-bench", false,
	"measure the cold/warm pipeline runs and write BENCH_pipeline.json at the repo root")

// minWarmSpeedup is the gate: a warm rerun of the full DAG must beat
// the cold run by at least this factor or the file is not written.
const minWarmSpeedup = 5.0

type stageRow struct {
	Stage      string `json:"stage"`
	ColdWallMS int64  `json:"cold_wall_ms"`
	WarmWallMS int64  `json:"warm_wall_ms"`
	Bytes      int64  `json:"bytes"`
	Digest     string `json:"digest"`
}

type benchFile struct {
	Generated     string     `json:"generated"`
	GoVersion     string     `json:"go_version"`
	NumCPU        int        `json:"num_cpu"`
	Note          string     `json:"note"`
	Reproduce     string     `json:"reproduce"`
	ColdWallMS    int64      `json:"cold_wall_ms"`
	WarmWallMS    int64      `json:"warm_wall_ms"`
	Speedup       float64    `json:"warm_speedup"`
	BitIdentical  bool       `json:"warm_digests_bit_identical"`
	AllWarmHits   bool       `json:"warm_all_cache_hits"`
	Stages        []stageRow `json:"stages"`
	ArtifactBytes int64      `json:"artifact_bytes_total"`
}

func benchConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	return cfg
}

// runDAG builds and resolves the paper DAG over the given cache dir,
// returning per-stage results and the end-to-end wall time.
func runDAG(ctx context.Context, cacheDir string) (map[string]pipeline.Result, time.Duration, error) {
	cfg := benchConfig()
	e, err := pipeline.New(pipeline.Options{CacheDir: cacheDir})
	if err != nil {
		return nil, 0, err
	}
	idCfg := pipeline.IdentifyConfig{
		Order: sysid.SecondOrder, Mode: dataset.Occupied,
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		MaxMissing: 0.5,
	}
	t0 := time.Now()
	ds := pipeline.SimulateNamed(e, "simulate", cfg)
	frame := pipeline.DatasetFrameNamed(e, "frame", ds)
	model := pipeline.IdentifyNamed(e, "sysid", frame, idCfg)
	eval := pipeline.EvaluateNamed(e, "evaluate", frame, model, idCfg, 4*time.Hour)
	clusters := pipeline.ClusterSensorsNamed(e, "cluster", frame, pipeline.ClusterConfig{
		Metric: cluster.Correlation, K: 2,
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		Seed: 11,
	})
	sel := pipeline.SelectRepresentativesNamed(e, "select", frame, clusters, pipeline.SelectConfig{
		OnHour: cfg.HVAC.OnHour, OffHour: cfg.HVAC.OffHour,
		Seeds: 3, GPMode: "fast",
	})
	if _, err := eval.Get(ctx); err != nil {
		return nil, 0, err
	}
	if _, err := sel.Get(ctx); err != nil {
		return nil, 0, err
	}
	wall := time.Since(t0)
	out := make(map[string]pipeline.Result)
	for _, r := range e.Results() {
		out[r.Stage] = r
	}
	return out, wall, nil
}

// TestRecordPipelineBench measures the cold/warm matrix and writes
// BENCH_pipeline.json, refusing if either gate fails.
func TestRecordPipelineBench(t *testing.T) {
	if !*recordPipelineBench {
		t.Skip("run with -record-pipeline-bench (make bench-pipeline) to record")
	}
	dir := t.TempDir()
	ctx := context.Background()

	cold, coldWall, err := runDAG(ctx, dir)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	warm, warmWall, err := runDAG(ctx, dir)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}

	bitIdentical, allHits := true, true
	var rows []stageRow
	var totalBytes int64
	for stage, c := range cold {
		w, ok := warm[stage]
		if !ok {
			t.Fatalf("stage %s missing from the warm run", stage)
		}
		if c.CacheHit {
			t.Errorf("cold run reported a cache hit for %s", stage)
		}
		if !w.CacheHit {
			allHits = false
			t.Errorf("warm run recomputed stage %s", stage)
		}
		if c.Digest != w.Digest {
			bitIdentical = false
			t.Errorf("stage %s artifact changed across cold/warm: %s vs %s",
				stage, c.Digest.Short(), w.Digest.Short())
		}
		totalBytes += c.Bytes
		rows = append(rows, stageRow{
			Stage:      stage,
			ColdWallMS: c.Wall.Milliseconds(),
			WarmWallMS: w.Wall.Milliseconds(),
			Bytes:      c.Bytes,
			Digest:     string(c.Digest),
		})
	}
	speedup := float64(coldWall) / float64(warmWall)
	if speedup < minWarmSpeedup {
		t.Errorf("warm speedup %.1fx below the %.0fx gate (cold %v, warm %v)",
			speedup, minWarmSpeedup, coldWall, warmWall)
	}
	if t.Failed() {
		t.Fatal("gates failed; BENCH_pipeline.json not written")
	}

	out := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Note: fmt.Sprintf("paper DAG (simulate->frame->sysid->evaluate, frame->cluster->select) on a %d-day %v-step trace; warm rerun served entirely from the content-addressed store with bit-identical digests",
			benchConfig().Days, benchConfig().SimStep),
		Reproduce:     "make bench-pipeline",
		ColdWallMS:    coldWall.Milliseconds(),
		WarmWallMS:    warmWall.Milliseconds(),
		Speedup:       speedup,
		BitIdentical:  bitIdentical,
		AllWarmHits:   allHits,
		Stages:        rows,
		ArtifactBytes: totalBytes,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFileAtomic("../../BENCH_pipeline.json", func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %v, warm %v (%.0fx); wrote BENCH_pipeline.json", coldWall, warmWall, speedup)
}
