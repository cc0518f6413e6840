// Command perfbench is auditherm's end-to-end benchmark. It runs one of
// three workloads in-process and prints every metric by name with its
// unit, then one JSON result line:
//
//	go run . --workload paper|fleet|serve-mixed --seed N --seconds S --trace 0|1
//
// (bash perfbench/run.sh does the same from the repository root). With
// --trace 0 it reports the end-to-end metrics, measured untraced; with
// --trace 1 it runs the workload once untraced and once with the
// benchmark's spans and store wrapper in place, and reports the
// per-layer metrics. README.md lists the workloads and what each
// metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics every workload reports with --trace 0.
// cold_s and warm_s take the workload's own meaning (see README.md);
// the workload-named metrics are printed beside them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"warm_s", "s"},
	{"peak_rss_mb", "MB"},
}

// bench carries one invocation's settings and what it measured.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	nproc    int
	work     string

	ops    map[string]*opCount
	failed []string // failed correctness checks

	e2e   map[string]float64
	named []namedMetric
	layer map[string]float64
}

// opCount tallies one kind of operation. Refused arrivals were never
// sent: the open loop already had too many requests waiting.
type opCount struct{ attempted, failed, refused int64 }

// namedMetric is a workload-specific end-to-end metric printed by name.
type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// op records one operation of kind; err marks it failed, or refused.
func (b *bench) op(kind string, err error) {
	c := b.ops[kind]
	if c == nil {
		c = &opCount{}
		b.ops[kind] = c
	}
	if errors.As(err, new(refusedError)) {
		c.refused++
		return
	}
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", kind, err)
	}
}

// check records a failed correctness check when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed = append(b.failed, fmt.Sprintf(format, args...))
	}
}

// record adds a workload-named metric to the printed report.
func (b *bench) record(name string, value float64, unit, note string) {
	b.named = append(b.named, namedMetric{name, value, unit, note})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"paper":       runPaper,
	"fleet":       runFleet,
	"serve-mixed": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper, fleet or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "how long to keep repeating the measured work")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload paper|fleet|serve-mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		work:     work,
		ops:      map[string]*opCount{},
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", b.nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("workload %s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *trace)

	err = run(b)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	res, ok := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// result prints the named metrics, the operation tallies and any failed
// check, then assembles the JSON result. A failed operation fails the
// run like a failed check.
func (b *bench) result() (result, bool) {
	for _, m := range b.named {
		fmt.Printf("metric %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	res := result{Metrics: map[string]metric{}}
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := b.ops[k]
		fmt.Printf("ops %-24s attempted=%d failed=%d refused=%d\n", k, c.attempted, c.failed, c.refused)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	if res.Attempted > 0 {
		fmt.Printf("metric %-28s %14.6g %-6s\n", "failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	}
	if b.traced {
		for _, l := range perLayer {
			v, ok := b.layer[l.name]
			if !ok {
				b.check(false, "per-layer metric %s was not measured", l.name)
				continue
			}
			res.Metrics[l.name] = metric{v, l.unit}
			fmt.Printf("layer %-32s %14.6g %s\n", l.name, v, l.unit)
		}
	} else {
		if rss, err := peakRSSMB(); err == nil {
			b.e2e["peak_rss_mb"] = rss
		} else {
			b.check(false, "peak RSS: %v", err)
		}
		for _, m := range endToEnd {
			v := b.e2e[m.name]
			b.check(v > 0 && !math.IsInf(v, 0), "end-to-end metric %s is %v, want a positive number", m.name, v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Printf("e2e %-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	b.check(res.Attempted > 0, "no operation was attempted")
	b.check(res.Failed == 0, "%d of %d operations failed", res.Failed, res.Attempted)
	res.Attempted = max(res.Attempted, 1)
	for _, f := range b.failed {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	res.Correct = len(b.failed) == 0
	return res, res.Correct
}

// Set-up timing for paper and fleet. One set-up takes 0.03 to 1.5 ms,
// short enough that timer, scheduler and garbage-collector noise swamp
// a single one, so setupBatch set-ups are timed as one interval. The
// host also swings between speeds for seconds at a time: one process
// timed the paper set-up at 30 µs for a while and at 55 µs after. So
// setupBatches intervals are timed at the start of a run and again
// after each unit of the measured work, and setup_s is the median of
// all of them, of the time per set-up. The first intervals of a
// process run up to twice as slow, so setupWarmups untimed ones go
// first.
const (
	setupWarmups = 5
	setupBatches = 10
	setupBatch   = 50
)

// setupTimer collects the set-up intervals of one run.
type setupTimer struct {
	b *bench
	// setup works in the directory it is given and returns the store
	// it opened.
	setup    func(dir string) (io.Closer, error)
	perSetup []float64
}

// sample times batches intervals, after warmups untimed ones. Every
// set-up opens a store over the same empty directory, made beforehand,
// so creating a directory, which costs far more than the program's
// set-up and varies with the file system, stays out of the interval.
// A batch's stores are closed after its interval ends; defining stages
// writes nothing, so the directory stays empty. Each interval starts
// after a garbage collection, so collection work left over from
// earlier allocations does not land in it.
func (t *setupTimer) sample(warmups, batches int) error {
	dir := filepath.Join(t.b.work, "setup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for r := 0; r < warmups+batches; r++ {
		opened := make([]io.Closer, 0, setupBatch)
		runtime.GC()
		t0 := time.Now()
		var err error
		for i := 0; i < setupBatch && err == nil; i++ {
			var c io.Closer
			if c, err = t.setup(dir); err == nil {
				opened = append(opened, c)
			}
		}
		d := time.Since(t0)
		for _, c := range opened {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		if r >= warmups {
			t.perSetup = append(t.perSetup, d.Seconds()/setupBatch)
		}
	}
	return nil
}

// repeat runs unit until the time budget is spent, at least min times,
// and returns how many units ran.
func (b *bench) repeat(min int, unit func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < min || time.Since(start) < b.budget; i++ {
		if err := unit(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// seconds converts a duration slice to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
