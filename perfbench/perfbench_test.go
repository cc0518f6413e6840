package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"auditherm/internal/artifact"
	"auditherm/internal/pipeline"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},   // overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},  // runs past the parent
		{Name: "a.1", Start: ms(12), End: ms(20), Parent: 1}, // grandchild
		{Name: "other", Start: ms(0), End: ms(100), Parent: -1},
	}
	// Children cover 10-60 and 90-100 of the parent: 60 ms.
	if got, want := selfTime(spans, 0), ms(40); got != want {
		t.Errorf("parent self time = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), ms(22); got != want {
		t.Errorf("child self time = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 5), ms(100); got != want {
		t.Errorf("childless root self time = %v, want %v", got, want)
	}
	self := selfByName(spans)
	if got := self["parent"]; got != 0.04 {
		t.Errorf("selfByName[parent] = %v, want 0.04", got)
	}
}

func TestRecorderNestsUnderInnermostOpenSpan(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	sibling := r.begin("sibling")
	r.end(sibling)
	r.end(outer)
	got := r.done()
	if len(got) != 3 || got[1].Parent != outer || got[2].Parent != outer || got[0].Parent != -1 {
		t.Fatalf("spans = %+v, want inner and sibling under outer", got)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("ignored"))
	if nilRec.done() != nil {
		t.Fatal("a nil recorder recorded spans")
	}
}

func TestCheckRepeatFlagsEveryGuardCountThatMoved(t *testing.T) {
	b := &bench{}
	first := counters{"auditherm_sysid_fits_total": 16, "auditherm_pipeline_stages_total": 129}
	again := counters{"auditherm_sysid_fits_total": 16, "auditherm_pipeline_stages_total": 129}
	b.checkRepeat("same", first, again)
	if len(b.failed) != 0 {
		t.Fatalf("equal counts failed the guard: %v", b.failed)
	}
	again["auditherm_pipeline_stages_total"] = 130
	again["auditherm_mat_qr_factorizations_total"] = 1
	b.checkRepeat("moved", first, again)
	if len(b.failed) != 2 {
		t.Fatalf("failed checks = %v, want one each for pipeline.stages and mat.qr_factorizations", b.failed)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct, ok := tail(xs); v != 990 || pct != 99 || !ok {
		t.Errorf("tail of 1..1000 = %v at p%v (%v), want 990 at p99: 10 samples beyond", v, pct, ok)
	}
	if v, pct, ok := tail(xs[:999]); v != 950 || pct != 95 || !ok {
		t.Errorf("tail of 1..999 = %v at p%v (%v), want 950 at p95", v, pct, ok)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection: the first request holds it for 60 ms, so the two
	// due at 10 and 20 ms wait for it. Their latency must include that
	// wait even though the generator sent them on time.
	conn := make(chan struct{}, 1)
	arrivals := []arrival{{Due: 0}, {Due: ms(10)}, {Due: ms(20)}}
	var mu sync.Mutex
	first := true
	out := openLoop(context.Background(), arrivals, 10, func(ctx context.Context, a arrival) error {
		conn <- struct{}{}
		defer func() { <-conn }()
		mu.Lock()
		slow := first
		first = false
		mu.Unlock()
		if slow {
			time.Sleep(ms(60))
		}
		return nil
	})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("arrival %d: %v", i, o.Err)
		}
		if o.Lag > ms(8) {
			t.Errorf("arrival %d sent %v late; the generator must not wait for replies", i, o.Lag)
		}
	}
	if out[1].Latency < ms(45) || out[2].Latency < ms(35) {
		t.Errorf("latencies %v, %v: the wait behind the stalled request was not charged",
			out[1].Latency, out[2].Latency)
	}
}

func TestOpenLoopRefusesBeyondOutstandingBound(t *testing.T) {
	release := make(chan struct{})
	arrivals := []arrival{{Due: 0}, {Due: ms(5)}}
	done := make(chan []outcome)
	go func() {
		done <- openLoop(context.Background(), arrivals, 1, func(ctx context.Context, a arrival) error {
			if a.Due == 0 {
				<-release
			}
			return nil
		})
	}()
	time.Sleep(ms(20))
	close(release)
	out := <-done
	if out[0].Err != nil {
		t.Fatalf("first arrival: %v", out[0].Err)
	}
	if _, ok := out[1].Err.(refusedError); !ok {
		t.Fatalf("second arrival err = %v, want refused", out[1].Err)
	}
}

type payload struct {
	Values []float64 `json:"values"`
}

var payloadCodec = artifact.JSONCodec[*payload]("perfbench-test", 1)

// resolveTwoStages runs a two-stage DAG on a fresh engine over store and
// returns the stages' resolution records.
func resolveTwoStages(t *testing.T, store artifact.Backend) []pipeline.Result {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{Backend: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := pipeline.Define(eng, "src", payloadCodec, map[string]string{"n": "3"}, nil,
		func(ctx context.Context) (*payload, error) { return &payload{Values: []float64{1, 2.5, 3}}, nil })
	sum := pipeline.Define(eng, "sum", payloadCodec, nil, []pipeline.AnyNode{src},
		func(ctx context.Context) (*payload, error) {
			p, err := src.Get(ctx)
			if err != nil {
				return nil, err
			}
			var s float64
			for _, v := range p.Values {
				s += v
			}
			return &payload{Values: []float64{s}}, nil
		})
	if _, err := sum.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng.Results()
}

func TestBackendWrapperKeepsDigestsAndValueCacher(t *testing.T) {
	plain := resolveTwoStages(t, artifact.NewMem(0))

	rec := newRecorder()
	n := &storeBytes{}
	mem := wrapBackend(artifact.NewMem(0), rec, n)
	if _, ok := mem.(artifact.ValueCacher); !ok {
		t.Fatal("wrapping a ValueCacher store hid its ValueCacher")
	}
	cold := resolveTwoStages(t, mem)
	warm := resolveTwoStages(t, mem)
	for i := range plain {
		if cold[i].Digest != plain[i].Digest || warm[i].Digest != plain[i].Digest {
			t.Errorf("stage %s digest: plain %s, wrapped cold %s, wrapped warm %s",
				plain[i].Stage, plain[i].Digest.Short(), cold[i].Digest.Short(), warm[i].Digest.Short())
		}
		if !warm[i].CacheHit {
			t.Errorf("stage %s: warm run over the wrapped store missed", warm[i].Stage)
		}
	}

	disk, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	local := wrapBackend(disk, rec, n)
	if _, ok := local.(artifact.ValueCacher); ok {
		t.Fatal("wrapper offers a ValueCacher its store does not have")
	}
	resolveTwoStages(t, local)
	resolveTwoStages(t, local)

	counts := map[string]int{}
	spans := rec.done()
	for _, s := range spans {
		counts[s.Name]++
	}
	// Every run stats both stages and the two cold runs put them. Of
	// the warm runs only the local one decodes, and only the output
	// stage: a warm hit never demands its input's value.
	if counts[spanPut] != 4 || counts[spanEncode] != 4 || counts[spanStat] != 8 || counts[spanOpen] != 1 {
		t.Errorf("span counts = %v", counts)
	}
	for i, s := range spans {
		if s.Name == spanEncode && spans[s.Parent].Name != spanPut {
			t.Errorf("encode span %d is not under a put span", i)
		}
	}
	if n.wrote.Load() == 0 || n.read.Load() == 0 {
		t.Errorf("bytes written %d, read %d; want both counted", n.wrote.Load(), n.read.Load())
	}
}

func TestBenchmarkJSONMatchesTheMetricsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestFreshKeysAreNewAndReferencePhasesAlike(t *testing.T) {
	const perPhase = refRequests / 20 // one fresh arrival per mix block
	for _, seed := range []int64{1, 7, -3} {
		seen := map[string]bool{}
		for _, k := range hotKeys {
			seen[k] = true
		}
		for i := 0; i < warmKeys; i++ {
			seen[warmKey(i)] = true
		}
		// Each phase's select keys, with the window left out, must be
		// the same set: the same clusterings and selections over
		// another window.
		var first map[string]bool
		for phase := 0; phase < 200; phase++ {
			shapes := map[string]bool{}
			for n := phase * perPhase; n < (phase+1)*perPhase; n++ {
				k := freshKey(seed, n)
				if seen[k] {
					t.Fatalf("seed %d: fresh key %d, %s, was requested before", seed, n, k)
				}
				seen[k] = true
				if n%3 == 2 {
					shape, _, _ := strings.Cut(k, "&on=")
					shapes[shape] = true
				}
			}
			switch {
			case phase >= 10:
			case first == nil:
				first = shapes
				if len(shapes) != perPhase/3 {
					t.Fatalf("seed %d: phase 0 has %d distinct select shapes, want %d", seed, len(shapes), perPhase/3)
				}
			case !reflect.DeepEqual(first, shapes):
				t.Fatalf("seed %d: phase %d selects %v, phase 0 %v", seed, phase, shapes, first)
			}
		}
	}
}
