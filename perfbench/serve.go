package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"auditherm/internal/dataset"
	"auditherm/internal/obs"
	"auditherm/internal/par"
	"auditherm/internal/serve"
	"auditherm/internal/traceview"
)

// Shape of the serve-mixed traffic. The hot keys and the latency limit
// come from the daemon's load benchmark, internal/benchserve: its
// replayed key space and its p99 gate. The other numbers are chosen,
// not measured from any user's traffic; README.md says why.
const (
	// lruEntries is the daemon's response LRU capacity.
	lruEntries = 32
	// warmKeys is three times the LRU's size, so a cyclic walk over
	// them always misses it.
	warmKeys = 3 * lruEntries
	// refRate is the reference rate for serve_p50_ms and serve_p99_ms,
	// and refRequests the requests of one reference phase: a whole
	// number of mix blocks holding 36 fresh keys, 12 of each kind, so
	// every reference phase does the same work (see freshKey).
	refRate     = 100
	refRequests = 720
	// ladderPhase is how long each higher-rate phase lasts.
	ladderPhase = 2 * time.Second
	// p99LimitMS is the latency limit serve_max_rps is judged against,
	// benchserve's p99 gate.
	p99LimitMS = 500
	// maxOutstanding bounds the requests waiting at once; arrivals
	// beyond it are refused and count as missing the limit.
	maxOutstanding = 512
)

// ladder are the fixed rates, in requests per second, whose highest
// one meeting the limit is serve_max_rps. refRate is the first.
var ladder = []float64{refRate, 200, 400, 800, 1600, 3200}

// blockClasses is one block of the arrival mix, shuffled per block: 10
// hot, 9 warm and 1 fresh in 20. Hot and warm requests, 95%, are
// answered without computing, above benchserve's 90% hit-rate gate.
var blockClasses = func() []string {
	var out []string
	for i := 0; i < 10; i++ {
		out = append(out, "hot")
	}
	for i := 0; i < 9; i++ {
		out = append(out, "warm")
	}
	return append(out, "fresh")
}()

// hotKeys is benchserve's key space, one or two keys of every endpoint
// family. All of them fit in the LRU.
var hotKeys = []string{
	"/v1/sysid?order=1",
	"/v1/sysid?order=2",
	"/v1/cluster?metric=euclidean&k=2",
	"/v1/cluster?metric=correlation&k=2",
	"/v1/select?metric=correlation&k=2&seeds=3",
	"/v1/report?id=fig2",
	"/v1/control?days=1&seed=1",
	"/v1/control?days=1&seed=2",
}

// serveDataset is the reduced auditorium trace the daemon serves,
// benchserve's. Unlike paper's, it stays the same at every seed: how
// long identification takes depends strongly on the trace (the hot
// /v1/sysid?order=2 took 0.25 s on one redrawn trace and 1.0 s on
// another), and that would swamp setup_s. The seed draws the requests
// instead; see freshKey.
func serveDataset() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.SimStep = 2 * time.Minute
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 2
	cfg.NodeFailureProb = 0
	return cfg
}

// warmKey is the i-th key of the warm space: clusterings whose
// artifacts the set-up leaves in the store.
func warmKey(i int) string {
	if i%2 == 0 {
		return fmt.Sprintf("/v1/cluster?metric=correlation&k=%d&seed=%d", 2+i%3, 100+i)
	}
	return fmt.Sprintf("/v1/cluster?metric=euclidean&k=%d&seed=%d", 2+i%3, 100+i)
}

// freshPaths are the endpoints of the fresh keys, in freshKey's turn.
var freshPaths = []string{"/v1/control", "/v1/cluster", "/v1/select"}

// freshKey is the run's n-th key never requested before: new control,
// cluster and select settings that really compute, drawn from seed.
// Control and cluster keys take new seeds of their own. Every 12
// selects form one group over a new 15-hour occupied window, one per
// (metric, k, seeds) of 2 × 3 × 2. So every group computes six
// training-half clusterings and twelve selections of the same sizes,
// and each reference phase, holding one group, does the same work. The
// seed picks the first window; after ten windows the seeds move up by
// two, so keys stay new however long the ladder runs.
func freshKey(seed int64, n int) string {
	switch freshPaths[n%3] {
	case "/v1/control":
		return fmt.Sprintf("/v1/control?days=1&seed=%d", 1000+100000*seed+int64(n))
	case "/v1/cluster":
		return fmt.Sprintf("/v1/cluster?metric=correlation&k=3&seed=%d", 1000+100000*seed+int64(n))
	default:
		j := n / 3
		group, i := j/12, j%12
		metric := "euclidean"
		if i%2 == 1 {
			metric = "correlation"
		}
		on := int((int64(group)%10 + seed%10 + 20) % 10)
		return fmt.Sprintf("/v1/select?metric=%s&k=%d&seeds=%d&on=%d&off=%d",
			metric, 2+i/2%3, 4+i/6+2*(group/10), on, on+15)
	}
}

// daemon is the in-process server and the client that drives it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	root   *obs.Span
	served chan error

	mu     sync.Mutex
	bodies map[string][sha256.Size]byte

	seed             int64
	hot, warm, fresh int // keys of each class scheduled so far
}

func startDaemon(b *bench, dir string) (*daemon, error) {
	_, root := obs.StartSpan(context.Background(), "serve/daemon")
	root.SetRunID("perfbench-daemon")
	srv, err := serve.New(serve.Config{
		Dataset:       serveDataset(),
		CacheDir:      dir,
		Store:         "mem,local",
		Workers:       b.nproc,
		ResponseCache: lruEntries,
	}, slog.New(slog.NewTextHandler(io.Discard, nil)), root)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	srv.MountMux(mux)
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: mux},
		base:   "http://" + ln.Addr().String(),
		root:   root,
		served: make(chan error, 1),
		bodies: map[string][sha256.Size]byte{},
		seed:   b.seed,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     b.nproc,
			MaxIdleConnsPerHost: b.nproc,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes the listener and waits for the serve
// goroutine to return.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	err := d.srv.Wait(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.client.CloseIdleConnections()
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	d.root.End()
	return err
}

// get requests key, requires a 200 and checks the body matches every
// earlier body for the same key, whichever class served it. parent,
// when set, carries the client span the request is traced under.
func (d *daemon) get(ctx context.Context, key string, parent *obs.Span) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+key, nil)
	if err != nil {
		return err
	}
	if parent != nil {
		sp := obs.ClientSpan(obs.ContextWithSpan(ctx, parent), "client"+key)
		defer sp.End()
		obs.InjectTrace(req.Header, sp)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", key, resp.StatusCode, bytes.TrimSpace(body))
	}
	sum := sha256.Sum256(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.bodies[key]; ok && prev != sum {
		return fmt.Errorf("%s: body differs from an earlier response for the same key", key)
	}
	d.bodies[key] = sum
	return nil
}

// schedule lays out n arrivals at rate per second, in shuffled blocks
// of the class mix. Hot keys take turns, so each returns long before
// the LRU could evict it. Warm keys continue their cyclic walk and
// fresh keys their count across phases, so no phase repeats another's
// fresh key.
func (d *daemon) schedule(rng *rand.Rand, rate float64, n int) []arrival {
	out := make([]arrival, 0, n)
	for len(out) < n {
		block := append([]string(nil), blockClasses...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			if len(out) == n {
				break
			}
			var key string
			switch c {
			case "hot":
				key = hotKeys[d.hot%len(hotKeys)]
				d.hot++
			case "warm":
				key = warmKey(d.warm % warmKeys)
				d.warm++
			default:
				key = freshKey(d.seed, d.fresh)
				d.fresh++
			}
			due := time.Duration(float64(len(out)) / rate * float64(time.Second))
			out = append(out, arrival{Due: due, Class: c, Key: key})
		}
	}
	return out
}

// phase is one open-loop run at one rate.
type phase struct {
	outcomes []outcome
	counts   counters
}

func (d *daemon) run(ctx context.Context, b *bench, rng *rand.Rand, rate float64, n int, parent *obs.Span) *phase {
	arr := d.schedule(rng, rate, n)
	before := readCounters()
	out := openLoop(ctx, arr, maxOutstanding, func(ctx context.Context, a arrival) error {
		return d.get(ctx, a.Key, parent)
	})
	p := &phase{outcomes: out, counts: readCounters().since(before)}
	for _, o := range out {
		b.op("request."+o.Arrival.Class, o.Err)
	}
	return p
}

// latencies returns the latencies in ms of the phase's requests of the
// given class ("" for all) whose key starts with prefix; a failed
// request counts as infinitely late.
func (p *phase) latencies(class, prefix string) []float64 {
	var out []float64
	for _, o := range p.outcomes {
		if class != "" && o.Arrival.Class != class {
			continue
		}
		if !strings.HasPrefix(o.Arrival.Key, prefix) {
			continue
		}
		if o.Err != nil {
			out = append(out, 1e18)
			continue
		}
		out = append(out, float64(o.Latency)/float64(time.Millisecond))
	}
	return out
}

// meetsLimit reports whether the phase kept its tail latency within
// the limit with nothing failed or refused and no growing backlog: the
// last fifth of the arrivals may not wait longer than the limit at the
// median.
func (p *phase) meetsLimit() bool {
	lat := p.latencies("", "")
	v, _, ok := tail(lat)
	if !ok {
		return false
	}
	for _, o := range p.outcomes {
		if o.Err != nil {
			return false
		}
	}
	return v <= p99LimitMS && median(lat[len(lat)*4/5:]) <= p99LimitMS
}

// A run starts and warms a daemon serveSetups times before the load,
// the last one serving it, and serveSetupsAfter times after it, so
// setup_s, the median of all of them, sees the host at both ends of
// the run.
const (
	serveSetups      = 4
	serveSetupsAfter = 3
)

// startWarmDaemon starts a daemon over an empty store at dir and warms
// it. The hot keys are touched last, so they are the LRU's newest
// entries.
func (b *bench) startWarmDaemon(ctx context.Context, dir string) (*daemon, error) {
	d, err := startDaemon(b, dir)
	if err != nil {
		return nil, err
	}
	err = d.warmUp(ctx, b)
	for i := 0; i < len(hotKeys) && err == nil; i++ {
		err = d.get(ctx, hotKeys[i], nil)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// warmUp computes every warm and hot key once, the warm ones first, so
// their artifacts sit in the store and the hot bodies in the LRU.
func (d *daemon) warmUp(ctx context.Context, b *bench) error {
	var keys []string
	for i := 0; i < warmKeys; i++ {
		keys = append(keys, warmKey(i))
	}
	keys = append(keys, hotKeys...)
	return par.ForEach(ctx, b.nproc, len(keys), func(i int) error {
		err := d.get(ctx, keys[i], nil)
		b.op("request.setup", err)
		return err
	})
}

func runServe(b *bench) error {
	ctx := context.Background()
	par.SetDefaultWorkers(b.nproc)
	rng := rand.New(rand.NewSource(b.seed))
	// Each set-up is timed on a fresh daemon and store.
	var setups []float64
	setUp := func() (*daemon, error) {
		t0 := time.Now()
		d, err := b.startWarmDaemon(ctx, filepath.Join(b.work, fmt.Sprintf("serve-%d", len(setups))))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Printf("setup %d: %.3fs\n", len(setups)-1, setups[len(setups)-1])
		return d, nil
	}
	reps := serveSetups
	if b.traced {
		reps = 1
	}
	var d *daemon
	for r := 0; r < reps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		if d, err = setUp(); err != nil {
			return err
		}
	}

	var refs []*phase
	unit := func(i int) error {
		p := d.run(ctx, b, rng, refRate, refRequests, nil)
		fmt.Printf("unit %d ref %d rps: p50=%.2fms fresh p50=%.1fms warm p50=%.2fms\n", i, refRate,
			median(p.latencies("", "")), median(p.latencies("fresh", "")), median(p.latencies("warm", "")))
		if len(refs) > 0 {
			b.checkRepeat("serve reference phase", refs[0].counts, p.counts)
		}
		refs = append(refs, p)
		return nil
	}
	var err error
	if b.traced {
		err = unit(0)
		if err == nil {
			err = b.serveTraced(ctx, d, rng, refs[0])
		}
	} else {
		var n int
		if n, err = b.repeat(2, unit); err == nil {
			b.serveMeasure(ctx, d, rng, refs, n)
		}
	}
	if err == nil {
		d.verifyFresh(ctx, b)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	for r := 0; r < serveSetupsAfter && err == nil && !b.traced; r++ {
		if d, err = setUp(); err == nil {
			err = d.stop()
		}
	}
	b.e2e["setup_s"] = median(setups)
	return err
}

// serveMeasure climbs the rate ladder above the n reference phases
// already run and sets the end-to-end metrics but setup_s.
func (b *bench) serveMeasure(ctx context.Context, d *daemon, rng *rand.Rand, refs []*phase, n int) {
	var all, fresh, warm, lag []float64
	freshKinds := make([][]float64, len(freshPaths))
	for _, p := range refs {
		all = append(all, p.latencies("", "")...)
		fresh = append(fresh, p.latencies("fresh", "")...)
		warm = append(warm, p.latencies("warm", "")...)
		for i, path := range freshPaths {
			freshKinds[i] = append(freshKinds[i], p.latencies("fresh", path+"?")...)
		}
		for _, o := range p.outcomes {
			lag = append(lag, float64(o.Lag)/float64(time.Millisecond))
		}
	}
	note := fmt.Sprintf("at %d rps, %d phases, n=%d", refRate, n, len(all))
	maxRPS := 0.0
	if refs[0].meetsLimit() {
		maxRPS = refRate
		for _, rate := range ladder[1:] {
			p := d.run(ctx, b, rng, rate, int(rate*ladderPhase.Seconds()), nil)
			ok := p.meetsLimit()
			fmt.Printf("ladder %.0f rps: p50=%.2fms meets %dms limit: %v\n", rate, median(p.latencies("", "")), p99LimitMS, ok)
			if !ok {
				break
			}
			maxRPS = rate
		}
	}
	// Each fresh kind is a third of the class and computes for a
	// different time, so the median over the whole class falls between
	// two kinds and jumps from one to the other between runs. cold_s
	// is the mean of the three kinds' medians instead.
	coldMS := 0.0
	for i, l := range freshKinds {
		m := median(l)
		coldMS += m / float64(len(freshKinds))
		b.record(fmt.Sprintf("serve_fresh_%s_p50_ms", freshPaths[i][len("/v1/"):]), m, "ms", note)
	}
	b.e2e["cold_s"] = coldMS / 1000
	b.e2e["warm_s"] = median(warm) / 1000
	b.record("serve_p50_ms", median(all), "ms", note)
	if v, pct, ok := tail(all); ok {
		b.record(fmt.Sprintf("serve_p%g_ms", pct), v, "ms", fmt.Sprintf("%s, %d beyond", note, len(all)-nearestRank(pct, len(all))))
	}
	b.record("serve_max_rps", maxRPS, "1/s", fmt.Sprintf("highest of %v meeting p99 <= %dms", ladder, p99LimitMS))
	b.record("serve_fresh_p50_ms", median(fresh), "ms", note)
	b.record("serve_warm_p50_ms", median(warm), "ms", note)
	if v, pct, ok := tail(lag); ok {
		b.record("serve_gen_lag_ms", v, "ms", fmt.Sprintf("generator lateness p%g at the reference rate", pct))
	}
}

// verifyFresh re-requests every fresh key of the run, now served from
// the LRU or the store, so each fresh body is compared with its
// re-served copy.
func (d *daemon) verifyFresh(ctx context.Context, b *bench) {
	for n := 0; n < d.fresh; n++ {
		err := d.get(ctx, freshKey(b.seed, n), nil)
		b.op("request.verify", err)
		b.check(err == nil, "serve: %v", err)
	}
}

// serveTraced runs one more reference phase with client spans that
// inject the trace header, merges the client and daemon traces and
// splits each request into daemon time and wire+queue time.
func (b *bench) serveTraced(ctx context.Context, d *daemon, rng *rand.Rand, untraced *phase) error {
	var clientBuf, daemonBuf bytes.Buffer
	clientTF := obs.NewTraceWriter(&clientBuf, "perfbench-client", "perfbench")
	daemonTF := obs.NewTraceWriter(&daemonBuf, "perfbench-daemon", "serve")
	_, clientRoot := obs.StartSpan(context.Background(), "client/phase")
	clientRoot.SetRunID("perfbench-client")
	clientRoot.SetSink(clientTF)
	d.root.SetSink(daemonTF)

	p := d.run(ctx, b, rng, refRate, refRequests, clientRoot)

	d.root.SetSink(nil)
	clientRoot.End()
	for _, tf := range []*obs.TraceFile{clientTF, daemonTF} {
		if err := tf.Close(); err != nil {
			return err
		}
	}
	ct, err := traceview.ReadTrace(&clientBuf)
	if err != nil {
		return err
	}
	dt, err := traceview.ReadTrace(&daemonBuf)
	if err != nil {
		return err
	}
	merged, st, err := traceview.Merge([]*traceview.Trace{ct, dt})
	if err != nil {
		return err
	}
	var server, wire []float64
	for _, sp := range merged.Spans {
		if sp.ParentRun == "" {
			continue
		}
		caller := merged.Find(sp.Parent)
		if caller == nil || caller.Proc == sp.Proc {
			continue
		}
		server = append(server, float64(sp.Duration())/float64(time.Millisecond))
		wire = append(wire, float64(caller.Duration()-sp.Duration())/float64(time.Millisecond))
	}
	b.check(st.Unresolved == 0 && len(server) == len(p.outcomes),
		"serve: traced %d requests, merged %d daemon spans under their client span (%d unresolved)",
		len(p.outcomes), len(server), st.Unresolved)

	var lag []float64
	var tracedSum, untracedSum time.Duration
	for _, o := range p.outcomes {
		lag = append(lag, float64(o.Lag)/float64(time.Millisecond))
		tracedSum += o.Latency
	}
	for _, o := range untraced.outcomes {
		untracedSum += o.Latency
	}
	b.setLayers(p.counts, nil, nil)
	b.layer["serve.server_ms"] = median(server)
	b.layer["serve.wire_queue_ms"] = median(wire)
	b.layer["serve.gen_lag_ms"], _, _ = tail(lag)
	b.layer["obs.trace_overhead"] = tracedSum.Seconds() / untracedSum.Seconds()
	b.checkRepeat("serve traced vs untraced", untraced.counts, p.counts)
	return nil
}
