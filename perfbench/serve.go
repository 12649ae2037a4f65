package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/cost"
	"dualbank/internal/genmc"
	"dualbank/internal/serve"
)

// The serve-gen workload drives an in-process serve.Server (two
// workers) over loopback as a closed loop: one client, sending its next
// POST /v1/run only after the previous reply. About one request in four
// names a fresh generated program from genmc.Population(seed) under a
// seeded mode; the rest repeat a key already served, which the server
// answers from its memo cache.

const (
	// clients is the number of closed-loop clients and connections. One
	// keeps the load on one core of two: with a busy-looping neighbour on
	// the other, throughput drops 6% with one client and 38% with two.
	clients = 1
	// workers is the server's worker pool size.
	workers = 2
	// popSize is the population fresh names are drawn from, far more
	// than a run at the measured rate uses.
	popSize = 1 << 16
	// recentKeys is how many of the most recently served keys repeated
	// requests are drawn from: twice the server's generated-program
	// memo, so repeated keys outgrow it and some regenerate their
	// program, while the mix of memo hits and regenerations holds steady
	// over the run instead of drifting as served keys pile up.
	recentKeys = 2 * genMemoMax
	// warmupCold is how many fresh names the untimed warm-up serves:
	// enough to fill the window of recent keys, so the timed phase
	// starts in its steady mix. sim_cycles and mem_words sum over these
	// names, which makes them the same for every run of a seed.
	warmupCold = recentKeys
	// coldOneIn makes one request in coldOneIn a fresh name.
	coldOneIn = 4
	// genMemoMax is the capacity of the server's memo of generated
	// programs (bench.genCacheMax), which the traced run mirrors to
	// replay the server's regenerations.
	genMemoMax = 1024
	// requestsPerPass is the serve-gen unit pass_s and the per-layer
	// metrics are given per.
	requestsPerPass = 1000
	// tracePhase alternates the traced run between untraced and traced
	// requests.
	tracePhase = 500 * time.Millisecond
)

// serveModes are the modes fresh names are requested under.
var serveModes = []string{"single", "cb", "dup"}

type serveState struct {
	names, modes []string // by population index
	srv          *serve.Server
	hs           *http.Server
	serveErr     chan error
	tr           *http.Transport
	client       *http.Client
	url          string
}

func setupServe(seed int64) (*serveState, error) {
	renderSuiteShared()
	st := &serveState{names: make([]string, popSize), modes: make([]string, popSize)}
	rng := rand.New(rand.NewSource(seed))
	for i, k := range genmc.Population(popSize, uint64(seed)) {
		st.names[i] = k.Name()
		st.modes[i] = serveModes[rng.Intn(len(serveModes))]
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = serve.New(serve.Config{Workers: workers})
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.hs.Serve(ln) }()
	st.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	st.client = &http.Client{Transport: st.tr, Timeout: time.Minute}
	st.url = "http://" + ln.Addr().String()
	resp, err := st.client.Get(st.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the HTTP server and waits for it, then stops the
// serving pool.
func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.serveErr
	st.srv.Close()
	st.tr.CloseIdleConnections()
}

// sample is one timed request.
type sample struct {
	ms      float64 // round trip
	compute float64 // the response's compile+simulate milliseconds
	cached  bool
	traced  bool
	done    time.Duration // completion, since the timed phase began
}

// serveRun is one run's shared client state.
type serveRun struct {
	st    *serveState
	t     *tally
	next  atomic.Int64 // next fresh population index
	mu    sync.Mutex
	keys  []int                  // population indices served so far
	first map[int]serve.Response // each key's first (cold) answer

	pinnedCycles, pinnedMem atomic.Int64

	log io.Writer

	// Untraced runs pause the timed phase for their set-up children:
	// every request holds gate for reading, a pause holds it for
	// writing, and paused is the timed phase's pause time so far, which
	// sample completion times leave out.
	setup  *setupTimer
	gate   sync.RWMutex
	paused time.Duration

	// Traced runs only.
	tr      *tracer
	n       *layerCounts
	gm      map[string]bool // mirror of the server's generated-program memo
	gmMu    sync.Mutex
	pending []replayItem // traced requests to replay after the timed phase
}

// replayItem is one traced request's work to replay pass by pass: a
// fresh name's whole measurement, or a repeated key's regeneration.
type replayItem struct {
	idx   int
	fresh bool
	resp  serve.Response
}

// post sends one request and decodes a 200 answer.
func (r *serveRun) post(idx int) (serve.Response, failKind, error) {
	body, _ := json.Marshal(serve.Request{Bench: r.st.names[idx], Mode: r.st.modes[idx]})
	resp, err := r.st.client.Post(r.st.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, failTransport, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return decodeAnswer(resp.StatusCode, data, err)
}

// decodeAnswer classifies one HTTP answer: a transport error reading
// it, a non-200 status, or an undecodable body fail the request.
func decodeAnswer(status int, body []byte, readErr error) (serve.Response, failKind, error) {
	var out serve.Response
	switch {
	case readErr != nil:
		return out, failTransport, readErr
	case status != http.StatusOK:
		return out, failStatus, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, failTransport, fmt.Errorf("decoding answer: %w", err)
	}
	return out, opOK, nil
}

// record checks one answer and tallies it: a fresh name must be
// computed, and a repeated key must be answered from the cache with
// exactly its first answer.
func (r *serveRun) record(idx int, fresh bool, resp serve.Response) {
	name := r.st.names[idx]
	r.mu.Lock()
	defer r.mu.Unlock()
	if fresh {
		if resp.Cached {
			r.t.add(failMismatch, name+": fresh key answered from the cache")
			return
		}
		r.first[idx] = resp
		r.keys = append(r.keys, idx)
		// A key out of the window is never repeated again.
		if n := len(r.keys); n > recentKeys {
			delete(r.first, r.keys[n-1-recentKeys])
		}
		if idx < warmupCold {
			r.pinnedCycles.Add(resp.Cycles)
			r.pinnedMem.Add(int64(resp.MemTotal))
		}
		r.t.add(opOK, "")
		return
	}
	want := r.first[idx]
	got := resp
	got.Cached = false
	if !resp.Cached || !sameAnswer(got, want) {
		r.t.add(failMismatch, fmt.Sprintf("%s: repeated answer %+v differs from first %+v", name, resp, want))
		return
	}
	r.t.add(opOK, "")
}

func sameAnswer(a, b serve.Response) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// pick chooses the next request: a fresh population index, or one of
// the recentKeys keys served last.
func (r *serveRun) pick(rng *rand.Rand, forceFresh bool) (idx int, fresh bool) {
	r.mu.Lock()
	n := len(r.keys)
	var k int
	if n > 0 {
		k = r.keys[n-1-rng.Intn(min(n, recentKeys))]
	}
	r.mu.Unlock()
	if forceFresh || n == 0 || rng.Intn(coldOneIn) == 0 {
		if i := int(r.next.Add(1) - 1); i < popSize {
			return i, true
		}
	}
	return k, false
}

// genMiss reports whether the server's generated-program memo would
// have to regenerate name, updating the mirror as the server updates
// its memo: dropped wholesale when full.
func (r *serveRun) genMiss(name string) bool {
	r.gmMu.Lock()
	defer r.gmMu.Unlock()
	if r.gm[name] {
		return false
	}
	if len(r.gm) >= genMemoMax {
		r.gm = make(map[string]bool)
	}
	r.gm[name] = true
	return true
}

// replay regenerates a fresh request's program and measures it pass by
// pass, failing loudly when the result differs from the server's.
func (r *serveRun) replay(ctx context.Context, rp *replayer, it replayItem) {
	name := r.st.names[it.idx]
	gs := r.tr.start("genmc.gen", noSpan)
	gp, ok := genmc.FromName(name)
	r.tr.end(gs)
	if !it.fresh {
		return
	}
	resp := it.resp
	mode, err := serve.ParseMode(r.st.modes[it.idx])
	if !ok || err != nil {
		r.t.add(failMismatch, fmt.Sprintf("%s: cannot regenerate for replay: %v", name, err))
		return
	}
	p := bench.Program{Name: gp.Name, Source: gp.Source, Check: oracle(gp.Out)}
	res, err := rp.run(ctx, noSpan, p, mode, bench.RunOptions{})
	want := bench.Result{
		Cycles: resp.Cycles, DupStores: resp.DupStores, Duplicated: resp.Duplicated,
		Mem: cost.Memory{XData: resp.MemXData, YData: resp.MemYData, Extra: resp.MemExtra,
			Stack: resp.MemStack, Instr: resp.MemInstr, NBanks: resp.MemNBanks},
	}
	if err != nil || !sameMeasurement(res, want) {
		fmt.Fprintf(r.log, "perfbench: REPLAY DIVERGES from the server on %s/%s: %+v (%v) vs %+v\n", name, mode, res, err, want)
		r.t.add(failMismatch, "replay diverges from the server on "+name)
	}
}

// oracle checks every global array against the generator's expected
// final image.
func oracle(out map[string][]int32) func(bench.Reader) error {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	return func(read bench.Reader) error {
		for _, name := range names {
			for i, w := range out[name] {
				got, err := bench.I32(read, name, i)
				if err != nil {
					return err
				}
				if got != w {
					return fmt.Errorf("%s[%d] = %d, want %d", name, i, got, w)
				}
			}
		}
		return nil
	}
}

// client runs one closed-loop client until stop says so. Requests from
// the timed phase (t0 non-zero) are sampled, and the client that times
// set-ups pauses that phase whenever a set-up child is due. In a traced
// run, every other tracePhase of it is traced: each request gets a
// span, and its compile — or the server's regeneration of its program —
// is queued for replay after the timed phase, so replays do not load
// the server while it is measured.
func (r *serveRun) client(rng *rand.Rand, t0 time.Time, timesSetup bool, stop func() (done, forceFresh bool)) []sample {
	var out []sample
	for {
		done, forceFresh := stop()
		if done {
			return out
		}
		if timesSetup && !t0.IsZero() && r.setup.due() {
			r.gate.Lock()
			p0 := time.Now()
			r.setup.tick()
			r.paused += time.Since(p0)
			r.gate.Unlock()
		}
		idx, fresh := r.pick(rng, forceFresh)
		traced := r.tr != nil && !t0.IsZero() && (time.Since(t0)/tracePhase)%2 == 1
		miss := r.tr != nil && r.genMiss(r.st.names[idx])
		hs := noSpan
		if traced {
			hs = r.tr.start("serve.http", noSpan)
		}
		r.gate.RLock()
		start := time.Now()
		resp, kind, err := r.post(idx)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		doneAt := time.Since(t0) - r.paused
		r.gate.RUnlock()
		if traced {
			r.tr.end(hs)
		}
		if kind != opOK {
			r.t.add(kind, fmt.Sprintf("%s: %v", r.st.names[idx], err))
			continue
		}
		r.record(idx, fresh, resp)
		if traced && (fresh || miss) {
			r.mu.Lock()
			r.pending = append(r.pending, replayItem{idx: idx, fresh: fresh, resp: resp})
			r.mu.Unlock()
		}
		if !t0.IsZero() {
			s := sample{ms: ms, cached: resp.Cached, traced: traced, done: doneAt}
			if !resp.Cached {
				s.compute = (resp.CompileSeconds + resp.SimSeconds) * 1e3
			}
			out = append(out, s)
		}
	}
}

// loop runs the clients concurrently until stop says so and returns
// their samples.
func (r *serveRun) loop(seed int64, t0 time.Time, stop func() (bool, bool)) []sample {
	var wg sync.WaitGroup
	per := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := int64(c)
			if !t0.IsZero() {
				stream += clients
			}
			rng := rand.New(rand.NewSource(seed*2*clients + stream))
			per[c] = r.client(rng, t0, c == 0, stop)
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	st, err := setupServe(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	out := &outcome{tally: &tally{}, metrics: map[string]float64{}}
	r := &serveRun{st: st, t: out.tally, first: make(map[int]serve.Response), log: cfg.log, setup: cfg.setup}
	if cfg.trace {
		r.tr, r.n, r.gm = newTracer(), &layerCounts{}, make(map[string]bool)
	}

	// The untimed warm-up serves warmupCold fresh names.
	r.loop(cfg.seed, time.Time{}, func() (bool, bool) { return r.next.Load() >= warmupCold, true })

	stats0 := st.srv.CacheStats()
	rss := startRSS()
	alloc0 := heapBytes()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var issued atomic.Int64
	samples := r.loop(cfg.seed, t0, func() (bool, bool) {
		// A short timed phase runs on until it holds one pass.
		if !time.Now().Before(deadline) && issued.Load() >= requestsPerPass {
			return true, false
		}
		issued.Add(1)
		return false, false
	})
	if len(samples) == 0 {
		return nil, errors.New("no request completed")
	}
	allocBytes := heapBytes() - alloc0
	stats := st.srv.CacheStats()
	hits, misses := stats.Hits-stats0.Hits, stats.Misses-stats0.Misses

	// Passes are blocks of requestsPerPass requests in completion order.
	var passes []block
	var plain, traced []float64
	var selfMs float64
	var prev time.Duration
	var cur block
	for _, s := range samples {
		cur.lat = append(cur.lat, s.ms)
		if s.cached {
			cur.warm = append(cur.warm, s.ms)
		} else {
			cur.cold = append(cur.cold, s.ms)
		}
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			plain = append(plain, s.ms)
		}
		selfMs += s.ms - s.compute
		if len(cur.lat) == requestsPerPass {
			cur.seconds = (s.done - prev).Seconds()
			passes = append(passes, cur)
			prev, cur = s.done, block{}
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("only %d requests completed, fewer than one pass", len(samples))
	}

	if cfg.trace {
		rss.finish() // memory is reported by the untraced run only
		rp := &replayer{tr: r.tr, n: r.n}
		for _, it := range r.pending {
			r.replay(ctx, rp, it)
		}
		m := layerMetrics(cfg.log, r.tr, r.n, float64(len(traced))/requestsPerPass)
		m["bench.cache_hits"] = float64(hits) * requestsPerPass / float64(len(samples))
		m["bench.cache_misses"] = float64(misses) * requestsPerPass / float64(len(samples))
		m["serve.self_ms"] = selfMs / float64(len(samples))
		m["serve.hit_frac"] = float64(hits) / float64(hits+misses)
		out.metrics = m
		return out, finishTrace(cfg, r.tr, m, plain, traced)
	}
	m := out.metrics
	m["sim_cycles"] = float64(r.pinnedCycles.Load())
	m["mem_words"] = float64(r.pinnedMem.Load())
	serveTiming(m, cfg.log, passes)
	fmt.Fprintf(cfg.log, "  %d fresh names served, cache %d hits / %d misses in the timed phase\n",
		r.next.Load(), hits, misses)
	return out, commonMetrics(m, out.tally, len(samples), allocBytes, rss)
}

// block is requestsPerPass consecutive requests, the serve-gen pass.
type block struct {
	seconds         float64
	lat, cold, warm []float64 // milliseconds
}

// serveTiming fills the time-based metrics from every block: pass time
// is the median block's, throughput is over all blocks, and latencies
// are over all their requests. A repeated key's request either finds
// its program in the server's generated-program memo or regenerates
// it, and the memo is dropped whole when full, so the mix of the two
// shifts from block to block; picking the quiet blocks, as the batch
// workloads do, would pick a phase of that cycle instead.
func serveTiming(m map[string]float64, log io.Writer, blocks []block) {
	var secs, lat, cold, warm []float64
	var total float64
	for _, b := range blocks {
		secs = append(secs, b.seconds)
		total += b.seconds
		lat, cold, warm = append(lat, b.lat...), append(cold, b.cold...), append(warm, b.warm...)
	}
	m["pass_s"] = median(secs)
	m["ops_per_s"] = float64(len(lat)) / total
	latencyMetrics(m, log, lat, cold, warm)
	fmt.Fprintf(log, "  timing from %d passes of %d requests\n", len(blocks), requestsPerPass)
}
