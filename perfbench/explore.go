package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/explore"
	"dualbank/internal/machine"
)

// The explore-sweep workload is one design-space exploration pass per
// iteration: explore.Explore over the suite `dspexplore -bench-report`
// pins (budget 200), then explore.ExploreHW over the same six programs
// on the 2x1…4x2 geometry grid, both through one fresh bench.Harness
// on a single worker. The seed shuffles the order the hardware sweep
// visits the programs in.

// exploreBaseline is the committed BENCH_explore.json, which the
// exploration's report must reproduce byte for byte.
//
//go:embed baselines/explore.json
var exploreBaseline []byte

// hwBaseline holds the six programs' entries of the committed
// BENCH_hw.json, with its geometry grid and compiler arms.
//
//go:embed baselines/hw.json
var hwBaseline []byte

// exploreSuite is the suite `dspexplore -bench-report` explores.
var exploreSuite = []string{"fir_32_1", "iir_1_1", "mult_4_4", "fft_256", "adpcm", "histogram"}

type exploreState struct {
	progs      []bench.Program
	specs      []machine.BankSpec
	arms       []explore.Config
	hwBase     map[string][]byte            // program → its HWBenchReport as JSON
	hwFrontier map[string][]explore.HWPoint // program → its baseline frontier
}

func setupExplore() (*exploreState, error) {
	var hw explore.HWReport
	if err := json.Unmarshal(hwBaseline, &hw); err != nil {
		return nil, fmt.Errorf("hw baseline: %w", err)
	}
	st := &exploreState{hwBase: make(map[string][]byte), hwFrontier: make(map[string][]explore.HWPoint)}
	for _, br := range hw.Benchmarks {
		b, err := json.Marshal(br)
		if err != nil {
			return nil, err
		}
		st.hwBase[br.Bench] = b
		st.hwFrontier[br.Bench] = br.Frontier
	}
	for _, g := range hw.Geometries {
		var s machine.BankSpec
		if _, err := fmt.Sscanf(g, "%dx%d", &s.Banks, &s.PortsPerBank); err != nil {
			return nil, fmt.Errorf("hw baseline geometry %q: %w", g, err)
		}
		st.specs = append(st.specs, s)
	}
	for _, k := range hw.Configs {
		c, err := explore.ParseConfig(k)
		if err != nil {
			return nil, fmt.Errorf("hw baseline config %q: %w", k, err)
		}
		st.arms = append(st.arms, c)
	}
	byName := make(map[string]bench.Program)
	for _, p := range renderSuiteShared() {
		byName[p.Name] = p
	}
	for _, name := range exploreSuite {
		p, ok := byName[name]
		if !ok || st.hwBase[name] == nil {
			return nil, fmt.Errorf("explore suite program %s missing from the suite or the hw baseline", name)
		}
		st.progs = append(st.progs, p)
	}
	return st, nil
}

// explorePass is one pass's measurements. Its operations are the
// evaluations, cache hits included; its latency samples are the
// executed ones, in execution order, which is the same in every pass
// of a run.
type explorePass struct {
	seconds          float64
	ops              int
	samples          []opSample
	cycles, memWords int64
}

// check compares a pass's reports with the baselines and tallies every
// evaluation: those of a benchmark whose report differs count as
// mismatches, and a difference in the suite-level report fails all of
// the exploration's evaluations.
func (st *exploreState) check(rep *explore.Report, hw *explore.HWReport, t *tally) {
	got, err := json.MarshalIndent(rep, "", "  ")
	suiteOK := err == nil && bytes.Equal(append(got, '\n'), exploreBaseline)
	for _, br := range rep.Benchmarks {
		for i := 0; i < br.Evals; i++ {
			if suiteOK {
				t.add(opOK, "")
			} else {
				t.add(failMismatch, "exploration report differs from BENCH_explore.json at "+br.Bench)
			}
		}
	}
	for _, br := range hw.Benchmarks {
		b, err := json.Marshal(br)
		ok := err == nil && bytes.Equal(b, st.hwBase[br.Bench])
		for range br.Points {
			if ok {
				t.add(opOK, "")
			} else {
				t.add(failMismatch, "hardware sweep differs from BENCH_hw.json at "+br.Bench)
			}
		}
	}
}

// hwOrder returns the programs in the order the seed's hardware sweep
// visits them.
func (st *exploreState) hwOrder(seed int64) []bench.Program {
	out := make([]bench.Program, len(st.progs))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(st.progs)) {
		out[i] = st.progs[j]
	}
	return out
}

// measure runs one untraced pass through a fresh harness.
func (st *exploreState) measure(ctx context.Context, hwProgs []bench.Program, t *tally) (explorePass, error) {
	var pp explorePass
	h := bench.NewHarness(1)
	// Each executed evaluation is timed from the harness's
	// instrumentation hook, which fires as it starts, until the next one
	// starts or its batch returns.
	seen := make(map[string]bool)
	var started time.Time
	open := false
	closeOp := func(now time.Time) {
		if open {
			pp.samples[len(pp.samples)-1].ms = float64(now.Sub(started).Nanoseconds()) / 1e6
			open = false
		}
	}
	h.Intercept = func(_ context.Context, p bench.Program, _ alloc.Mode) error {
		now := time.Now()
		closeOp(now)
		pp.samples = append(pp.samples, opSample{id: len(pp.samples), cold: !seen[p.Name]})
		seen[p.Name] = true
		started, open = now, true
		return nil
	}
	evalB := func(ctx context.Context, p bench.Program, items []bench.BatchItem) []bench.BatchOutcome {
		out := h.RunBatchCtx(ctx, p, items)
		closeOp(time.Now())
		for _, o := range out {
			if o.Err == nil {
				pp.cycles += o.Res.Cycles
				pp.memWords += int64(o.Res.Mem.Total())
			}
		}
		return out
	}
	t0 := time.Now()
	rep, err := explore.Explore(ctx, st.progs, explore.Options{EvaluateBatch: evalB})
	if err != nil {
		return pp, err
	}
	hw, err := explore.ExploreHW(ctx, hwProgs, st.specs, explore.Options{Harness: h})
	if err != nil {
		return pp, err
	}
	closeOp(time.Now())
	pp.seconds = time.Since(t0).Seconds()
	st.check(rep, hw, t)
	pp.ops = rep.Evals
	for _, br := range hw.Benchmarks {
		pp.ops += len(br.Points)
		for _, pt := range br.Points {
			if pt.Err == "" {
				pp.cycles += pt.Cycles
				pp.memWords += int64(pt.Cost)
			}
		}
	}
	return pp, nil
}

// memoEntry is one measurement of the traced pass's result memo.
type memoEntry struct {
	p    bench.Program
	mode alloc.Mode
	ro   bench.RunOptions
	res  bench.Result
	err  error
}

// tracedSweep replays one pass with every evaluation measured pass by
// pass. Its memo is keyed by bench.CacheKey, the harness's own memo
// key, so it hits and misses exactly where a fresh harness would.
type tracedSweep struct {
	tr   *tracer
	n    *layerCounts
	memo map[string]*memoEntry
}

// evalBatch is the explorer's batched evaluator: one replayer (one set
// of back-end scratch) per batch, as bench.Harness.RunBatchCtx shares
// one compiler per batch.
func (ts *tracedSweep) evalBatch(ctx context.Context, parent int, p bench.Program, items []bench.BatchItem) []bench.BatchOutcome {
	bs := ts.tr.start("explore.evaluate_batch", parent)
	defer ts.tr.end(bs)
	rp := &replayer{tr: ts.tr, n: ts.n}
	out := make([]bench.BatchOutcome, len(items))
	for i, it := range items {
		key := bench.CacheKey(p, it.Mode, it.Opts)
		if e, ok := ts.memo[key]; ok {
			ts.n.cacheHits.Add(1)
			out[i] = bench.BatchOutcome{Res: e.res, Cached: true, Err: e.err}
			continue
		}
		ts.n.cacheMisses.Add(1)
		e := &memoEntry{p: p, mode: it.Mode, ro: it.Opts}
		e.res, e.err = rp.run(ctx, bs, p, it.Mode, it.Opts)
		ts.memo[key] = e
		out[i] = bench.BatchOutcome{Res: e.res, Err: e.err}
	}
	return out
}

// measureTraced runs one traced pass and returns its wall time. The
// hardware sweep is replayed arm by arm as explore.ExploreHW runs it —
// every geometry's arms as one batch — since ExploreHW evaluates
// through the harness directly.
func (st *exploreState) measureTraced(ctx context.Context, ts *tracedSweep, hwProgs []bench.Program, t *tally) (float64, error) {
	t0 := time.Now()
	es := ts.tr.start("explore", noSpan)
	rep, err := explore.Explore(ctx, st.progs, explore.Options{
		EvaluateBatch: func(ctx context.Context, p bench.Program, items []bench.BatchItem) []bench.BatchOutcome {
			return ts.evalBatch(ctx, es, p, items)
		},
	})
	ts.tr.end(es)
	if err != nil {
		return 0, err
	}
	hs := ts.tr.start("explore.hw", noSpan)
	hw := &explore.HWReport{}
	for _, p := range hwProgs {
		br := explore.HWBenchReport{Bench: p.Name}
		for _, s := range st.specs {
			n := s.Norm()
			items := make([]bench.BatchItem, len(st.arms))
			keys := make([]string, len(st.arms))
			for i, c := range st.arms {
				c.Banks, c.Ports = n.Banks, n.PortsPerBank
				c = c.Canon()
				keys[i] = c.Key()
				items[i] = bench.BatchItem{Mode: c.Mode(), Opts: c.RunOptions()}
			}
			for i, o := range ts.evalBatch(ctx, hs, p, items) {
				pt := explore.HWPoint{Banks: n.Banks, Ports: n.PortsPerBank, HW: n.HardwareCost(), Config: keys[i]}
				if o.Err != nil {
					pt.Err = o.Err.Error()
				} else {
					pt.Cycles, pt.Cost = o.Res.Cycles, o.Res.Mem.Total()
				}
				br.Points = append(br.Points, pt)
			}
		}
		// The replay computes no frontier; its points are checked, with
		// the baseline's frontier standing in.
		br.Frontier = st.hwFrontier[p.Name]
		hw.Benchmarks = append(hw.Benchmarks, br)
	}
	ts.tr.end(hs)
	seconds := time.Since(t0).Seconds()
	st.check(rep, hw, t)
	ts.n.explorEvals.Add(int64(rep.Evals + len(hwProgs)*len(st.specs)*len(st.arms)))
	return seconds, nil
}

// verifyReplay re-measures every operation the traced pass replayed
// with bench.RunCtx and fails loudly on any difference.
func verifyReplay(ctx context.Context, memo map[string]*memoEntry, t *tally, log io.Writer) {
	for key, e := range memo {
		res, err := bench.RunCtx(ctx, e.p, e.mode, e.ro)
		switch {
		case (err == nil) != (e.err == nil):
			fmt.Fprintf(log, "perfbench: REPLAY DIVERGES from bench.RunCtx on %s: error %v vs %v\n", key, e.err, err)
			t.add(failMismatch, "replay diverges from bench.RunCtx on "+key)
		case err == nil && !sameMeasurement(e.res, res):
			fmt.Fprintf(log, "perfbench: REPLAY DIVERGES from bench.RunCtx on %s: %+v vs %+v\n", key, e.res, res)
			t.add(failMismatch, "replay diverges from bench.RunCtx on "+key)
		default:
			t.add(opOK, "")
		}
	}
}

func runExplore(ctx context.Context, cfg runConfig) (*outcome, error) {
	st, err := setupExplore()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	hwOrder := st.hwOrder(cfg.seed)
	out := &outcome{tally: &tally{}, metrics: map[string]float64{}}

	// One untimed pass warms caches and lazily built state.
	if _, err := st.measure(ctx, hwOrder, out.tally); err != nil {
		return nil, err
	}

	if cfg.trace {
		tr, n := newTracer(), &layerCounts{}
		var untraced, traced []float64
		for t0 := time.Now(); len(traced) == 0 || time.Since(t0).Seconds() < cfg.seconds; {
			pp, err := st.measure(ctx, hwOrder, out.tally)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, pp.seconds)
			ts := &tracedSweep{tr: tr, n: n, memo: make(map[string]*memoEntry)}
			secs, err := st.measureTraced(ctx, ts, hwOrder, out.tally)
			if err != nil {
				return nil, err
			}
			if len(traced) == 0 {
				verifyReplay(ctx, ts.memo, out.tally, cfg.log)
			}
			traced = append(traced, secs)
		}
		out.metrics = layerMetrics(cfg.log, tr, n, float64(len(traced)))
		return out, finishTrace(cfg, tr, out.metrics, untraced, traced)
	}

	var passes []float64
	var samples [][]opSample
	var pp explorePass
	evals := 0
	rss := startRSS()
	alloc0 := heapBytes()
	for t0 := time.Now(); len(passes) == 0 || time.Since(t0).Seconds() < cfg.seconds; {
		cfg.setup.tick()
		if pp, err = st.measure(ctx, hwOrder, out.tally); err != nil {
			return nil, err
		}
		passes = append(passes, pp.seconds)
		samples = append(samples, pp.samples)
		evals += pp.ops
	}
	allocBytes := heapBytes() - alloc0
	m := out.metrics
	m["sim_cycles"] = float64(pp.cycles)
	m["mem_words"] = float64(pp.memWords)
	batchTiming(m, cfg.log, passes, pp.ops, samples)
	return out, commonMetrics(m, out.tally, evals, allocBytes, rss)
}
