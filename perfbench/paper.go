package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/pipeline"
)

// The paper-matrix workload measures the paper's 23 benchmarks under
// its seven allocation modes — 161 fresh measurements per pass, each a
// bench.RunCtx on one reused pipeline.Compiler, one at a time. The seed
// shuffles the cell order of every pass.

// paperModes are the seven allocation modes of the paper's evaluation.
var paperModes = []alloc.Mode{
	alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup,
	alloc.FullDup, alloc.Ideal, alloc.LowOrder,
}

// paperBaseline pins every cell's cycles and memory words, as measured
// by bench.RunCtx on the repository's reference results; regenerate it
// with --capture-paper.
//
//go:embed baselines/paper.json
var paperBaseline []byte

// cellBase is one cell's pinned measurement.
type cellBase struct {
	Cycles    int64 `json:"cycles"`
	MemWords  int   `json:"mem_words"`
	DupStores int   `json:"dup_stores"`
}

func cellKey(name string, m alloc.Mode) string { return name + "/" + m.String() }

func baseOf(r bench.Result) cellBase {
	return cellBase{Cycles: r.Cycles, MemWords: r.Mem.Total(), DupStores: r.DupStores}
}

// renderSuite builds the paper's 23 benchmark programs afresh, in
// figure order: the Table 1 kernels, then the Table 2 applications.
// Rendering embeds every program's input data in its source, which is
// most of a workload's set-up.
func renderSuite() []bench.Program {
	return []bench.Program{
		bench.FFT(1024), bench.FFT(256),
		bench.FIR(256, 64), bench.FIR(32, 1),
		bench.IIR(4, 64), bench.IIR(1, 1),
		bench.Latnrm(32, 64), bench.Latnrm(8, 1),
		bench.LMSFIR(32, 64), bench.LMSFIR(8, 1),
		bench.MatMult(10), bench.MatMult(4),
		bench.ADPCM(), bench.LPC(), bench.Spectral(), bench.EdgeDetect(), bench.Compress(),
		bench.Histogram(), bench.V32Encode(), bench.G721MLEncode(), bench.G721MLDecode(),
		bench.G721WFEncode(), bench.Trellis(),
	}
}

// renderSuiteShared renders the suite and also readies the harness's
// own memoized copy, which bench.ByName and the server read.
func renderSuiteShared() []bench.Program {
	bench.Kernels()
	return renderSuite()
}

type cell struct {
	prog bench.Program
	mode alloc.Mode
}

type paperState struct {
	cells []cell
	base  map[string]cellBase
}

func setupPaper() (*paperState, error) {
	st := &paperState{}
	if err := json.Unmarshal(paperBaseline, &st.base); err != nil {
		return nil, fmt.Errorf("paper baseline: %w", err)
	}
	for _, p := range renderSuiteShared() {
		for _, m := range paperModes {
			if _, ok := st.base[cellKey(p.Name, m)]; !ok {
				return nil, fmt.Errorf("paper baseline has no cell %s", cellKey(p.Name, m))
			}
			st.cells = append(st.cells, cell{p, m})
		}
	}
	return st, nil
}

// paperPass is one pass's measurements.
type paperPass struct {
	seconds          float64
	samples          []opSample // by cell index
	cycles, memWords int64
	results          map[string]bench.Result
}

// measure runs every cell once in the given order, through rp when it
// is non-nil (the traced replay) and bench.RunCtx on cc otherwise, and
// checks each result against the baseline and, when want is non-nil,
// against bench.RunCtx's result for the same cell.
func (st *paperState) measure(ctx context.Context, order []int, cc *pipeline.Compiler, rp *replayer, want map[string]bench.Result, t *tally, log io.Writer) paperPass {
	pp := paperPass{results: make(map[string]bench.Result, len(order))}
	seen := make(map[string]bool)
	passStart := time.Now()
	for _, i := range order {
		c := st.cells[i]
		key := cellKey(c.prog.Name, c.mode)
		t0 := time.Now()
		var res bench.Result
		var err error
		if rp != nil {
			res, err = rp.run(ctx, noSpan, c.prog, c.mode, bench.RunOptions{})
		} else {
			res, err = bench.RunCtx(ctx, c.prog, c.mode, bench.RunOptions{Compiler: cc})
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		pp.samples = append(pp.samples, opSample{id: i, cold: !seen[c.prog.Name], ms: ms})
		seen[c.prog.Name] = true
		switch {
		case err != nil:
			t.add(failCheck, err.Error())
			continue
		case baseOf(res) != st.base[key]:
			t.add(failMismatch, fmt.Sprintf("%s: measured %+v, baseline %+v", key, baseOf(res), st.base[key]))
		case want != nil && !sameMeasurement(res, want[key]):
			fmt.Fprintf(log, "perfbench: REPLAY DIVERGES from bench.RunCtx on %s: %+v vs %+v\n", key, res, want[key])
			t.add(failMismatch, "replay diverges from bench.RunCtx on "+key)
		default:
			t.add(opOK, "")
		}
		pp.results[key] = res
		pp.cycles += res.Cycles
		pp.memWords += int64(res.Mem.Total())
	}
	pp.seconds = time.Since(passStart).Seconds()
	return pp
}

func runPaper(ctx context.Context, cfg runConfig) (*outcome, error) {
	st, err := setupPaper()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	out := &outcome{tally: &tally{}, metrics: map[string]float64{}}
	cc := new(pipeline.Compiler)
	order := func() []int { return rng.Perm(len(st.cells)) }

	// One untimed pass grows the compiler's scratch and warms caches.
	st.measure(ctx, order(), cc, nil, nil, out.tally, cfg.log)

	if cfg.trace {
		tr, n := newTracer(), &layerCounts{}
		rp := &replayer{tr: tr, n: n}
		var untraced, traced []float64
		for t0 := time.Now(); len(traced) == 0 || time.Since(t0).Seconds() < cfg.seconds; {
			o := order()
			plain := st.measure(ctx, o, cc, nil, nil, out.tally, cfg.log)
			untraced = append(untraced, plain.seconds)
			traced = append(traced, st.measure(ctx, o, nil, rp, plain.results, out.tally, cfg.log).seconds)
		}
		out.metrics = layerMetrics(cfg.log, tr, n, float64(len(traced)))
		return out, finishTrace(cfg, tr, out.metrics, untraced, traced)
	}

	var passes []float64
	var samples [][]opSample
	var pp paperPass
	ops := 0
	rss := startRSS()
	alloc0 := heapBytes()
	for t0 := time.Now(); len(passes) == 0 || time.Since(t0).Seconds() < cfg.seconds; {
		cfg.setup.tick()
		pp = st.measure(ctx, order(), cc, nil, nil, out.tally, cfg.log)
		passes = append(passes, pp.seconds)
		samples = append(samples, pp.samples)
		ops += len(pp.samples)
	}
	allocBytes := heapBytes() - alloc0
	m := out.metrics
	m["sim_cycles"] = float64(pp.cycles)
	m["mem_words"] = float64(pp.memWords)
	batchTiming(m, cfg.log, passes, len(st.cells), samples)
	return out, commonMetrics(m, out.tally, ops, allocBytes, rss)
}

// capturePaper measures every cell once with bench.RunCtx and writes
// the baseline the paper-matrix workload pins its results to.
func capturePaper(path string) error {
	base := make(map[string]cellBase)
	cc := new(pipeline.Compiler)
	for _, p := range renderSuite() {
		for _, m := range paperModes {
			res, err := bench.RunCtx(context.Background(), p, m, bench.RunOptions{Compiler: cc})
			if err != nil {
				return err
			}
			base[cellKey(p.Name, m)] = baseOf(res)
		}
	}
	b, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
