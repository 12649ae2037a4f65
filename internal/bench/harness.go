package bench

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
	"dualbank/internal/cost"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// This file is the parallel experiment harness: a bounded worker pool
// that fans (benchmark × mode) jobs across CPUs, layered over a
// concurrency-safe, single-flight, bounded memo of Run results. The
// SingleBank baseline — which every figure and table measures against —
// is compiled and simulated exactly once per Harness no matter how many
// experiments share it, and overlapping arms (e.g. the CB and Ideal
// columns appearing in both Figure 7 and the memory-organisation study)
// are likewise deduplicated. Row order and rendered output are
// byte-identical to the serial harness at any worker count.

// Harness runs experiments through a worker pool and a memoized
// result cache. The zero value is not usable; call NewHarness.
type Harness struct {
	// Parallel is the maximum number of concurrent compile+simulate
	// jobs; 1 reproduces the serial harness exactly.
	Parallel int

	// Engine selects the simulation engine for every measurement the
	// harness itself schedules (figures, tables, sweeps). The zero value
	// is the compiled engine; both engines produce identical figures. Set
	// it before the harness sees traffic.
	Engine Engine

	// Intercept, when non-nil, runs before every cache-miss
	// computation, with the program built. A non-nil return aborts the
	// measurement with that error — the fault-injection and
	// instrumentation seam. Set it before the harness sees traffic; it
	// is read without locking.
	Intercept func(ctx context.Context, p Program, mode alloc.Mode) error

	// L2, when non-nil, is a shared second-level result cache consulted
	// on every in-memory cache miss before computing and written through
	// after every successful computation. The lookup happens inside the
	// single-flight slot, so at most one goroutine per process performs
	// the (possibly remote or on-disk) L2 round trip for a key. Set it
	// before the harness sees traffic; it is read without locking.
	L2 ResultCache

	// results memoizes measurements by request. fronts memoizes the
	// front end of every program measured recently, so each result
	// miss pays only its back end; each of its entries also carries the
	// program's back-end memo.
	results memo[runKey, measured]
	fronts  memo[prepKey, *prepEntry]

	// compilers lends a compiler to every miss that brings none of its
	// own, so misses, their front ends included, reuse warm scratch
	// whichever goroutine runs them.
	compilers sync.Pool

	hits, misses, l2hits, prepares, sims atomic.Int64
	// droppedGraphs counts the graphs of the front ends fronts dropped.
	droppedGraphs atomic.Int64
}

// The memo bounds, in entries. resultMemoSize holds a full evaluation
// (149 measurements), an explore sweep (465) and Explore plus
// ExploreHW over the whole suite (1,757) without a drop. prepMemoSize
// holds the benchmark suite plus the FIR sweep, so a full evaluation
// prepares each program once. backEndMemoSize bounds the plans kept
// per program.
const (
	resultMemoSize  = 1 << 13
	prepMemoSize    = 32
	backEndMemoSize = 1 << 9
)

// measured is a result-memo value: the measurement, and whether it was
// read from the L2 rather than computed by this harness.
type measured struct {
	Result
	fromL2 bool
}

// ResultCache is a shared second-level result cache — typically the
// content-addressed explore store promoted to a fleet-wide L2 — keyed
// by the canonical CacheKey string. Implementations must be safe for
// concurrent use. Get returns only successful measurements; Put is
// called only with them. Both are best-effort: a Get miss recomputes
// and a failed Put loses nothing but a future shortcut.
type ResultCache interface {
	Get(key string) (Result, bool)
	Put(key string, r Result)
}

// RunTiming is the compile/simulate wall-clock split of one executed
// (benchmark, mode) measurement — one entry per kept cache miss. The
// harness runs each program's front end once, and its time is charged
// only to the measurement that ran it.
type RunTiming struct {
	Bench          string     `json:"bench"`
	Mode           alloc.Mode `json:"mode"`
	CompileSeconds float64    `json:"compile_seconds"`
	SimSeconds     float64    `json:"sim_seconds"`
}

// runKey identifies one memoizable measurement. Benchmark sources are
// pure functions of their name (the name encodes the generator
// parameters, e.g. fir_256_64), so name × mode × run options ×
// machine-configuration fingerprint determines the result. Every
// RunOptions knob that can change the measurement — partitioner, FM
// pass bound, profile weighting, and the duplication set — is part of
// the key, so distinct configurations can never alias.
type runKey struct {
	bench    string
	mode     alloc.Mode
	method   core.Method
	fmPasses int
	profiled bool
	// dup encodes the duplication set: "-" for nil (the paper's
	// marked-arrays policy), otherwise "=" plus the sorted,
	// deduplicated, comma-joined names ("=" alone is the empty set).
	dup string
	// banks and perBank are the normalized bank geometry. With the
	// mode's port model they make the machine fingerprint
	// (FingerprintSpec), which String spells out.
	banks, perBank int
	// perm encodes a bank permutation ("" when none): cycle counts are
	// invariant under it but the per-bank memory split is not, so
	// permuted measurements never alias unpermuted ones.
	perm string
	// engine is the simulation engine that produced the entry. Results
	// are engine-independent by the differential pinning, but the
	// recorded timings are not, so entries never alias across engines.
	engine Engine
}

// String renders the key's canonical wire form — the identity the
// cluster tier hashes for consistent routing and the shared L2 result
// cache stores under. Every key field appears.
func (k runKey) String() string {
	s := "run|" + k.bench +
		"|mode=" + k.mode.String() +
		"|part=" + k.method.String() +
		"|fmp=" + strconv.Itoa(k.fmPasses) +
		"|prof=" + strconv.FormatBool(k.profiled) +
		"|dup=" + k.dup
	if k.perm != "" {
		// Appended only when set, so classic-machine keys are unchanged.
		s += "|perm=" + k.perm
	}
	spec := machine.BankSpec{Banks: k.banks, PortsPerBank: k.perBank}
	return s + "|engine=" + k.engine.String() + "|" + FingerprintSpec(k.mode, spec)
}

// CacheKey returns the canonical string identity of one memoizable
// measurement: the exact single-flight memo key — benchmark, mode,
// every result-affecting RunOptions knob including the engine, and the
// machine-configuration fingerprint. Two requests share a CacheKey if
// and only if the harness would coalesce them onto one cache entry, so
// the string is safe to use as a consistent-hash routing key and as a
// shared-cache address.
func CacheKey(p Program, mode alloc.Mode, ro RunOptions) string {
	return newRunKey(p, mode, ro).String()
}

// newRunKey canonicalizes one measurement request into its cache key.
// Knobs that provably cannot affect the result under the requested
// mode are normalized away (the FM pass bound without the FM
// partitioner, profile weighting and duplication sets on modes that
// never partition or duplicate), so equivalent requests share an
// entry.
func newRunKey(p Program, mode alloc.Mode, ro RunOptions) runKey {
	spec := machine.BankSpec{Banks: ro.Banks, PortsPerBank: ro.Ports}.Norm()
	key := runKey{
		bench:    p.Name,
		mode:     mode,
		method:   ro.Partitioner,
		fmPasses: ro.FMPasses,
		profiled: ro.Profiled,
		dup:      "-",
		banks:    spec.Banks,
		perBank:  spec.PortsPerBank,
		engine:   ro.Engine,
	}
	if ro.BankPerm != nil {
		parts := make([]string, len(ro.BankPerm))
		for i, b := range ro.BankPerm {
			parts[i] = strconv.Itoa(b)
		}
		key.perm = strings.Join(parts, ",")
	}
	if key.method != core.MethodFM {
		key.fmPasses = 0
	}
	if !mode.Partitioned() {
		key.profiled = false
	}
	if mode == alloc.CBDup && ro.DupOnly != nil {
		names := append([]string(nil), ro.DupOnly...)
		sort.Strings(names)
		names = slices.Compact(names)
		key.dup = "=" + strings.Join(names, ",")
	}
	return key
}

// FingerprintSpec returns the machine and port-model configuration
// string a measurement under mode on the given bank geometry depends
// on — the string every cache key ends with, so cached results can
// never leak across architecture variants. The explorer's on-disk
// checkpoint store includes it in its content-addressed keys for the
// same reason. A non-default bank spec appends an "hw=" geometry term
// (and its own unit count); the classic machine's string (the zero
// spec's) has none, preserving every existing cache and checkpoint
// key.
func FingerprintSpec(mode alloc.Mode, spec machine.BankSpec) string {
	ports := machine.PortsBanked
	switch mode {
	case alloc.Ideal:
		ports = machine.PortsDualPorted
	case alloc.LowOrder:
		ports = machine.PortsLowOrder
	}
	n := spec.Norm()
	s := fmt.Sprintf("units=%d;bank=%d;stack=%d;ports=%v",
		n.NumUnits(), machine.BankWords, machine.StackWords, ports)
	if !n.IsDefault() {
		s += ";hw=" + n.String()
	}
	return s
}

// NewHarness returns a harness running at most parallel concurrent
// jobs (values below 1 are treated as 1).
func NewHarness(parallel int) *Harness {
	if parallel < 1 {
		parallel = 1
	}
	h := &Harness{
		Parallel: parallel,
		results: memo[runKey, measured]{max: resultMemoSize, keepErr: true, name: func(k runKey) string {
			return k.bench + "/" + k.mode.String() + ": awaiting shared result"
		}},
		fronts: memo[prepKey, *prepEntry]{max: prepMemoSize, name: func(k prepKey) string {
			return k.name + ": awaiting shared front end"
		}},
	}
	h.fronts.evicted = func(e *prepEntry) { h.droppedGraphs.Add(int64(e.prep.Graphs())) }
	h.compilers.New = func() any { return new(pipeline.Compiler) }
	return h
}

// CacheStats reports the memoized cache's traffic: Misses is the
// number of compile+simulate executions performed, Hits the number of
// requests served from (or coalesced onto) an existing in-memory
// entry, and L2Hits the number of measurements satisfied by the shared
// second-level cache instead of computing. Hits + Misses + L2Hits
// accounts for every measurement request when an L2 is configured;
// without one, L2Hits stays zero. Prepares is the number of front-end
// runs the misses needed: one per program while the front-end memo
// holds it. Graphs is the number of interference graphs those programs
// built: at most one per program and weight policy, counted when the
// program leaves the memo or at the call. Sims is the number of
// simulations the misses ran: a miss whose allocation was already
// measured on its engine, or is being measured, runs none.
type CacheStats struct {
	Hits, Misses, L2Hits, Prepares, Graphs, Sims int64
}

// Stats returns the cache counters.
func (h *Harness) Stats() CacheStats {
	graphs := h.droppedGraphs.Load()
	h.fronts.each(func(e *prepEntry) { graphs += int64(e.prep.Graphs()) })
	return CacheStats{
		Hits: h.hits.Load(), Misses: h.misses.Load(),
		L2Hits: h.l2hits.Load(), Prepares: h.prepares.Load(),
		Graphs: graphs, Sims: h.sims.Load(),
	}
}

// Run measures one (benchmark, mode) pair through the cache: the first
// request computes via the package-level Run, concurrent and repeated
// requests share the result.
func (h *Harness) Run(p Program, mode alloc.Mode) (Result, error) {
	res, _, err := h.RunCtx(context.Background(), p, mode, RunOptions{Engine: h.Engine})
	return res, err
}

// RunCtx measures one (benchmark, mode, partitioner) triple through
// the single-flight cache, honoring ctx; cached reports whether the
// result came from (or was coalesced onto) an existing entry. A
// request arriving while another computes the same key waits for that
// computation, but only as long as its own context allows. If the
// computing request's context fires mid-measurement the partial result
// is discarded and the entry removed, so coalesced waiters (and all
// later requests) recompute rather than inherit a stranger's
// cancellation error. A waiter taking over re-checks the cache first
// and verifies its own context is still live — a dead waiter must
// never start (and then abandon) a fresh computation. Transient
// failures (errors exposing Transient() bool, e.g. injected faults)
// are likewise never cached: the entry is removed so the next request
// retries. p may only name its benchmark (see Program): it is built
// inside the single-flight slot, on a miss, after the L2 lookup. A
// miss whose ro.Compiler is nil borrows one from the harness.
func (h *Harness) RunCtx(ctx context.Context, p Program, mode alloc.Mode, ro RunOptions) (res Result, cached bool, err error) {
	key := newRunKey(p, mode, ro)
	v, shared, err := h.results.do(ctx, key, func() (measured, error) {
		// Inside the single-flight slot, try the shared L2 first: a hit
		// means some node (possibly this one, in a previous life)
		// already computed the measurement, so only Bench and Mode —
		// which the L2 does not persist — need restoring. Exactly one
		// goroutine per process pays the L2 round trip per key.
		if h.L2 != nil {
			if res, ok := h.L2.Get(key.String()); ok {
				res.Bench, res.Mode = p.Name, mode
				h.l2hits.Add(1)
				return measured{Result: res, fromL2: true}, nil
			}
		}
		h.misses.Add(1)
		res, err := h.compute(ctx, p, mode, ro)
		return measured{Result: res}, err
	})
	if shared {
		h.hits.Add(1)
	} else if err == nil && !v.fromL2 && h.L2 != nil {
		// Write-through happens after waiters are released: they need
		// the result, not the L2 persistence, and a slow shared store
		// must never stall a coalesced request.
		h.L2.Put(key.String(), v.Result)
	}
	return v.Result, shared || v.fromL2, err
}

// RunBatchCtx measures one benchmark under each item's configuration
// through RunCtx and returns the outcomes in item order; one item's
// failure, its cancellation included, leaves the rest to run. It stays
// only because perfbench, the benchmark module, calls it; batching
// saves nothing now that every miss borrows a compiler.
func (h *Harness) RunBatchCtx(ctx context.Context, p Program, items []BatchItem) []BatchOutcome {
	out := make([]BatchOutcome, len(items))
	for i, it := range items {
		out[i].Res, out[i].Cached, out[i].Err = h.RunCtx(ctx, p, it.Mode, it.Opts)
	}
	return out
}

// Cached reports whether the harness can serve the measurement without
// a fresh computation: a kept successful entry, or one currently in
// flight that a request would coalesce onto. It never blocks and never
// computes — the cluster tier's replica probe, deciding between
// serving a hot key locally and forwarding its cold miss to the
// owner. An entry the bound dropped reads false.
func (h *Harness) Cached(p Program, mode alloc.Mode, ro RunOptions) bool {
	return h.results.ready(newRunKey(p, mode, ro))
}

// compute is one cache-miss execution. A name-only program is built
// first (see Program); then the Intercept hook (fault injection,
// instrumentation) runs and may veto the measurement. The program's
// front end comes from the memo. The allocation is planned here; the
// rest of the back end and the simulation run too, unless the
// program's back-end memo already measured that plan. Without a
// compiler of its own the miss borrows one from the harness, returned
// once runPrepared has read the simulated machine; a front end the
// memo lacks is prepared on that compiler too.
func (h *Harness) compute(ctx context.Context, p Program, mode alloc.Mode, ro RunOptions) (Result, error) {
	if p.Source == "" {
		built, ok := ByName(p.Name)
		if !ok {
			return Result{}, fmt.Errorf("%s/%v: unknown benchmark", p.Name, mode)
		}
		p = built
	}
	if h.Intercept != nil {
		if err := h.Intercept(ctx, p, mode); err != nil {
			return Result{}, err
		}
	}
	if ro.Compiler == nil {
		cc := h.compilers.Get().(*pipeline.Compiler)
		defer h.compilers.Put(cc)
		ro.Compiler = cc
	}
	var frontSeconds float64
	e, _, err := h.fronts.do(ctx, prepKey{name: p.Name, source: p.Source}, func() (*prepEntry, error) {
		h.prepares.Add(1)
		start := time.Now()
		prep, err := ro.Compiler.Prepare(ctx, p.Source, p.Name, opt.Options{})
		frontSeconds = time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		return &prepEntry{prep: prep, backs: memo[memoKey, Result]{max: backEndMemoSize, name: func(memoKey) string {
			return "awaiting shared back end"
		}}}, nil
	})
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	res, err := runPrepared(ctx, p, e.prep, mode, ro, &e.backs, &h.sims)
	if err != nil {
		return Result{}, err
	}
	res.CompileSeconds += frontSeconds
	return res, nil
}

// prepKey identifies one program's front end. Holding the source as a
// struct field hashes it in place on every lookup, where a joined
// string would copy it first.
type prepKey struct{ name, source string }

// prepEntry is a front-end memo value: one program's front end and its
// back-end memo, dropped with it. A failed front end is never kept.
type prepEntry struct {
	prep  *pipeline.Prepared
	backs memo[memoKey, Result]
}

// Timings returns the compile/simulate split of every measurement the
// harness executed and still keeps (one entry per kept cache miss),
// sorted by benchmark then mode for deterministic reporting.
func (h *Harness) Timings() []RunTiming {
	var out []RunTiming
	h.results.each(func(v measured) {
		if !v.fromL2 {
			out = append(out, RunTiming{
				Bench: v.Bench, Mode: v.Mode,
				CompileSeconds: v.CompileSeconds, SimSeconds: v.SimSeconds,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// runArms measures each program under the single-bank baseline and
// then under each of modes, on up to h.Parallel workers, and returns
// every program's baseline and its results in mode order. On failure it
// returns the error of the first failing measurement in that order,
// matching the serial harness's first-error semantics.
func (h *Harness) runArms(progs []Program, modes []alloc.Mode) (base []Result, arms [][]Result, err error) {
	stride := len(modes) + 1
	results := make([]Result, len(progs)*stride)
	errs := make([]error, len(results))
	next := make(chan int)
	var wg sync.WaitGroup
	for range max(1, min(h.Parallel, len(results))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mode := alloc.SingleBank
				if k := i % stride; k > 0 {
					mode = modes[k-1]
				}
				results[i], _, errs[i] = h.RunCtx(context.Background(), progs[i/stride], mode, RunOptions{Engine: h.Engine})
			}
		}()
	}
	for i := range results {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	base = make([]Result, len(progs))
	arms = make([][]Result, len(progs))
	for i := range progs {
		base[i], arms[i] = results[i*stride], results[i*stride+1:(i+1)*stride]
	}
	return base, arms, nil
}

// RunFigure measures the given benchmarks under the given modes,
// producing rows identical to the serial package-level RunFigure.
func (h *Harness) RunFigure(progs []Program, modes []alloc.Mode) ([]FigureRow, error) {
	base, arms, err := h.runArms(progs, modes)
	if err != nil {
		return nil, err
	}
	var rows []FigureRow
	for i, p := range progs {
		row := FigureRow{
			Bench:      p.Name,
			BaseCycles: base[i].Cycles,
			Gains:      make(map[alloc.Mode]float64, len(modes)),
			Cycles:     make(map[alloc.Mode]int64, len(modes)),
		}
		for k, m := range modes {
			res := arms[i][k]
			row.Gains[m] = Gain(base[i], res)
			row.Cycles[m] = res.Cycles
			if m == alloc.CBDup {
				row.Duplicated = res.Duplicated
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure7 reproduces the kernel experiment through the pool and cache.
func (h *Harness) Figure7() ([]FigureRow, error) { return h.RunFigure(Kernels(), Figure7Modes) }

// Figure8 reproduces the application experiment.
func (h *Harness) Figure8() ([]FigureRow, error) { return h.RunFigure(Applications(), Figure8Modes) }

// Organizations runs the memory-organisation study over the whole
// suite: it quantifies the paper's §1.2 argument for high-order
// interleaving by pitting CB partitioning against a low-order
// interleaved memory whose run-time bank conflicts stall the pipeline.
// Its CB/CBDup/Ideal arms and every baseline are cache hits when
// Figure 7 and Figure 8 ran first on the same harness.
func (h *Harness) Organizations() ([]FigureRow, error) {
	return h.RunFigure(append(Kernels(), Applications()...), OrganizationModes)
}

// Table3 reproduces the performance/cost trade-off table.
func (h *Harness) Table3() ([]Table3Row, error) {
	apps := Applications()
	base, arms, err := h.runArms(apps, Table3Modes)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for i, p := range apps {
		row := Table3Row{Bench: p.Name, Metrics: make(map[alloc.Mode]cost.Metrics)}
		for k, m := range Table3Modes {
			row.Metrics[m] = cost.Compare(base[i].Cycles, arms[i][k].Cycles, base[i].Mem, arms[i][k].Mem)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SweepFIR measures how the CB partitioning gain develops with filter
// order, through the pool: the longer the inner loop dominates, the
// closer the whole kernel approaches the 2-cycles-per-tap dual-bank
// steady state. It generalises the paper's fir_256_64 / fir_32_1
// pairing into a curve.
func (h *Harness) SweepFIR(taps []int, samples int) ([]SweepRow, error) {
	progs := make([]Program, len(taps))
	for i, n := range taps {
		progs[i] = FIR(n, samples)
	}
	base, arms, err := h.runArms(progs, []alloc.Mode{alloc.CB})
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for i, p := range progs {
		rows = append(rows, SweepRow{
			Label:      p.Name,
			BaseCycles: base[i].Cycles,
			CBGain:     Gain(base[i], arms[i][0]),
		})
	}
	return rows, nil
}
