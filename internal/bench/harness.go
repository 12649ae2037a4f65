package bench

import (
	"context"
	"errors"
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
// concurrency-safe, single-flight memoized cache of Run results. The
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

	mu      sync.Mutex
	cache   map[runKey]*cacheEntry
	timings []RunTiming
	// prepared memoizes the front end of every program measured
	// recently, so each run-cache miss pays only its back end; order
	// lists its entries oldest first for eviction (see prepare). Each
	// entry also carries the program's back-end memo. droppedGraphs
	// counts the graphs of entries eviction dropped.
	prepared      map[prepKey]*prepEntry
	order         []*prepEntry
	droppedGraphs int64

	hits, misses, l2hits, prepares, sims atomic.Int64
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
// (benchmark, mode) measurement — one entry per cache miss. The
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
	dup    string
	config string
	// perm encodes a bank permutation ("" when none): cycle counts are
	// invariant under it but the per-bank memory split is not, so
	// permuted measurements never alias unpermuted ones.
	perm string
	// engine is the simulation engine that produced the entry. Results
	// are engine-independent by the differential pinning, but the
	// recorded timings are not, so entries never alias across engines.
	engine Engine
	// batched marks entries produced by a batched dispatch
	// (RunBatchCtx), whose timings reflect shared-arena amortization;
	// they never alias single-run entries.
	batched bool
}

// String renders the key's canonical wire form — the identity the
// cluster tier hashes for consistent routing and the shared L2 result
// cache stores under. Every in-memory key field except batched appears
// (batched only distinguishes timing amortization, never the result,
// so batched and single-run measurements share one L2 entry).
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
	return s + "|engine=" + k.engine.String() + "|" + k.config
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
	key := runKey{
		bench:    p.Name,
		mode:     mode,
		method:   ro.Partitioner,
		fmPasses: ro.FMPasses,
		profiled: ro.Profiled,
		dup:      "-",
		config:   configKeySpec(mode, machine.BankSpec{Banks: ro.Banks, PortsPerBank: ro.Ports}),
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

// cacheEntry is a single-flight slot: the first requester computes,
// concurrent requesters block on done. An entry whose computation was
// cut short by its requester's context is marked cancelled and removed
// from the cache before done closes, so waiters retry and later
// requests recompute — a client giving up must never poison the cache.
type cacheEntry struct {
	done      chan struct{}
	res       Result
	err       error
	cancelled bool
}

// configKeySpec fingerprints the machine and port-model configuration
// a measurement depends on, so cached results can never leak across
// architecture variants. A non-default bank spec appends an "hw="
// geometry term (and its own unit count); the classic machine's string
// is unchanged, preserving every existing cache and checkpoint key.
func configKeySpec(mode alloc.Mode, spec machine.BankSpec) string {
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

// Fingerprint returns the machine and port-model configuration string
// a measurement under mode depends on — the same string the memo
// cache keys on. The explorer's on-disk checkpoint store includes it
// in its content-addressed keys so checkpoints never leak across
// architecture variants.
func Fingerprint(mode alloc.Mode) string { return configKeySpec(mode, machine.BankSpec{}) }

// FingerprintSpec is Fingerprint for an explicit bank geometry; the
// zero spec reproduces Fingerprint exactly.
func FingerprintSpec(mode alloc.Mode, spec machine.BankSpec) string {
	return configKeySpec(mode, spec)
}

// NewHarness returns a harness running at most parallel concurrent
// jobs (values below 1 are treated as 1).
func NewHarness(parallel int) *Harness {
	if parallel < 1 {
		parallel = 1
	}
	return &Harness{
		Parallel: parallel,
		cache:    make(map[runKey]*cacheEntry),
		prepared: make(map[prepKey]*prepEntry),
	}
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
// measured on its engine runs none.
type CacheStats struct {
	Hits, Misses, L2Hits, Prepares, Graphs, Sims int64
}

// Stats returns the cache counters.
func (h *Harness) Stats() CacheStats {
	h.mu.Lock()
	graphs := h.droppedGraphs
	for _, e := range h.order {
		graphs += e.graphs()
	}
	h.mu.Unlock()
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
	return h.run(p, mode, nil)
}

// run is Run with optional reusable compiler scratch (each pool worker
// owns one).
func (h *Harness) run(p Program, mode alloc.Mode, cc *pipeline.Compiler) (Result, error) {
	res, _, err := h.RunCtx(context.Background(), p, mode, RunOptions{Compiler: cc, Engine: h.Engine})
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
// inside the single-flight slot, on a miss, after the L2 lookup.
func (h *Harness) RunCtx(ctx context.Context, p Program, mode alloc.Mode, ro RunOptions) (res Result, cached bool, err error) {
	return h.runEntry(ctx, newRunKey(p, mode, ro), p, mode, ro)
}

// RunBatchCtx measures one benchmark under many configuration variants
// through the single-flight cache, sharing one compiler (back-end
// scratch plus the compiled engine's recycled simulation arena) across
// every cache miss in the batch. Entries are keyed as batched, so a
// batched measurement never aliases a single-run one (their timings
// reflect different amortization). Outcomes land in item order;
// per-item failures — including one variant's cancellation — leave the
// remaining items to run on the same, reset arena.
func (h *Harness) RunBatchCtx(ctx context.Context, p Program, items []BatchItem) []BatchOutcome {
	cc := new(pipeline.Compiler)
	out := make([]BatchOutcome, len(items))
	for i, it := range items {
		ro := it.Opts
		if ro.Compiler == nil {
			ro.Compiler = cc
		}
		key := newRunKey(p, it.Mode, ro)
		key.batched = true
		out[i].Res, out[i].Cached, out[i].Err = h.runEntry(ctx, key, p, it.Mode, ro)
	}
	return out
}

// runEntry is the single-flight cache protocol for one key.
func (h *Harness) runEntry(ctx context.Context, key runKey, p Program, mode alloc.Mode, ro RunOptions) (res Result, cached bool, err error) {
	for {
		h.mu.Lock()
		if e, ok := h.cache[key]; ok {
			h.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return Result{}, false, fmt.Errorf("%s/%v: awaiting shared result: %w", p.Name, mode, ctx.Err())
			}
			if e.cancelled {
				// The computing request gave up (or hit a transient
				// fault). Loop to re-check the cache — another waiter
				// may already have republished — but only with a live
				// context: taking over just to cancel would evict
				// whatever that other waiter computes.
				if cerr := ctx.Err(); cerr != nil {
					return Result{}, false, fmt.Errorf("%s/%v: awaiting shared result: %w", p.Name, mode, cerr)
				}
				continue
			}
			h.hits.Add(1)
			return e.res, true, e.err
		}
		e := &cacheEntry{done: make(chan struct{})}
		h.cache[key] = e
		h.mu.Unlock()
		// Inside the single-flight slot, try the shared L2 first: a hit
		// means some node (possibly this one, in a previous life)
		// already computed the measurement, so only Bench and Mode —
		// which the L2 does not persist — need restoring. Exactly one
		// goroutine per process pays the L2 round trip per key.
		fromL2 := false
		if h.L2 != nil {
			if res, ok := h.L2.Get(key.String()); ok {
				res.Bench, res.Mode = p.Name, mode
				e.res, fromL2 = res, true
				h.l2hits.Add(1)
			}
		}
		if !fromL2 {
			h.misses.Add(1)
			e.res, e.err = h.compute(ctx, p, mode, ro)
		}
		h.mu.Lock()
		switch {
		case e.err != nil && (ctx.Err() != nil || isTransient(e.err)):
			e.cancelled = true
			delete(h.cache, key)
		case e.err == nil && !fromL2:
			h.timings = append(h.timings, RunTiming{
				Bench: p.Name, Mode: mode,
				CompileSeconds: e.res.CompileSeconds, SimSeconds: e.res.SimSeconds,
			})
		}
		h.mu.Unlock()
		close(e.done)
		// Write-through happens after waiters are released: they need
		// the result, not the L2 persistence, and a slow shared store
		// must never stall a coalesced request.
		if e.err == nil && !fromL2 && h.L2 != nil {
			h.L2.Put(key.String(), e.res)
		}
		return e.res, fromL2, e.err
	}
}

// Cached reports whether the harness can serve the measurement without
// a fresh computation: a completed successful entry, or one currently
// in flight that a request would coalesce onto. It never blocks and
// never computes — the cluster tier's replica probe, deciding between
// serving a hot key locally and forwarding its cold miss to the
// owner.
func (h *Harness) Cached(p Program, mode alloc.Mode, ro RunOptions) bool {
	h.mu.Lock()
	e, ok := h.cache[newRunKey(p, mode, ro)]
	h.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return !e.cancelled && e.err == nil
	default:
		// In flight: a request arriving now coalesces onto it.
		return true
	}
}

// compute is one cache-miss execution. A name-only program is built
// first (see Program); then the Intercept hook (fault injection,
// instrumentation) runs and may veto the measurement. The program's
// front end comes from the memo. The allocation is planned here; the
// rest of the back end and the simulation run too, unless the
// program's back-end memo already measured that plan.
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
	e, frontSeconds, err := h.prepare(ctx, p)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	res, err := runPrepared(ctx, p, e.prep, mode, ro, &e.memo)
	if err != nil {
		return Result{}, err
	}
	res.CompileSeconds += frontSeconds
	return res, nil
}

// prepMemoSize bounds the front-end memo. It holds the whole benchmark
// suite plus the FIR sweep, so a full evaluation prepares each program
// once; beyond it the oldest entry is dropped.
const prepMemoSize = 32

// prepKey identifies one program's front end. Holding the source as a
// struct field hashes it in place on every lookup, where a joined
// string would copy it first.
type prepKey struct{ name, source string }

// prepEntry is a single-flight slot for one front end, following the
// cacheEntry protocol, except that a failed front end is never kept:
// its waiters see the error, and later requests run it again. memo is
// the program's back-end memo, dropped with the entry.
type prepEntry struct {
	key       prepKey
	done      chan struct{}
	prep      *pipeline.Prepared
	err       error
	cancelled bool
	memo      planMemo
}

// graphs returns how many interference graphs e's program has built.
func (e *prepEntry) graphs() int64 {
	select {
	case <-e.done:
	default:
		return 0
	}
	if e.prep == nil {
		return 0
	}
	return int64(e.prep.Graphs())
}

// prepare returns p's memo entry, running its front end on a miss.
// frontSeconds is the front end's wall clock when this call ran it,
// and zero when it came from the memo or from another request's run.
func (h *Harness) prepare(ctx context.Context, p Program) (e *prepEntry, frontSeconds float64, err error) {
	key := prepKey{name: p.Name, source: p.Source}
	for {
		h.mu.Lock()
		if e, ok := h.prepared[key]; ok {
			h.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, 0, fmt.Errorf("%s: awaiting shared front end: %w", p.Name, ctx.Err())
			}
			if e.cancelled {
				if cerr := ctx.Err(); cerr != nil {
					return nil, 0, fmt.Errorf("%s: awaiting shared front end: %w", p.Name, cerr)
				}
				continue
			}
			return e, 0, e.err
		}
		e := &prepEntry{key: key, done: make(chan struct{}), memo: planMemo{sims: &h.sims}}
		h.prepared[key] = e
		h.order = append(h.order, e)
		for len(h.order) > prepMemoSize {
			// Drop the oldest slot. It may be in flight — its computer
			// and waiters hold the entry itself — or already gone.
			old := h.order[0]
			h.droppedGraphs += old.graphs()
			n := copy(h.order, h.order[1:])
			h.order[n] = nil
			h.order = h.order[:n]
			if h.prepared[old.key] == old {
				delete(h.prepared, old.key)
			}
		}
		h.mu.Unlock()

		h.prepares.Add(1)
		start := time.Now()
		e.prep, e.err = pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
		frontSeconds = time.Since(start).Seconds()
		if e.err != nil {
			h.mu.Lock()
			e.cancelled = ctx.Err() != nil
			if h.prepared[key] == e {
				delete(h.prepared, key)
			}
			h.mu.Unlock()
		}
		close(e.done)
		return e, frontSeconds, e.err
	}
}

// isTransient reports whether err carries the Transient() bool marker
// anywhere in its chain. The check is structural so this package needs
// no knowledge of who injected the error.
func isTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// Timings returns the compile/simulate split of every measurement the
// harness actually executed (one entry per cache miss), sorted by
// benchmark then mode for deterministic reporting.
func (h *Harness) Timings() []RunTiming {
	h.mu.Lock()
	out := append([]RunTiming(nil), h.timings...)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// job is one unit of pool work: measure prog under mode, deposit the
// result at a fixed slot so assembly order is deterministic.
type job struct {
	prog Program
	mode alloc.Mode
}

// runJobs executes every job on up to h.Parallel workers and returns
// the results in job order. On failure it returns the error of the
// lowest-numbered failing job, matching the serial harness's
// first-error semantics.
func (h *Harness) runJobs(jobs []job) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	if h.Parallel <= 1 {
		cc := new(pipeline.Compiler)
		for i, j := range jobs {
			var err error
			results[i], err = h.run(j.prog, j.mode, cc)
			if err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	workers := h.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cc := new(pipeline.Compiler)
			for i := range next {
				results[i], errs[i] = h.run(jobs[i].prog, jobs[i].mode, cc)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunFigure measures the given benchmarks under the given modes,
// producing rows identical to the serial package-level RunFigure.
func (h *Harness) RunFigure(progs []Program, modes []alloc.Mode) ([]FigureRow, error) {
	jobs := make([]job, 0, len(progs)*(len(modes)+1))
	for _, p := range progs {
		jobs = append(jobs, job{prog: p, mode: alloc.SingleBank})
		for _, m := range modes {
			jobs = append(jobs, job{prog: p, mode: m})
		}
	}
	results, err := h.runJobs(jobs)
	if err != nil {
		return nil, err
	}
	var rows []FigureRow
	i := 0
	for _, p := range progs {
		base := results[i]
		i++
		row := FigureRow{
			Bench:      p.Name,
			BaseCycles: base.Cycles,
			Gains:      make(map[alloc.Mode]float64, len(modes)),
			Cycles:     make(map[alloc.Mode]int64, len(modes)),
		}
		for _, m := range modes {
			res := results[i]
			i++
			row.Gains[m] = Gain(base, res)
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
	jobs := make([]job, 0, len(apps)*(len(Table3Modes)+1))
	for _, p := range apps {
		jobs = append(jobs, job{prog: p, mode: alloc.SingleBank})
		for _, m := range Table3Modes {
			jobs = append(jobs, job{prog: p, mode: m})
		}
	}
	results, err := h.runJobs(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	i := 0
	for _, p := range apps {
		base := results[i]
		i++
		row := Table3Row{Bench: p.Name, Metrics: make(map[alloc.Mode]cost.Metrics)}
		for _, m := range Table3Modes {
			res := results[i]
			i++
			row.Metrics[m] = cost.Compare(base.Cycles, res.Cycles, base.Mem, res.Mem)
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
	jobs := make([]job, 0, 2*len(progs))
	for _, p := range progs {
		jobs = append(jobs, job{prog: p, mode: alloc.SingleBank}, job{prog: p, mode: alloc.CB})
	}
	results, err := h.runJobs(jobs)
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for i, p := range progs {
		base, cb := results[2*i], results[2*i+1]
		rows = append(rows, SweepRow{
			Label:      p.Name,
			BaseCycles: base.Cycles,
			CBGain:     Gain(base, cb),
		})
	}
	return rows, nil
}
