// Package explore is the design-space exploration engine: it searches
// per-benchmark back-end configurations — partitioning algorithm,
// profile weighting, FM refinement budget, and per-array duplication
// subsets — evaluating every candidate through the experiment
// harness's memo cache and scoring it with the paper's cost model
// (Cost = X + Y + 2·S + I) against its cycle count. The engine
// maintains the exact Pareto frontier (cycles vs. cost words) per
// benchmark and across the suite, streams progress, and checkpoints
// completed evaluations to a content-addressed on-disk store so an
// interrupted exploration resumes without re-simulating.
//
// The search is deterministic at any worker count: candidates are
// generated in a fixed order, exact subset enumeration is used while
// the duplication space is small, and the hill-climbing phase beyond
// that moves in synchronous rounds whose winners are chosen by a fixed
// tie-break — so the frontier bytes depend only on the inputs, never
// on scheduling.
package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/cost"
	"dualbank/internal/explore/store"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// EvalFunc executes one measurement: every evaluation the explorer
// makes goes through one. The default is a bench.Harness's RunCtx; the
// HTTP service substitutes its worker pool so exploration shares the
// serving path's backpressure and metrics. cached reports a memo-cache
// hit.
type EvalFunc func(ctx context.Context, p bench.Program, mode alloc.Mode, ro bench.RunOptions) (res bench.Result, cached bool, err error)

// BatchEvalFunc executes a family of measurements of one benchmark,
// returning outcomes in item order; an item's error (an infeasible
// configuration) comes back in its slot. The explorer calls it with
// one item at a time. It stays only because perfbench, the benchmark
// module, supplies one.
type BatchEvalFunc func(ctx context.Context, p bench.Program, items []bench.BatchItem) []bench.BatchOutcome

// Event is one progress notification: an evaluation finished (or was
// replayed from a checkpoint).
type Event struct {
	Bench  string
	Config string
	// Source tells where the result came from: "run" (executed),
	// "cache" (harness memo hit), "store" (checkpoint replay), or
	// "infeasible" (the configuration cannot compile, e.g. bank
	// overflow).
	Source string
	Cycles int64
	Cost   int
	// Done and Planned are the benchmark's progress counters; Planned
	// grows when the adaptive phase schedules more rounds.
	Done, Planned int
}

// Options configures an exploration.
type Options struct {
	// Budget caps evaluations per benchmark (default 200). The
	// enumerated space is searched in a fixed order, so a smaller
	// budget explores a deterministic prefix.
	Budget int
	// Workers bounds concurrent evaluations (default 1), in Explore and
	// ExploreHW alike. Any value produces byte-identical frontiers.
	Workers int
	// ExactK is the duplication-subset exhaustion bound: benchmarks
	// with at most this many partitioned arrays have every subset
	// enumerated; beyond it the engine hill-climbs (default 4).
	ExactK int
	// MaxDupArrays caps the arrays considered for duplication search
	// (default 8); candidates the paper's analysis marks come first.
	MaxDupArrays int
	// Store, when non-nil, checkpoints each evaluation as it completes
	// and (unless NoResume) replays existing checkpoints instead of
	// re-simulating, so a cancelled exploration keeps every evaluation
	// finished before the cancel.
	Store *store.Store
	// NoResume ignores existing checkpoints (they are still written).
	NoResume bool
	// Harness supplies the memo cache for the default evaluator, its
	// RunCtx; a private one is created when nil.
	Harness *bench.Harness
	// Evaluate overrides the evaluator (the HTTP service routes every
	// measurement through its worker pool, keeping exploration under
	// the serving path's backpressure).
	Evaluate EvalFunc
	// EvaluateBatch, when Evaluate is nil, is the evaluator: each
	// measurement is a one-item batch. It stays only because perfbench,
	// the benchmark module, sets it.
	EvaluateBatch BatchEvalFunc
	// Progress, when non-nil, receives one Event per finished
	// evaluation, serialized (never concurrently).
	Progress func(Event)
	// Banks and Ports pin the exploration to one machine geometry
	// (stamped onto every candidate configuration). Zero values explore
	// the classic dual-bank, single-ported machine, byte-identical to
	// the pre-generalization explorer.
	Banks, Ports int
}

// hw is the hardware-cost annotation for the exploration's machine: 0
// on the classic machine (keeping historical report bytes), the spec's
// HardwareCost otherwise.
func (o Options) hw() int {
	s := machine.BankSpec{Banks: o.Banks, PortsPerBank: o.Ports}
	if s.IsDefault() {
		return 0
	}
	return s.HardwareCost()
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 200
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.ExactK <= 0 {
		o.ExactK = 4
	}
	if o.MaxDupArrays <= 0 {
		o.MaxDupArrays = 8
	}
	return o
}

// Eval is one completed candidate evaluation.
type Eval struct {
	Config     Config      `json:"-"`
	Key        string      `json:"config"`
	Cycles     int64       `json:"cycles"`
	Mem        cost.Memory `json:"mem"`
	DupStores  int         `json:"dup_stores,omitempty"`
	Duplicated []string    `json:"duplicated,omitempty"`
	// Err marks an infeasible configuration (it cannot compile under
	// the machine model, e.g. duplication overflows a bank).
	Err string `json:"err,omitempty"`
	// Source is "run", "cache", or "store" (see Event).
	Source string `json:"source"`
}

// Feasible reports whether the evaluation produced a measurement.
func (e Eval) Feasible() bool { return e.Err == "" }

// BenchReport is one benchmark's exploration outcome.
type BenchReport struct {
	Bench          string   `json:"bench"`
	BaselineCycles int64    `json:"baseline_cycles"`
	BaselineCost   int      `json:"baseline_cost"`
	DupArrays      []string `json:"dup_arrays,omitempty"`
	DupMarked      []string `json:"dup_marked,omitempty"`

	Evals      int  `json:"evals"`
	Infeasible int  `json:"infeasible,omitempty"`
	StoreHits  int  `json:"store_hits"`
	CacheHits  int  `json:"cache_hits"`
	Exhaustive bool `json:"exhaustive"`

	// Frontier is the exact Pareto frontier, cost ascending.
	Frontier []Point `json:"frontier"`
	// CB is the paper's fixed CB design point; DominatingCB lists
	// frontier points that strictly dominate it (empty plus
	// Exhaustive=true is a proof none exists in the space).
	CB           Point   `json:"cb"`
	DominatingCB []Point `json:"dominating_cb,omitempty"`
	// Best is the minimum-cycles feasible point.
	Best Point `json:"best"`
}

// Report is a whole exploration's outcome.
type Report struct {
	Budget     int           `json:"budget"`
	ExactK     int           `json:"exact_k"`
	Benchmarks []BenchReport `json:"benchmarks"`
	// Suite is the cross-benchmark frontier over shared configurations
	// (those evaluated for every explored benchmark), scoring each by
	// summed cycles and summed cost. Present only for multi-benchmark
	// explorations.
	Suite []Point `json:"suite_frontier,omitempty"`

	Evals     int `json:"evals"`
	StoreHits int `json:"store_hits"`
	CacheHits int `json:"cache_hits"`
}

// engine carries one exploration's shared state.
type engine struct {
	opts Options
	eval EvalFunc

	mu   sync.Mutex // serializes Progress and per-bench counters
	done int
	plan int
}

// newEngine applies opts' defaults and picks the evaluator: Evaluate
// if set, else EvaluateBatch on one-item batches, else the harness's
// RunCtx.
func newEngine(opts Options) *engine {
	e := &engine{opts: opts.withDefaults(), eval: opts.Evaluate}
	switch {
	case e.eval != nil:
	case opts.EvaluateBatch != nil:
		e.eval = func(ctx context.Context, p bench.Program, mode alloc.Mode, ro bench.RunOptions) (bench.Result, bool, error) {
			o := opts.EvaluateBatch(ctx, p, []bench.BatchItem{{Mode: mode, Opts: ro}})[0]
			return o.Res, o.Cached, o.Err
		}
	default:
		h := opts.Harness
		if h == nil {
			h = bench.NewHarness(1)
		}
		e.eval = h.RunCtx
	}
	return e
}

// Explore searches the design space of each benchmark and returns the
// frontiers. On cancellation it returns the report for the benchmarks
// completed so far alongside the error; everything already evaluated
// is checkpointed.
func Explore(ctx context.Context, progs []bench.Program, opts Options) (*Report, error) {
	e := newEngine(opts)
	opts = e.opts

	rep := &Report{Budget: opts.Budget, ExactK: opts.ExactK}
	// evalsByBench remembers every feasible evaluation keyed by config,
	// in candidate order, for the suite frontier.
	type benchEvals struct {
		order []string
		byKey map[string]Eval
	}
	var suiteEvals []benchEvals
	for _, p := range progs {
		br, evals, err := e.exploreBench(ctx, p)
		if err != nil {
			return rep, err
		}
		rep.Benchmarks = append(rep.Benchmarks, *br)
		rep.Evals += br.Evals
		rep.StoreHits += br.StoreHits
		rep.CacheHits += br.CacheHits
		be := benchEvals{byKey: make(map[string]Eval, len(evals))}
		for _, ev := range evals {
			if ev.Feasible() {
				be.order = append(be.order, ev.Key)
				be.byKey[ev.Key] = ev
			}
		}
		suiteEvals = append(suiteEvals, be)
	}

	// Suite frontier: configurations every benchmark evaluated, scored
	// by summed cycles and cost, inserted in the first benchmark's
	// candidate order.
	if len(progs) > 1 {
		var baseCycles int64
		var baseCost int
		for _, br := range rep.Benchmarks {
			baseCycles += br.BaselineCycles
			baseCost += br.BaselineCost
		}
		var f Frontier
		for _, key := range suiteEvals[0].order {
			var cycles int64
			var costWords int
			shared := true
			for _, be := range suiteEvals {
				ev, ok := be.byKey[key]
				if !ok {
					shared = false
					break
				}
				cycles += ev.Cycles
				costWords += ev.Mem.Total()
			}
			if shared {
				f.Add(point(key, cycles, costWords, baseCycles, baseCost, opts.hw()))
			}
		}
		rep.Suite = f.Points()
	}
	return rep, nil
}

// point builds a frontier point with its Table 3 metrics. hw is the
// machine's hardware-cost annotation (0 on the classic machine).
func point(key string, cycles int64, costWords int, baseCycles int64, baseCost int, hw int) Point {
	pg := float64(baseCycles) / float64(cycles)
	ci := float64(costWords) / float64(baseCost)
	return Point{Config: key, Cycles: cycles, Cost: costWords, HW: hw, PG: pg, CI: ci, PCR: pg / ci}
}

// exploreBench searches one benchmark's space.
func (e *engine) exploreBench(ctx context.Context, p bench.Program) (*BenchReport, []Eval, error) {
	marked, arrays, err := DupCandidates(p)
	if err != nil {
		return nil, nil, fmt.Errorf("explore: %s: %w", p.Name, err)
	}
	if len(arrays) > e.opts.MaxDupArrays {
		arrays = arrays[:e.opts.MaxDupArrays]
	}

	configs := enumerate(marked, arrays, e.opts.ExactK)
	// The hardware axis is a fixed stamp, not a search dimension: every
	// candidate runs on the exploration's machine. (ExploreHW sweeps
	// geometries by running this per-geometry search once per point.)
	if e.opts.Banks != 0 || e.opts.Ports != 0 {
		for i := range configs {
			configs[i].Banks, configs[i].Ports = e.opts.Banks, e.opts.Ports
			configs[i] = configs[i].Canon()
		}
	}
	exhaustive := len(arrays) <= e.opts.ExactK && len(configs) <= e.opts.Budget
	if len(configs) > e.opts.Budget {
		configs = configs[:e.opts.Budget]
	}
	e.mu.Lock()
	e.done, e.plan = 0, len(configs)
	e.mu.Unlock()

	evals, err := e.evalBatch(ctx, p, configs)
	if err != nil {
		return nil, nil, err
	}

	// Adaptive phase: when the subset space is too large to enumerate,
	// hill-climb it — synchronous rounds of single-array toggles from
	// the best duplication set so far, carried by the best-performing
	// non-duplication configuration. Deterministic: the round's batch
	// is a pure function of the state, and winners break ties by key.
	budget := e.opts.Budget - len(evals)
	if len(arrays) > e.opts.ExactK && budget > 0 {
		more, err := e.hillClimb(ctx, p, arrays, evals, budget)
		if err != nil {
			return nil, nil, err
		}
		evals = append(evals, more...)
	}

	br, err := e.reportBench(p, marked, arrays, evals, exhaustive)
	if err != nil {
		return nil, nil, err
	}
	return br, evals, nil
}

// hillClimb runs the adaptive duplication-subset search.
func (e *engine) hillClimb(ctx context.Context, p bench.Program, arrays []string, evals []Eval, budget int) ([]Eval, error) {
	// Carrier: the feasible non-duplication configuration with the
	// fewest cycles (ties by key), stripped to its partitioning knobs.
	carrier := FixedCB
	carrier.Banks, carrier.Ports = e.opts.Banks, e.opts.Ports
	carrier = carrier.Canon()
	bestCycles := int64(-1)
	var bestSet []string
	bestSetCycles := int64(-1)
	for _, ev := range evals {
		if !ev.Feasible() || ev.Config.Single {
			continue
		}
		c := ev.Config.Canon()
		if !c.DupAll && len(c.Dup) == 0 {
			if bestCycles < 0 || ev.Cycles < bestCycles || (ev.Cycles == bestCycles && c.Key() < carrier.Key()) {
				carrier, bestCycles = c, ev.Cycles
			}
		}
		if c.DupAll || len(c.Dup) > 0 {
			if bestSetCycles < 0 || ev.Cycles < bestSetCycles {
				bestSet, bestSetCycles = ev.Duplicated, ev.Cycles
			}
		}
	}
	cur := append([]string(nil), bestSet...)
	curCycles := bestSetCycles
	if curCycles < 0 {
		curCycles = bestCycles
	}

	var out []Eval
	for budget > 0 {
		// One round: toggle each array in or out of the current set.
		var batch []Config
		for _, a := range arrays {
			next := toggle(cur, a)
			c := carrier
			c.Dup = next
			c.DupAll = false
			if len(next) == 0 {
				continue // the empty set is the carrier itself, already measured
			}
			batch = append(batch, c.Canon())
		}
		if len(batch) > budget {
			batch = batch[:budget]
		}
		if len(batch) == 0 {
			break
		}
		e.mu.Lock()
		e.plan += len(batch)
		e.mu.Unlock()
		res, err := e.evalBatch(ctx, p, batch)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
		budget -= len(res)

		// Move to the round's best strict improvement, scanning in
		// candidate order so ties resolve deterministically.
		improved := false
		for _, ev := range res {
			if ev.Feasible() && ev.Cycles < curCycles {
				cur = append(cur[:0:0], ev.Config.Canon().Dup...)
				curCycles = ev.Cycles
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return out, nil
}

// toggle returns names with a added (if absent) or removed (if
// present), sorted.
func toggle(names []string, a string) []string {
	out := make([]string, 0, len(names)+1)
	found := false
	for _, n := range names {
		if n == a {
			found = true
			continue
		}
		out = append(out, n)
	}
	if !found {
		out = append(out, a)
		sort.Strings(out)
	}
	return out
}

// reportBench assembles one benchmark's report from its evaluations.
func (e *engine) reportBench(p bench.Program, marked, arrays []string, evals []Eval, exhaustive bool) (*BenchReport, error) {
	var baseline *Eval
	for i := range evals {
		if evals[i].Config.Single {
			baseline = &evals[i]
			break
		}
	}
	if baseline == nil || !baseline.Feasible() {
		return nil, fmt.Errorf("explore: %s: single-bank baseline unavailable", p.Name)
	}
	baseCycles, baseCost := baseline.Cycles, baseline.Mem.Total()

	br := &BenchReport{
		Bench:          p.Name,
		BaselineCycles: baseCycles,
		BaselineCost:   baseCost,
		DupArrays:      arrays,
		DupMarked:      marked,
		Exhaustive:     exhaustive,
	}
	cbRef := FixedCB
	cbRef.Banks, cbRef.Ports = e.opts.Banks, e.opts.Ports
	cbKey := cbRef.Key()
	var f Frontier
	var cb, best Point
	haveCB, haveBest := false, false
	for _, ev := range evals {
		switch ev.Source {
		case "store":
			br.StoreHits++
		case "cache":
			br.CacheHits++
		}
		br.Evals++
		if !ev.Feasible() {
			br.Infeasible++
			continue
		}
		pt := point(ev.Key, ev.Cycles, ev.Mem.Total(), baseCycles, baseCost, e.opts.hw())
		f.Add(pt)
		if ev.Key == cbKey {
			cb, haveCB = pt, true
		}
		if !haveBest || pt.Cycles < best.Cycles {
			best, haveBest = pt, true
		}
	}
	if !haveCB {
		return nil, fmt.Errorf("explore: %s: fixed CB point was not evaluated", p.Name)
	}
	br.Frontier = f.Points()
	br.CB = cb
	br.DominatingCB = f.Dominating(cb)
	br.Best = best
	return br, nil
}

// evalBatch evaluates configs and returns the results in candidate
// order. Infeasible configurations come back as Evals with Err set;
// cancellation and other context failures abort the batch. Each worker
// takes a contiguous run of configs: handing them over one at a time
// costs a goroutine hand-off per evaluation, which a sweep answered
// mostly from the memo feels. Results deposit at their candidate
// index, so the output is the same at any width.
func (e *engine) evalBatch(ctx context.Context, p bench.Program, configs []Config) ([]Eval, error) {
	out := make([]Eval, len(configs))
	errs := make([]error, len(configs))
	workers := min(e.opts.Workers, len(configs))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i], errs[i] = e.evalOne(ctx, p, configs[i])
			}
		}(w*len(configs)/workers, (w+1)*len(configs)/workers)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalOne measures one configuration: checkpoint replay when
// available, otherwise execution plus write-through checkpointing.
func (e *engine) evalOne(ctx context.Context, p bench.Program, c Config) (Eval, error) {
	c = c.Canon()
	if ev, ok := e.fromStore(p, c); ok {
		return ev, nil
	}
	res, cached, err := e.eval(ctx, p, c.Mode(), c.RunOptions())
	return e.record(ctx, p, c, res, cached, err)
}

// fromStore replays c's checkpoint if the store holds one.
func (e *engine) fromStore(p bench.Program, c Config) (Eval, bool) {
	if e.opts.Store == nil || e.opts.NoResume {
		return Eval{}, false
	}
	rec, ok := e.opts.Store.Get(store.Key(p.Name, c.Key(), bench.FingerprintSpec(c.Mode(), c.Spec())))
	if !ok {
		return Eval{}, false
	}
	ev := Eval{
		Config: c, Key: c.Key(),
		Cycles:     rec.Cycles,
		Mem:        rec.Mem(),
		DupStores:  rec.DupStores,
		Duplicated: rec.Duplicated,
		Err:        rec.Err,
		Source:     "store",
	}
	e.progress(p.Name, ev)
	return ev, true
}

// record finishes one executed measurement: classify the outcome,
// write the checkpoint through, and emit progress.
func (e *engine) record(ctx context.Context, p bench.Program, c Config, res bench.Result, cached bool, err error) (Eval, error) {
	ev := Eval{Config: c, Key: c.Key()}
	switch {
	case err == nil:
		ev.Cycles = res.Cycles
		ev.Mem = res.Mem
		ev.DupStores = res.DupStores
		ev.Duplicated = res.Duplicated
		ev.Source = "run"
		if cached {
			ev.Source = "cache"
		}
	case ctx.Err() != nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Eval{}, err
	default:
		// The configuration cannot compile under the machine model
		// (e.g. its duplication set overflows a bank): a legitimate
		// infeasible design point, recorded so resume skips it too.
		ev.Err = err.Error()
		ev.Source = "infeasible"
	}
	if e.opts.Store != nil {
		rec := store.Record{
			Bench: p.Name, Config: ev.Key, Cycles: ev.Cycles,
			DupStores: ev.DupStores, Duplicated: ev.Duplicated, Err: ev.Err,
		}
		rec.SetMem(ev.Mem)
		if err := e.opts.Store.Put(store.Key(p.Name, ev.Key, bench.FingerprintSpec(c.Mode(), c.Spec())), rec); err != nil {
			return Eval{}, err
		}
	}
	e.progress(p.Name, ev)
	return ev, nil
}

// progress emits one event under the engine lock.
func (e *engine) progress(benchName string, ev Eval) {
	e.mu.Lock()
	e.done++
	done, plan := e.done, e.plan
	cb := e.opts.Progress
	src := ev.Source
	if !ev.Feasible() {
		src = "infeasible"
	}
	if cb != nil {
		cb(Event{
			Bench: benchName, Config: ev.Key, Source: src,
			Cycles: ev.Cycles, Cost: ev.Mem.Total(),
			Done: done, Planned: plan,
		})
	}
	e.mu.Unlock()
}

// DupCandidates returns p's duplication-candidate arrays: marked is
// the set the paper's interference analysis would replicate, arrays
// every partitioned array (marked first, then the rest, each sorted) —
// the explorer's duplication search space. It runs p's front end and
// reads the static interference graph the CB planner partitions,
// without allocating or compacting anything.
func DupCandidates(p bench.Program) (marked, arrays []string, err error) {
	ctx := context.Background()
	prep, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
	if err != nil {
		return nil, nil, err
	}
	g, err := new(pipeline.Compiler).Graph(ctx, prep, core.WeightStatic)
	if err != nil {
		return nil, nil, err
	}
	var rest []string
	for _, s := range g.Nodes {
		if !s.IsArray() {
			continue
		}
		if g.DupMarks[s] {
			marked = append(marked, s.Name)
		} else {
			rest = append(rest, s.Name)
		}
	}
	sort.Strings(marked)
	sort.Strings(rest)
	return marked, append(append([]string(nil), marked...), rest...), nil
}
