// Package bench contains the paper's benchmark suite — the twelve DSP
// kernels of Table 1 and the eleven applications of Table 2 —
// re-implemented in MiniC with deterministic embedded input data, plus
// the experiment harness that regenerates Figure 7, Figure 8, and
// Table 3.
//
// Every benchmark carries a Check function that validates the
// program's outputs against a Go reference implementation, so each
// harness run doubles as a correctness test of the whole compiler and
// simulator.
package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/cost"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
)

// simMachine is the engine-generic surface a measurement needs: the
// cycle count and output words. Both engines satisfy it.
type simMachine interface {
	Word(sym *ir.Symbol, idx int) (uint32, error)
	CycleCount() int64
}

// Kind distinguishes kernels (Table 1) from applications (Table 2).
type Kind int8

const (
	Kernel Kind = iota
	Application
)

func (k Kind) String() string {
	if k == Application {
		return "application"
	}
	return "kernel"
}

// Reader reads one word of program output by global symbol name.
type Reader func(name string, idx int) (uint32, error)

// F32 reads a float word through a Reader.
func F32(r Reader, name string, idx int) (float32, error) {
	w, err := r(name, idx)
	return math.Float32frombits(w), err
}

// I32 reads an integer word through a Reader.
func I32(r Reader, name string, idx int) (int32, error) {
	w, err := r(name, idx)
	return int32(w), err
}

// Program is one benchmark: source plus output validation.
type Program struct {
	Name   string
	Desc   string // the Table 1/2 description
	Kind   Kind
	Source string
	Check  func(r Reader) error
}

// suite memoizes the generated benchmark programs. Generating a
// program renders its whole MiniC source, embedded input data
// included (FFT(1024) alone formats a thousand floats), which costs
// milliseconds — far too much to repeat on every ByName lookup in a
// serving path. The programs are immutable once built (value structs
// over immutable strings and stateless Check functions), so one
// generation serves every caller; the accessors hand out fresh slice
// headers over the shared backing elements.
var suite struct {
	once    sync.Once
	kernels []Program
	apps    []Program
	byName  map[string]Program
}

func initSuite() {
	suite.kernels = []Program{
		FFT(1024), FFT(256),
		FIR(256, 64), FIR(32, 1),
		IIR(4, 64), IIR(1, 1),
		Latnrm(32, 64), Latnrm(8, 1),
		LMSFIR(32, 64), LMSFIR(8, 1),
		MatMult(10), MatMult(4),
	}
	suite.apps = []Program{
		ADPCM(), LPC(), Spectral(), EdgeDetect(), Compress(),
		Histogram(), V32Encode(), G721MLEncode(), G721MLDecode(),
		G721WFEncode(), Trellis(),
	}
	suite.byName = make(map[string]Program, len(suite.kernels)+len(suite.apps))
	for _, p := range suite.kernels {
		suite.byName[p.Name] = p
	}
	for _, p := range suite.apps {
		suite.byName[p.Name] = p
	}
}

// Kernels returns the Table 1 suite in figure order (k1..k12).
func Kernels() []Program {
	suite.once.Do(initSuite)
	return append([]Program(nil), suite.kernels...)
}

// Applications returns the Table 2 suite in figure order (a1..a11).
func Applications() []Program {
	suite.once.Do(initSuite)
	return append([]Program(nil), suite.apps...)
}

// ByName finds a benchmark in either suite, or materializes a
// generated one when name is a canonical "gen_<archetype>_<seed>" key
// (see internal/genmc).
func ByName(name string) (Program, bool) {
	suite.once.Do(initSuite)
	if p, ok := suite.byName[name]; ok {
		return p, true
	}
	return generatedByName(name)
}

// Result is one (benchmark, mode) measurement.
type Result struct {
	Bench  string
	Mode   alloc.Mode
	Cycles int64
	Mem    cost.Memory
	// DupStores is the number of coherence stores the allocation pass
	// inserted.
	DupStores int
	// Duplicated lists duplicated symbol names.
	Duplicated []string

	// CompileSeconds and SimSeconds split the measurement's wall clock
	// into the compile phase (front end through schedule validation)
	// and the simulation phase (lowering plus execution on the
	// selected engine). Through a Harness the front end runs once per
	// program, and its time is charged only to the measurement that ran
	// it; the others' compile phase starts at their back end. A
	// Harness's simulation phase also fingerprints the schedule, and is
	// nothing more when that image was already simulated.
	CompileSeconds float64
	SimSeconds     float64
}

// RunOptions configures RunWith beyond the allocation mode. Every
// field except Compiler changes the measurement and therefore appears
// in the harness's memo-cache key.
type RunOptions struct {
	// Partitioner selects the graph-partitioning algorithm for the CB
	// modes (greedy by default).
	Partitioner core.Method
	// FMPasses bounds the FM partitioner's refinement passes: 0 means
	// the library default, negative stops after the greedy-equivalent
	// first phase. Meaningful only when Partitioner is core.MethodFM.
	FMPasses int
	// Profiled uses profile-derived interference-edge weights for any
	// partitioned mode (CBProfiled always does, regardless).
	Profiled bool
	// DupOnly, when non-nil, names the exact CBDup duplication set —
	// any partitioned array listed is replicated, marked or not; an
	// empty non-nil slice duplicates nothing. Nil keeps the paper's
	// policy (duplicate every marked array). Meaningful only under
	// alloc.CBDup.
	DupOnly []string
	// Banks and Ports select the machine's bank geometry — bank count
	// and ports per bank. Zero values mean the classic dual-bank,
	// single-ported machine, reproducing the historical measurement
	// exactly.
	Banks, Ports int
	// BankPerm relabels the banks by a permutation before layout; cycle
	// counts are invariant under it (the metamorphic suite proves it)
	// but memory-split figures are not, so it is part of the memo key.
	BankPerm []int
	// Engine selects the simulation engine. The zero value is the
	// compiled engine. Both engines produce identical measurements (the
	// differential suite pins them), but the harness still keys its
	// cache on the engine so a result's recorded timings are always the
	// requested engine's.
	Engine Engine
	// Compiler, when non-nil, supplies reusable compiler scratch so
	// back-to-back measurements skip re-growing it.
	Compiler *pipeline.Compiler
}

// Run compiles and executes one benchmark under one allocation mode,
// validates the schedule and the program outputs, and returns the
// measurement. Execution uses the compiled threaded-code simulator by
// default, which differential tests pin to the reference interpreter.
func Run(p Program, mode alloc.Mode) (Result, error) {
	return RunWith(p, mode, RunOptions{})
}

// RunWith is Run with an explicit partitioner choice and optional
// reusable compiler scratch.
func RunWith(p Program, mode alloc.Mode, ro RunOptions) (Result, error) {
	return RunCtx(context.Background(), p, mode, ro)
}

// RunCtx is RunWith honoring ctx: compilation checks cancellation
// between passes and the simulator polls it at basic-block boundaries,
// so a caller's deadline bounds the whole measurement.
func RunCtx(ctx context.Context, p Program, mode alloc.Mode, ro RunOptions) (Result, error) {
	cc := ro.Compiler
	if cc == nil {
		cc = new(pipeline.Compiler)
	}
	compileStart := time.Now()
	c, err := cc.CompileCtx(ctx, p.Source, p.Name, pipelineOptions(mode, ro))
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	return measure(ctx, p, mode, ro.Engine, cc, c, compileStart, nil)
}

// runPrepared is RunCtx for a program whose front end has already
// run: it finishes a private copy of prep under mode and ro, then
// simulates and checks it, unless memo already holds that schedule's
// measurement. Its compile phase covers the back end only.
func runPrepared(ctx context.Context, p Program, prep *pipeline.Prepared, mode alloc.Mode, ro RunOptions, memo *simMemo) (Result, error) {
	cc := ro.Compiler
	if cc == nil {
		cc = new(pipeline.Compiler)
	}
	compileStart := time.Now()
	c, err := cc.Finish(ctx, prep, pipelineOptions(mode, ro))
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	return measure(ctx, p, mode, ro.Engine, cc, c, compileStart, memo)
}

// pipelineOptions translates a measurement request into compiler
// options.
func pipelineOptions(mode alloc.Mode, ro RunOptions) pipeline.Options {
	po := pipeline.Options{
		Mode: mode, Partitioner: ro.Partitioner,
		FMPasses: ro.FMPasses, Profiled: ro.Profiled,
		Spec:     machine.BankSpec{Banks: ro.Banks, PortsPerBank: ro.Ports},
		BankPerm: ro.BankPerm,
	}
	if ro.DupOnly != nil {
		po.DupOnly = make(map[string]bool, len(ro.DupOnly))
		for _, name := range ro.DupOnly {
			po.DupOnly[name] = true
		}
	}
	return po
}

// measure validates c's schedule, simulates it on engine, checks the
// program's outputs and assembles the Result. The compile phase is
// timed from compileStart to the end of schedule validation. A non-nil
// memo supplies the cycle count of a schedule whose image it has seen
// on engine, in place of the simulation and the output check, and
// records every schedule that passes both.
func measure(ctx context.Context, p Program, mode alloc.Mode, engine Engine, cc *pipeline.Compiler, c *pipeline.Compiled, compileStart time.Time, memo *simMemo) (Result, error) {
	if err := compact.Validate(c.Sched); err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	compileSeconds := time.Since(compileStart).Seconds()
	simStart := time.Now()
	key, cycles, hit, err := memo.lookup(c.Sched, engine)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	simSeconds := 0.0
	if hit {
		simSeconds = time.Since(simStart).Seconds()
	} else {
		m, err := simulate(ctx, engine, cc, c)
		if err != nil {
			return Result{}, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
		}
		simSeconds = time.Since(simStart).Seconds()
		if err := checkOutputs(p, c, m); err != nil {
			return Result{}, fmt.Errorf("%s/%v: output check: %w", p.Name, mode, err)
		}
		cycles = m.CycleCount()
		memo.store(key, cycles)
	}
	res := Result{
		Bench:          p.Name,
		Mode:           mode,
		Cycles:         cycles,
		Mem:            cost.Of(c.Alloc, c.Sched),
		DupStores:      c.Alloc.DupStores,
		CompileSeconds: compileSeconds,
		SimSeconds:     simSeconds,
	}
	for _, s := range c.Alloc.Duplicated {
		res.Duplicated = append(res.Duplicated, s.Name)
	}
	return res, nil
}

// simulate runs c on engine. The engines are pinned to identical
// observable results; the switch only selects dispatch machinery. The
// compiled engine recycles the compiler's batch arena, so its returned
// machine must be fully read (cycles, output check) before this
// compiler runs anything else — which measure does before returning.
func simulate(ctx context.Context, engine Engine, cc *pipeline.Compiler, c *pipeline.Compiled) (simMachine, error) {
	if engine == EngineMachine {
		return c.RunCtx(ctx)
	}
	return c.RunCompiledCtx(ctx, cc.SimBatch())
}

// checkOutputs validates the program's outputs in m against p.Check.
func checkOutputs(p Program, c *pipeline.Compiled, m simMachine) error {
	if p.Check == nil {
		return nil
	}
	return p.Check(func(name string, idx int) (uint32, error) {
		g := c.Global(name)
		if g == nil {
			return 0, fmt.Errorf("no global %q", name)
		}
		return m.Word(g, idx)
	})
}

// Gain returns the percentage cycle-count improvement of res over the
// baseline: (base/res - 1) * 100.
func Gain(base, res Result) float64 {
	return (float64(base.Cycles)/float64(res.Cycles) - 1) * 100
}

// BatchItem is one variant of a batched evaluation: an allocation mode
// plus its run options.
type BatchItem struct {
	Mode alloc.Mode
	Opts RunOptions
}

// BatchOutcome is one batched variant's measurement. Err is per-item:
// an infeasible or faulting variant does not abort its siblings.
// Cached reports a memo-cache hit when the batch ran through a
// Harness.
type BatchOutcome struct {
	Res    Result
	Cached bool
	Err    error
}
