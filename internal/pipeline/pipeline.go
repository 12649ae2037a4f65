// Package pipeline is the compiler driver: it chains the MiniC
// front-end, the optimizer, the register allocator, the data
// allocation pass, and the operation-compaction pass into a single
// Compile call, and wraps the simulator for execution. Every
// experiment arm of the paper is one Options.Mode value.
//
// The passes before data allocation do not depend on the mode, so a
// caller measuring one program under many configurations can split
// the compile in two: Prepare runs that front end once, and Finish
// runs the back end per configuration on a private clone of its IR.
package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
	"dualbank/internal/sim"
)

// Options selects the data-allocation mode and pass configuration.
type Options struct {
	Mode alloc.Mode
	// InterruptSafe turns on atomic duplicated-store pairs (§3.2).
	InterruptSafe bool
	// Opt configures the machine-independent optimizer.
	Opt opt.Options
	// DupOnly, when non-nil, names the exact CBDup duplication set:
	// any partitioned array it contains is replicated, whether or not
	// the interference analysis marked it. Used by the
	// selective-duplication refinement and the design-space explorer.
	DupOnly map[string]bool
	// Partitioner selects the graph-partitioning algorithm.
	Partitioner core.Method
	// FMPasses bounds the FM partitioner's refinement passes: 0 means
	// the library default, negative stops after the greedy-equivalent
	// first phase. Ignored unless Partitioner is core.MethodFM.
	FMPasses int
	// Profiled runs a profiling pass and uses profile-derived
	// interference-edge weights for any partitioned mode (CBProfiled
	// implies it). This decouples the weighting policy from the mode so
	// profiling can combine with duplication.
	Profiled bool
	// SwapBanks mirrors the data allocation wholesale — everything
	// bound for bank X lands in Y and vice versa. The banks are
	// architecturally identical, so cycle counts must not change; the
	// metamorphic tests compile every benchmark both ways to prove it.
	SwapBanks bool
	// Spec selects the machine's bank geometry (bank count × ports per
	// bank); the zero value is the classic dual-bank, single-ported
	// machine and reproduces the historical pipeline exactly.
	Spec machine.BankSpec
	// BankPerm relabels the banks by a general permutation (the k-ary
	// form of SwapBanks, which it supersedes when non-nil): data
	// assigned to bank i lands in bank BankPerm[i]. Cycle counts must
	// not change; the k-ary metamorphic tests prove it.
	BankPerm []int
}

// Compiled is the result of compiling one program.
type Compiled struct {
	Name  string
	IR    *ir.Program
	Alloc *alloc.Result
	Sched *compact.Program
	Regs  map[string]regalloc.Stats
}

// Compiler carries the reusable scratch state of the back-end passes —
// the interference-graph scanner, the list scheduler's arena, and the
// compiled simulation engine's recycled machine — so a driver compiling
// many (program, mode) pairs back to back reaches a steady state where
// the hot passes allocate only their retained output. The zero value is
// ready to use. A Compiler is not safe for concurrent use; give each
// worker goroutine its own.
type Compiler struct {
	scanner core.Scanner
	scratch compact.Scratch
	batch   sim.Batch
}

// SimBatch returns the compiler's recycled simulation arena, for
// callers running the compiled engine across many measurements on this
// compiler. Like the compiler itself it is single-owner: a machine
// obtained through it is invalidated by the next batched run.
func (cc *Compiler) SimBatch() *sim.Batch { return &cc.batch }

// Compile builds source (a MiniC translation unit) into scheduled VLIW
// code under the given options.
func Compile(source, name string, o Options) (*Compiled, error) {
	return new(Compiler).Compile(source, name, o)
}

// Compile builds source into scheduled VLIW code, reusing the
// compiler's scratch state.
func (cc *Compiler) Compile(source, name string, o Options) (*Compiled, error) {
	return cc.CompileCtx(context.Background(), source, name, o)
}

// CompileCtx is Compile honoring ctx: cancellation is checked between
// passes and inside the CBProfiled profiling run (the only pass whose
// cost is driven by the program's dynamic behaviour rather than its
// size), so a caller's deadline bounds compilation of hostile input.
// It runs both stages back to back on one fresh IR, finishing it in
// place: nothing is cloned and nothing is kept.
func (cc *Compiler) CompileCtx(ctx context.Context, source, name string, o Options) (*Compiled, error) {
	p, err := Prepare(ctx, source, name, o.Opt)
	if err != nil {
		return nil, err
	}
	if o.profiles() {
		// Profile-driven edge weights: execute the program once at the
		// IR level to annotate every basic block with its execution
		// count before building the interference graph.
		if err := profile(ctx, p.prog); err != nil {
			return nil, fmt.Errorf("%s: profiling run: %w", name, err)
		}
	}
	return cc.backEnd(p, p.prog, o)
}

// Prepared is a program after the front end — parsed, analyzed,
// lowered, optimized, verified and register-allocated — which is
// everything the allocation mode does not affect. It is immutable once
// Prepare returns, and safe for concurrent Finish calls: each Finish
// runs the back end on its own clone of the IR. The Pr profiling run's
// block counts are computed once, by the first Finish that needs them,
// and kept here beside the IR rather than in its blocks.
type Prepared struct {
	name string
	prog *ir.Program
	regs map[string]regalloc.Stats

	// profiling is a one-slot semaphore held while a profiling run is
	// in flight; counts holds the finished run's block counts, in
	// function then block order.
	profiling chan struct{}
	counts    atomic.Pointer[[]int64]
}

// IR returns the prepared program. It is shared by every Finish of p
// and must not be modified.
func (p *Prepared) IR() *ir.Program { return p.prog }

// Prepare runs the front end: parse, analyze, lower, optimize, verify
// and register-allocate. Cancellation is checked between passes.
func Prepare(ctx context.Context, source, name string, o opt.Options) (*Prepared, error) {
	pass := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: compile: %w", name, err)
		}
		return nil
	}
	if err := pass(); err != nil {
		return nil, err
	}
	file, err := minic.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := minic.Analyze(file); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog, err := lower.Program(file, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := pass(); err != nil {
		return nil, err
	}
	opt.Run(prog, o)
	if err := ir.Verify(prog); err != nil {
		return nil, fmt.Errorf("%s: after opt: %w", name, err)
	}
	regStats, err := regalloc.Run(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := pass(); err != nil {
		return nil, err
	}
	return &Prepared{name: name, prog: prog, regs: regStats, profiling: make(chan struct{}, 1)}, nil
}

// Finish runs the back end — profiling when the options call for it,
// data allocation and compaction — on a fresh clone of p's IR, reusing
// the compiler's scratch state. o.Opt is ignored: p fixed the front
// end. The returned Compiled shares only p's register-allocation
// statistics, which are read-only.
func (cc *Compiler) Finish(ctx context.Context, p *Prepared, o Options) (*Compiled, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	prog := p.prog.Clone()
	if o.profiles() {
		if err := p.stampProfile(ctx, prog); err != nil {
			return nil, fmt.Errorf("%s: profiling run: %w", p.name, err)
		}
	}
	return cc.backEnd(p, prog, o)
}

// profiles reports whether the options weight interference edges by a
// profiling run.
func (o Options) profiles() bool {
	return o.Mode == alloc.CBProfiled || (o.Profiled && o.Mode.Partitioned())
}

// profile executes prog once at the IR level, leaving every block's
// execution count in Block.ExecCount.
func profile(ctx context.Context, prog *ir.Program) error {
	in := sim.NewInterp(prog)
	in.Profile = true
	return in.RunContext(ctx)
}

// stampProfile writes p's profiling counts onto prog, a clone of p's
// IR, running the profile on prog first if no earlier Finish has. A
// failed or cancelled run records nothing, so the next caller retries.
func (p *Prepared) stampProfile(ctx context.Context, prog *ir.Program) error {
	if c := p.counts.Load(); c != nil {
		stampCounts(prog, *c)
		return nil
	}
	select {
	case p.profiling <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("awaiting shared profile: %w", ctx.Err())
	}
	defer func() { <-p.profiling }()
	if c := p.counts.Load(); c != nil {
		stampCounts(prog, *c)
		return nil
	}
	// prog is a fresh clone, so profiling it directly leaves the counts
	// where this Finish needs them; they are then copied out for later
	// callers.
	if err := profile(ctx, prog); err != nil {
		return err
	}
	var counts []int64
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			counts = append(counts, b.ExecCount)
		}
	}
	p.counts.Store(&counts)
	return nil
}

// stampCounts writes per-block execution counts, in function then
// block order, onto prog.
func stampCounts(prog *ir.Program, counts []int64) {
	i := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			b.ExecCount = counts[i]
			i++
		}
	}
}

// backEnd runs data allocation and compaction on prog, which belongs
// to this call alone.
func (cc *Compiler) backEnd(p *Prepared, prog *ir.Program, o Options) (*Compiled, error) {
	allocOpts := alloc.Options{
		Mode: o.Mode, InterruptSafe: o.InterruptSafe,
		Method: o.Partitioner, FMPasses: o.FMPasses,
		Profiled: o.Profiled && o.Mode.Partitioned(),
		Scanner:  &cc.scanner, SwapBanks: o.SwapBanks,
		Spec: o.Spec, BankPerm: o.BankPerm,
	}
	if o.DupOnly != nil {
		filter := o.DupOnly
		allocOpts.DupFilter = func(s *ir.Symbol) bool { return filter[s.Name] }
	}
	allocRes, err := alloc.Run(prog, allocOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	sched, err := compact.ScheduleWith(prog,
		compact.Config{Ports: allocRes.Ports, MirrorBanks: o.SwapBanks,
			Spec: o.Spec, BankPerm: o.BankPerm}, &cc.scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &Compiled{Name: p.name, IR: prog, Alloc: allocRes, Sched: sched, Regs: p.regs}, nil
}

// Run executes the compiled program on a fresh machine and returns it
// for inspection (cycle count, memory contents).
func (c *Compiled) Run() (*sim.Machine, error) {
	return c.RunCtx(context.Background())
}

// RunCtx is Run honoring ctx at the simulator's block boundaries.
func (c *Compiled) RunCtx(ctx context.Context) (*sim.Machine, error) {
	m := sim.NewMachine(c.Sched)
	if err := m.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	return m, nil
}

// RunFast executes the compiled program on the predecoded fast-path
// engine, which produces the same cycle counts, bandwidth counters and
// memory images as Run but without per-cycle map lookups or heap
// allocation. Use Run for the reference interpreter and its debugging
// hooks (tracing, per-instruction callbacks, port assertions).
func (c *Compiled) RunFast() (*sim.FastMachine, error) {
	return c.RunFastCtx(context.Background())
}

// RunFastCtx is RunFast honoring ctx: the fast engine polls for
// cancellation at basic-block boundaries, so a caller's deadline
// bounds even a simulation that would otherwise run to MaxCycles.
func (c *Compiled) RunFastCtx(ctx context.Context) (*sim.FastMachine, error) {
	pd, err := sim.Predecode(c.Sched)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	m := pd.NewMachine()
	if err := m.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	return m, nil
}

// RunCompiled executes the program on the compiled threaded-code
// engine, which produces the same cycle counts, bandwidth counters and
// memory images as Run and RunFast (differential tests pin all three)
// but dispatches one specialized closure per operation instead of
// interpreting, and allocates memory arenas covering only the
// program's used address range.
func (c *Compiled) RunCompiled() (*sim.CompiledMachine, error) {
	return c.RunCompiledCtx(context.Background(), nil)
}

// RunCompiledCtx is RunCompiled honoring ctx at the simulator's block
// boundaries. A non-nil batch recycles its machine's arenas across
// calls — the returned machine then aliases the batch's storage and is
// invalidated by the batch's next run, so callers must finish reading
// results first.
func (c *Compiled) RunCompiledCtx(ctx context.Context, b *sim.Batch) (*sim.CompiledMachine, error) {
	cp, err := sim.Compile(c.Sched)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	if b == nil {
		m := cp.NewMachine()
		if err := m.RunContext(ctx); err != nil {
			return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
		}
		return m, nil
	}
	m, err := b.Run(ctx, cp)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	return m, nil
}

// Global finds a global symbol by name for result inspection.
func (c *Compiled) Global(name string) *ir.Symbol {
	for _, g := range c.IR.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
