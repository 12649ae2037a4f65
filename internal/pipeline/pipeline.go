// Package pipeline is the compiler driver: it chains the MiniC
// front-end, the optimizer, the register allocator, the data
// allocation pass, and the operation-compaction pass into a single
// Compile call, and wraps the simulator for execution. Every
// experiment arm of the paper is one Options.Mode value.
//
// The passes before data allocation do not depend on the mode, so a
// caller measuring one program under many configurations can split
// the compile in two: Prepare runs that front end once, and Finish
// runs the back end per configuration. Finish itself has two steps:
// Plan decides the allocation from the program's interference graph,
// which the Prepared builds once per weight policy and shares, and
// Apply carries the plan out on a private clone of the IR and compacts
// it. A caller that has already measured a plan can skip its Apply.
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
	// Spec selects the machine's bank geometry (bank count × ports per
	// bank); the zero value is the paper's dual-bank, single-ported
	// machine. Every geometry runs the same allocation and compaction
	// code; Ideal and LowOrder require the paper's machine.
	Spec machine.BankSpec
	// BankPerm relabels the banks by a permutation: data assigned to
	// bank i lands in bank BankPerm[i], so []int{1, 0} mirrors the
	// classic machine's X/Y assignment wholesale. The banks are
	// architecturally identical, so cycle counts must not change; the
	// metamorphic tests prove it.
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
// the interference-graph scanner, the list scheduler's bookkeeping, and
// the compiled simulation engine's recycled machine — so a driver compiling
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
	plan, err := cc.Plan(ctx, p, o)
	if err != nil {
		return nil, err
	}
	return cc.backEnd(p, p.prog, plan)
}

// Prepared is a program after the front end — parsed, analyzed,
// lowered, optimized, verified and register-allocated — which is
// everything the allocation mode does not affect. Its IR is immutable
// once Prepare returns, and safe for concurrent Plan and Finish calls:
// planning only reads it, and each Finish runs the back end on its own
// clone. The interference graph of each weight policy is built once,
// by the first Plan that needs it, and kept here beside the IR.
type Prepared struct {
	name string
	prog *ir.Program
	regs map[string]regalloc.Stats

	// building is a one-slot semaphore held while a graph is built;
	// graphs holds the finished graph of each weight policy.
	building chan struct{}
	graphs   [2]atomic.Pointer[core.Graph]
}

// IR returns the prepared program. It is shared by every Finish of p
// and must not be modified.
func (p *Prepared) IR() *ir.Program { return p.prog }

// Graphs returns how many interference graphs p has built: at most
// one per weight policy.
func (p *Prepared) Graphs() int {
	n := 0
	for i := range p.graphs {
		if p.graphs[i].Load() != nil {
			n++
		}
	}
	return n
}

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
	// Build the lazy function index now: the graph scan and the
	// profiling run look functions up on the shared IR, and must only
	// read it.
	prog.Func("main")
	return &Prepared{name: name, prog: prog, regs: regStats, building: make(chan struct{}, 1)}, nil
}

// Finish runs the back end — allocation planning, then Apply — on a
// fresh clone of p's IR, reusing the compiler's scratch state. o.Opt
// is ignored: p fixed the front end. The returned Compiled shares only
// p's register-allocation statistics and the plan's analysis, which
// are read-only.
func (cc *Compiler) Finish(ctx context.Context, p *Prepared, o Options) (*Compiled, error) {
	plan, err := cc.Plan(ctx, p, o)
	if err != nil {
		return nil, err
	}
	return cc.Apply(p, plan)
}

// Plan decides o's data allocation for p without cloning or writing
// p's IR. Partitioned modes read p's interference graph under their
// weight policy, which Graph builds on first use. o.Opt is ignored.
func (cc *Compiler) Plan(ctx context.Context, p *Prepared, o Options) (*alloc.Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	ao := alloc.Options{
		Mode: o.Mode, InterruptSafe: o.InterruptSafe,
		Method: o.Partitioner, FMPasses: o.FMPasses, Profiled: o.Profiled,
		Spec: o.Spec, BankPerm: o.BankPerm,
	}
	if o.DupOnly != nil {
		filter := o.DupOnly
		ao.DupFilter = func(s *ir.Symbol) bool { return filter[s.Name] }
	}
	var g *core.Graph
	if policy, ok := ao.Policy(); ok {
		var err error
		if g, err = cc.Graph(ctx, p, policy); err != nil {
			return nil, err
		}
	}
	plan, err := alloc.NewPlan(p.prog, g, ao)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return plan, nil
}

// Graph returns p's interference graph under policy. The first call
// for a policy builds it with the compiler's scanner; the profiled
// graph first runs the program once at the IR level to count block
// executions (Pr's edge weights). Both read p's IR and never write it,
// and the graph's CSR view is built before it is shared, so every
// later reader only reads. A cancelled or failed profiling run records
// nothing, and the next caller runs it again.
func (cc *Compiler) Graph(ctx context.Context, p *Prepared, policy core.WeightPolicy) (*core.Graph, error) {
	if g := p.graphs[policy].Load(); g != nil {
		return g, nil
	}
	wrap := func(err error) error {
		if policy == core.WeightProfiled {
			return fmt.Errorf("%s: profiling run: %w", p.name, err)
		}
		return fmt.Errorf("%s: compile: %w", p.name, err)
	}
	select {
	case p.building <- struct{}{}:
	case <-ctx.Done():
		return nil, wrap(fmt.Errorf("awaiting shared graph: %w", ctx.Err()))
	}
	defer func() { <-p.building }()
	if g := p.graphs[policy].Load(); g != nil {
		return g, nil
	}
	var g *core.Graph
	if policy == core.WeightProfiled {
		counts, err := sim.NewInterp(p.prog).BlockCounts(ctx)
		if err != nil {
			return nil, wrap(err)
		}
		g = cc.scanner.BuildProfiledGraph(p.prog, counts)
	} else {
		g = cc.scanner.BuildGraph(p.prog, policy)
	}
	g.CSR()
	p.graphs[policy].Store(g)
	return g, nil
}

// Apply carries plan, which Plan made for p, out on a fresh clone of
// p's IR and compacts the result.
func (cc *Compiler) Apply(p *Prepared, plan *alloc.Plan) (*Compiled, error) {
	return cc.backEnd(p, p.prog.Clone(), plan)
}

// backEnd applies plan to prog, which belongs to this call alone, and
// compacts it.
func (cc *Compiler) backEnd(p *Prepared, prog *ir.Program, plan *alloc.Plan) (*Compiled, error) {
	allocRes, err := alloc.Apply(prog, plan)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	sched, err := compact.ScheduleWith(prog,
		compact.Config{Ports: plan.Ports, Spec: plan.Spec, BankPerm: plan.BankPerm}, &cc.scratch)
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

// RunCompiled executes the program on the compiled threaded-code
// engine, which produces the same cycle counts, bandwidth counters and
// memory images as Run (differential tests pin the two) but
// dispatches one specialized closure per operation instead of
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
