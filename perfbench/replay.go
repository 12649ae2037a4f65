package main

import (
	"context"
	"fmt"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/cost"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
	"dualbank/internal/sim"
)

// replayer performs the measurement bench.RunCtx makes — compile,
// validate, simulate on the compiled engine, check outputs — one pass
// at a time through each layer's public entry point, with a span around
// every call. Like pipeline.Compiler it carries the back-end scratch
// across measurements and is not safe for concurrent use; give each
// worker its own. The traced run compares what it measures with
// bench.RunCtx's answer for the same operation.
type replayer struct {
	tr      *tracer
	n       *layerCounts
	scanner core.Scanner
	scratch compact.Scratch
	batch   sim.Batch
}

// run measures p under mode and ro, recording its spans under parent.
func (rp *replayer) run(ctx context.Context, parent int, p bench.Program, mode alloc.Mode, ro bench.RunOptions) (bench.Result, error) {
	if ro.Engine != bench.EngineCompiled {
		return bench.Result{}, fmt.Errorf("%s/%v: replay supports the compiled engine only", p.Name, mode)
	}
	tr, n := rp.tr, rp.n
	root := tr.start("bench.run", parent)
	defer tr.end(root)
	step := func(name string, f func() error) error {
		s := tr.start(name, root)
		err := f()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s/%v: %s: %w", p.Name, mode, name, err)
		}
		return nil
	}
	n.srcBytes.Add(int64(len(p.Source)))

	var file *minic.File
	var prog *ir.Program
	var regs map[string]regalloc.Stats
	err := step("minic.parse", func() (err error) { file, err = minic.Parse(p.Source); return err })
	if err == nil {
		err = step("minic.analyze", func() error { return minic.Analyze(file) })
	}
	if err == nil {
		err = step("lower", func() (err error) { prog, err = lower.Program(file, p.Name); return err })
	}
	if err != nil {
		return bench.Result{}, err
	}
	n.lowerOps.Add(irOps(prog))
	step("opt", func() error { opt.Run(prog, opt.Options{}); return nil })
	n.optOps.Add(irOps(prog))
	err = step("ir.verify", func() error { return ir.Verify(prog) })
	if err == nil {
		err = step("regalloc", func() (err error) { regs, err = regalloc.Run(prog); return err })
	}
	if err != nil {
		return bench.Result{}, err
	}
	for _, st := range regs {
		n.spills.Add(int64(st.Spilled))
	}

	profiled := ro.Profiled && mode.Partitioned()
	if mode == alloc.CBProfiled || profiled {
		err := step("sim.profile", func() error {
			in := sim.NewInterp(prog)
			in.Profile = true
			return in.RunContext(ctx)
		})
		if err != nil {
			return bench.Result{}, err
		}
	}

	spec := machine.BankSpec{Banks: ro.Banks, PortsPerBank: ro.Ports}
	ao := alloc.Options{
		Mode: mode, Method: ro.Partitioner, FMPasses: ro.FMPasses,
		Profiled: profiled, Scanner: &rp.scanner, Spec: spec, BankPerm: ro.BankPerm,
	}
	if ro.DupOnly != nil {
		dup := make(map[string]bool, len(ro.DupOnly))
		for _, name := range ro.DupOnly {
			dup[name] = true
		}
		ao.DupFilter = func(s *ir.Symbol) bool { return dup[s.Name] }
	}
	var ar *alloc.Result
	var sched *compact.Program
	var cp *sim.CompiledProgram
	var m *sim.CompiledMachine
	err = step("alloc", func() (err error) { ar, err = alloc.Run(prog, ao); return err })
	if err == nil {
		err = step("compact.schedule", func() (err error) {
			sched, err = compact.ScheduleWith(prog, compact.Config{Ports: ar.Ports, Spec: spec, BankPerm: ro.BankPerm}, &rp.scratch)
			return err
		})
	}
	if err == nil {
		err = step("compact.validate", func() error { return compact.Validate(sched) })
	}
	if err == nil {
		err = step("sim.lower", func() (err error) { cp, err = sim.Compile(sched); return err })
	}
	if err == nil {
		err = step("sim.run", func() (err error) { m, err = rp.batch.Run(ctx, cp); return err })
	}
	if err != nil {
		return bench.Result{}, err
	}
	if ar.Graph != nil {
		n.graphNodes.Add(int64(len(ar.Graph.Nodes)))
		n.graphEdges.Add(int64(ar.Graph.Edges()))
	}
	n.dupStores.Add(int64(ar.DupStores))
	st := sched.StaticStats()
	n.instrs.Add(int64(st.Instrs))
	n.schedOps.Add(int64(st.Ops))
	n.cycles.Add(m.CycleCount())

	if p.Check != nil {
		globals := make(map[string]*ir.Symbol, len(prog.Globals))
		for _, g := range prog.Globals {
			globals[g.Name] = g
		}
		read := func(name string, idx int) (uint32, error) {
			g := globals[name]
			if g == nil {
				return 0, fmt.Errorf("no global %q", name)
			}
			return m.Word(g, idx)
		}
		if err := step("bench.check", func() error { return p.Check(read) }); err != nil {
			return bench.Result{}, err
		}
	}
	res := bench.Result{
		Bench: p.Name, Mode: mode,
		Cycles:    m.CycleCount(),
		Mem:       cost.Of(ar, sched),
		DupStores: ar.DupStores,
	}
	for _, s := range ar.Duplicated {
		res.Duplicated = append(res.Duplicated, s.Name)
	}
	return res, nil
}

// irOps counts the operations in every block of p.
func irOps(p *ir.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Ops))
		}
	}
	return n
}

// sameMeasurement reports whether two measurements of one operation
// agree on everything the paper's figures use: cycles, every memory
// term, and the duplication outcome.
func sameMeasurement(a, b bench.Result) bool {
	if a.Cycles != b.Cycles || a.DupStores != b.DupStores || len(a.Duplicated) != len(b.Duplicated) {
		return false
	}
	for i := range a.Duplicated {
		if a.Duplicated[i] != b.Duplicated[i] {
			return false
		}
	}
	ma, mb := a.Mem, b.Mem
	if ma.XData != mb.XData || ma.YData != mb.YData || ma.Stack != mb.Stack ||
		ma.Instr != mb.Instr || ma.NBanks != mb.NBanks || len(ma.Extra) != len(mb.Extra) {
		return false
	}
	for i := range ma.Extra {
		if ma.Extra[i] != mb.Extra[i] {
			return false
		}
	}
	return true
}
