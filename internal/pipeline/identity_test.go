package pipeline_test

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/genmc"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// identityCells is the sample the cycle identity is checked on for
// the i-th program, four cells each:
//   - CB on the paper's 2×1 machine;
//   - LowOrder on it, the one mode whose run-time bank conflicts stall;
//   - one of the other five modes on it, turning with the benchmark;
//   - one placement mode on a wider BENCH_hw.json geometry: the
//     geometry turns with every program and the mode with every
//     fifth, so 25 consecutive programs meet all 25 (geometry, mode)
//     pairs.
//
// The reference engine is slow under -race; on the suite alone the
// full matrix takes 41 s there on a 2-vCPU host.
func identityCells(i int) []backendCell {
	others := []alloc.Mode{alloc.SingleBank, alloc.CBProfiled, alloc.CBDup, alloc.FullDup, alloc.Ideal}
	placement := []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup, alloc.FullDup}
	specs := []machine.BankSpec{
		{Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
		{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
	}
	return []backendCell{
		{mode: alloc.CB},
		{mode: alloc.LowOrder},
		{mode: others[i%len(others)]},
		{spec: specs[i%len(specs)], mode: placement[i/len(specs)%len(placement)]},
	}
}

// identitySample is the number of generated programs the cycle
// identity is checked on beside the suite, under the same cell
// rotation. Under -race on a 2-vCPU host the sample adds 0.2 s to the
// suite's 4.9 s; 250 programs would take 9.4 s in all.
const identitySample = 50

// TestCycleIdentity ties the IR interpreter's control flow to both
// VLIW engines' cycle counts: a run's cycles are the sum over blocks
// of the block's execution count times its long instructions, plus
// the stall cycles of run-time bank conflicts. The counts come from
// the interpreter on the prepared IR, in function then block order;
// the schedule comes from the back end. The check runs on the 23
// benchmarks and a sample of generated programs, whose cells continue
// the benchmarks' rotation.
func TestCycleIdentity(t *testing.T) {
	progs := append(bench.Kernels(), bench.Applications()...)
	for _, k := range genmc.Population(identitySample, 1) {
		g := genmc.Generate(k)
		progs = append(progs, bench.Program{Name: g.Name, Source: g.Source})
	}
	ctx := context.Background()
	cc := new(pipeline.Compiler)
	for i, p := range progs {
		prep, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		counts, err := sim.NewInterp(prep.IR()).BlockCounts(ctx)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, cell := range identityCells(i) {
			c, err := cc.Finish(ctx, prep, pipeline.Options{Mode: cell.mode, Spec: cell.spec})
			if err != nil {
				t.Fatalf("%s %s %v: %v", p.Name, cell.spec, cell.mode, err)
			}
			var issued int64
			b := 0
			for _, f := range prep.IR().Funcs {
				for _, blk := range c.Sched.Funcs[f.Name].Blocks {
					issued += counts[b] * int64(len(blk.Instrs))
					b++
				}
			}
			m, err := c.RunCtx(ctx)
			if err != nil {
				t.Fatalf("%s %s %v: %v", p.Name, cell.spec, cell.mode, err)
			}
			cm, err := c.RunCompiledCtx(ctx, nil)
			if err != nil {
				t.Fatalf("%s %s %v: %v", p.Name, cell.spec, cell.mode, err)
			}
			for _, run := range []struct {
				engine string
				sim.Counters
			}{{"machine", m.Counters()}, {"compiled", cm.Counters()}} {
				if want := issued + run.BankConflicts; run.Cycles != want {
					t.Errorf("%s %s %v on %s: %d cycles, blocks issue %d plus %d conflict stalls = %d",
						p.Name, cell.spec, cell.mode, run.engine, run.Cycles, issued, run.BankConflicts, want)
				}
			}
		}
	}
}
