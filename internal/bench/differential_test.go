package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// TestCompiledSimMatchesReference pins the compiled threaded-code
// engine to the interpretive reference Machine: every benchmark under
// every allocation mode must agree on cycle count, the bandwidth
// counters (MemAccesses, DualMemCycles), the run-time conflict count
// (BankConflicts, non-zero only under the low-order organisation),
// executed-operation count, and the complete final memory images. The
// compiled engine's arenas cover only the program's used address
// range, so the image check compares that prefix word-for-word and
// then requires the reference to have left everything beyond it zero —
// if the reference could ever write past the compiled high-water mark,
// this fails rather than silently comparing a truncated image.
func TestCompiledSimMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite in short mode")
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	for _, p := range append(Kernels(), Applications()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var batch sim.Batch
			for _, mode := range modes {
				c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%v: compile: %v", mode, err)
				}
				ref := sim.NewMachine(c.Sched)
				if err := ref.Run(); err != nil {
					t.Fatalf("%v: reference: %v", mode, err)
				}
				cp, err := sim.Compile(c.Sched)
				if err != nil {
					t.Fatalf("%v: lower: %v", mode, err)
				}
				// Run through a shared Batch, so this differential also
				// pins the arena-recycling path the production default
				// actually uses.
				cm, err := batch.Run(context.Background(), cp)
				if err != nil {
					t.Fatalf("%v: compiled: %v", mode, err)
				}
				if cm.Cycles != ref.Cycles {
					t.Errorf("%v: cycles: compiled %d, reference %d", mode, cm.Cycles, ref.Cycles)
				}
				if cm.OpsExecuted != ref.OpsExecuted {
					t.Errorf("%v: ops executed: compiled %d, reference %d", mode, cm.OpsExecuted, ref.OpsExecuted)
				}
				if cm.MemAccesses != ref.MemAccesses {
					t.Errorf("%v: mem accesses: compiled %d, reference %d", mode, cm.MemAccesses, ref.MemAccesses)
				}
				if cm.DualMemCycles != ref.DualMemCycles {
					t.Errorf("%v: dual-mem cycles: compiled %d, reference %d", mode, cm.DualMemCycles, ref.DualMemCycles)
				}
				if cm.BankConflicts != ref.BankConflicts {
					t.Errorf("%v: bank conflicts: compiled %d, reference %d", mode, cm.BankConflicts, ref.BankConflicts)
				}
				n := cp.MemWords()
				for i := 0; i < n; i++ {
					if cm.X[i] != ref.X[i] {
						t.Fatalf("%v: X[%#x]: compiled %#x, reference %#x", mode, i, cm.X[i], ref.X[i])
					}
					if cm.Y[i] != ref.Y[i] {
						t.Fatalf("%v: Y[%#x]: compiled %#x, reference %#x", mode, i, cm.Y[i], ref.Y[i])
					}
				}
				for i := n; i < len(ref.X); i++ {
					if ref.X[i] != 0 || ref.Y[i] != 0 {
						t.Fatalf("%v: reference wrote word %#x beyond the compiled arena (%d words)", mode, i, n)
					}
				}
			}
		})
	}
}
