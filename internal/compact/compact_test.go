package compact_test

import (
	"context"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
	"dualbank/internal/regalloc"
)

// build compiles source through the allocation pass under a mode.
func build(t *testing.T, src string, mode alloc.Mode) (*ir.Program, *alloc.Result) {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := minic.Analyze(file); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, err := lower.Program(file, "t")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	res, err := alloc.Run(p, alloc.Options{Mode: mode})
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	return p, res
}

const firSrc = `
float a[16] = {1.0};
float b[16] = {2.0};
float r;
void main() {
	int i;
	float s = 0.0;
	for (i = 0; i < 16; i++) {
		s += a[i] * b[i];
	}
	r = s;
}
`

func schedule(t *testing.T, src string, mode alloc.Mode) *compact.Program {
	t.Helper()
	p, res := build(t, src, mode)
	sched, err := compact.Schedule(p, compact.Config{Ports: res.Ports})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := compact.Validate(sched); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sched
}

func TestScheduleValidAllModes(t *testing.T) {
	for _, mode := range []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.FullDup, alloc.Ideal,
	} {
		schedule(t, firSrc, mode)
	}
}

// TestBankedPortDiscipline: under the banked model, no instruction may
// carry two accesses to one bank, and every memory op sits on the unit
// wired to its bank.
func TestBankedPortDiscipline(t *testing.T) {
	sched := schedule(t, firSrc, alloc.CB)
	for _, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if op := in.Slots[machine.MU0]; op != nil {
					if op.Bank == machine.BankY {
						t.Fatalf("Y-bank op on MU0: %v", op)
					}
				}
				if op := in.Slots[machine.MU1]; op != nil {
					if op.Bank == machine.BankX {
						t.Fatalf("X-bank op on MU1: %v", op)
					}
				}
			}
		}
	}
}

// TestSingleBankNeverUsesMU1: with all data in bank X, the second
// memory unit must stay idle — the motivating inefficiency.
func TestSingleBankNeverUsesMU1(t *testing.T) {
	sched := schedule(t, firSrc, alloc.SingleBank)
	for _, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Slots[machine.MU1] != nil {
					t.Fatalf("MU1 used under single-bank: %v", in.Slots[machine.MU1])
				}
			}
		}
	}
}

// TestCBPairsLoads: the FIR inner loop must contain an instruction
// issuing loads on both memory units.
func TestCBPairsLoads(t *testing.T) {
	sched := schedule(t, firSrc, alloc.CB)
	paired := false
	for _, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				a, b := in.Slots[machine.MU0], in.Slots[machine.MU1]
				if a != nil && b != nil && a.Kind == ir.OpLoad && b.Kind == ir.OpLoad {
					paired = true
				}
			}
		}
	}
	if !paired {
		t.Fatal("CB schedule never issues two loads in one instruction")
	}
}

// TestScheduleTighterThanBaseline: static code size must shrink when
// partitioning packs more operations per instruction.
func TestScheduleTighterThanBaseline(t *testing.T) {
	base := schedule(t, firSrc, alloc.SingleBank)
	cb := schedule(t, firSrc, alloc.CB)
	if cb.StaticInstrs() >= base.StaticInstrs() {
		t.Fatalf("CB %d instrs, baseline %d — expected tighter code",
			cb.StaticInstrs(), base.StaticInstrs())
	}
}

// TestEveryOpScheduledOnce: each IR op appears in exactly one slot.
func TestEveryOpScheduledOnce(t *testing.T) {
	sched := schedule(t, firSrc, alloc.CB)
	for name, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			count := map[*ir.Op]int{}
			for _, in := range blk.Instrs {
				for _, op := range in.Ops() {
					count[op]++
				}
			}
			for _, op := range blk.Src.Ops {
				if count[op] != 1 {
					t.Fatalf("%s: op %v scheduled %d times", name, op, count[op])
				}
			}
		}
	}
}

const dupSrc = `
float s[32] = {1.0};
float R[8];
void main() {
	int m;
	int i;
	for (m = 0; m < 8; m++) {
		float acc = 0.0;
		int lim = 32 - m;
		for (i = 0; i < lim; i++) {
			acc += s[i] * s[i + m];
		}
		R[m] = acc;
		s[m] = acc;
	}
}
`

// TestAtomicPairsShareInstruction: under InterruptSafe, both halves of
// a duplicated store must land in one instruction (checked by
// Validate, exercised here end to end).
func TestAtomicPairsShareInstruction(t *testing.T) {
	file, err := minic.Parse(dupSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Analyze(file); err != nil {
		t.Fatal(err)
	}
	p, err := lower.Program(file, "t")
	if err != nil {
		t.Fatal(err)
	}
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		t.Fatal(err)
	}
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.CBDup, InterruptSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DupStores == 0 {
		t.Fatal("expected duplicated stores")
	}
	sched, err := compact.Schedule(p, compact.Config{Ports: res.Ports})
	if err != nil {
		t.Fatal(err)
	}
	if err := compact.Validate(sched); err != nil {
		t.Fatal(err)
	}
	// Validate covers the pairing rule; double-check directly.
	for _, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, op := range in.Ops() {
					if op.Atomic && op.DupPair != nil {
						twin := false
						for _, other := range in.Ops() {
							if other == op.DupPair {
								twin = true
							}
						}
						if !twin {
							t.Fatal("atomic pair split across instructions")
						}
					}
				}
			}
		}
	}
}

// TestStaticStats: the schedule statistics are self-consistent, and CB
// partitioning raises both occupancy and the dual-memory-access ratio
// relative to the single-bank baseline.
func TestStaticStats(t *testing.T) {
	base := schedule(t, firSrc, alloc.SingleBank).StaticStats()
	cb := schedule(t, firSrc, alloc.CB).StaticStats()
	for _, s := range []compact.Stats{base, cb} {
		unitTotal := 0
		for _, n := range s.UnitOps {
			unitTotal += n
		}
		if unitTotal != s.Ops {
			t.Fatalf("unit occupancy %d != ops %d", unitTotal, s.Ops)
		}
		if s.DualMemInstrs > s.MemInstrs || s.Instrs < s.MemInstrs {
			t.Fatalf("inconsistent stats %+v", s)
		}
	}
	if base.DualMemInstrs != 0 {
		t.Errorf("single-bank schedule claims %d dual accesses", base.DualMemInstrs)
	}
	if cb.DualMemInstrs == 0 {
		t.Error("CB schedule shows no dual memory accesses")
	}
	if cb.OpsPerInstr() <= base.OpsPerInstr() {
		t.Errorf("CB occupancy %.2f not above baseline %.2f", cb.OpsPerInstr(), base.OpsPerInstr())
	}
	if !strings.Contains(cb.String(), "dual-access") {
		t.Error("stats report misses dual-access line")
	}
}

// TestDualPortedAllowsTwoSameBankAccesses: under the Ideal model, two
// X-bank accesses may share an instruction on the two memory units.
func TestDualPortedAllowsTwoSameBankAccesses(t *testing.T) {
	// Same-array accesses: only dual-porting can pair them.
	sched := schedule(t, dupSrc, alloc.Ideal)
	paired := false
	for _, f := range sched.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				a, b := in.Slots[machine.MU0], in.Slots[machine.MU1]
				if a != nil && b != nil && a.Sym == b.Sym {
					paired = true
				}
			}
		}
	}
	if !paired {
		t.Fatal("dual-ported schedule never pairs same-array accesses")
	}
}

// TestConflictsZeroAlloc pins the interference scan's steady state: a
// Scratch warmed on the 23 prepared suite programs scans every one of
// their blocks again with no heap allocation.
func TestConflictsZeroAlloc(t *testing.T) {
	var blocks []*ir.Block
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prep.IR().Funcs {
			blocks = append(blocks, f.Blocks...)
		}
	}
	var s compact.Scratch
	scan := func() {
		for _, b := range blocks {
			if _, err := s.Conflicts(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan() // warm the scratch
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("scanning the suite allocates %.1f objects with a warm Scratch, want 0", allocs)
	}
}

// TestScratchHoldsNoIR: a Scratch points at no IR once Conflicts,
// ScheduleWith or Validate returns, so one held across programs (a
// compiler's, or its interference scanner's) does not keep the last
// one reachable. One Scratch scans each suite program's prepared IR
// block by block, then schedules and checks it under CBDup, whose
// atomic store pairs fill the op-index map.
func TestScratchHoldsNoIR(t *testing.T) {
	s := new(compact.Scratch)
	check := func(name, after string) {
		t.Helper()
		if n := s.HeldIR(); n != 0 {
			t.Errorf("%s: the scratch holds %d IR pointers after %s, want 0", name, n, after)
		}
	}
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, f := range prep.IR().Funcs {
			for _, b := range f.Blocks {
				if _, err := s.Conflicts(b); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				check(p.Name, "Conflicts")
			}
		}
		prog, res := build(t, p.Source, alloc.CBDup)
		sched, err := compact.ScheduleWith(prog, compact.Config{Ports: res.Ports}, s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		check(p.Name, "ScheduleWith")
		if err := s.Validate(sched); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		check(p.Name, "Validate")
	}
}
