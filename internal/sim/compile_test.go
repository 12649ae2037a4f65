package sim_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

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
	"dualbank/internal/sim"
)

// firSource is a small FIR filter with function calls, loops, integer
// and float arithmetic — enough to exercise every dispatch case of the
// compiled engine while staying quick to simulate.
const firSource = `
float x[128] = {1.0, 2.0, 3.0, 4.0, 5.0};
float h[32] = {0.5, 0.25, 0.125};
float y[96];
int checksum;

float tap(float acc, float a, float b) {
	return acc + a * b;
}

void main() {
	int n;
	int k;
	int c = 0;
	for (n = 0; n < 96; n++) {
		float acc = 0.0;
		for (k = 0; k < 32; k++) {
			acc = tap(acc, x[n + k], h[k]);
		}
		y[n] = acc;
		if (acc > 0.0) {
			c = c + 1;
		}
	}
	checksum = c;
}
`

// compileSched compiles source through scheduling for tests and
// benchmarks alike (compileTo is *testing.T-only).
func compileSched(tb testing.TB, src string, mode alloc.Mode) *compact.Program {
	tb.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	if err := minic.Analyze(file); err != nil {
		tb.Fatalf("analyze: %v", err)
	}
	p, err := lower.Program(file, "t")
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		tb.Fatalf("regalloc: %v", err)
	}
	res, err := alloc.Run(p, alloc.Options{Mode: mode})
	if err != nil {
		tb.Fatalf("alloc: %v", err)
	}
	sched, err := compact.Schedule(p, compact.Config{Ports: res.Ports})
	if err != nil {
		tb.Fatalf("schedule: %v", err)
	}
	return sched
}

// TestCompiledMatchesMachine cross-checks the compiled engine against
// the interpretive reference on the local kernel under every port
// model: counters and the full memory image, including the invariant
// that the reference never touches a word beyond the compiled arena's
// high-water mark. The full-suite differential test lives in
// internal/bench.
func TestCompiledMatchesMachine(t *testing.T) {
	for _, mode := range []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.FullDup,
		alloc.Ideal, alloc.LowOrder,
	} {
		sched := compileSched(t, firSource, mode)
		ref := sim.NewMachine(sched)
		if err := ref.Run(); err != nil {
			t.Fatalf("%v: reference: %v", mode, err)
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%v: compile: %v", mode, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%v: compiled: %v", mode, err)
		}
		if cm.Cycles != ref.Cycles || cm.OpsExecuted != ref.OpsExecuted ||
			cm.MemAccesses != ref.MemAccesses || cm.DualMemCycles != ref.DualMemCycles ||
			cm.BankConflicts != ref.BankConflicts {
			t.Errorf("%v: counters diverge: compiled {cyc %d ops %d mem %d dual %d conf %d} vs reference {cyc %d ops %d mem %d dual %d conf %d}",
				mode,
				cm.Cycles, cm.OpsExecuted, cm.MemAccesses, cm.DualMemCycles, cm.BankConflicts,
				ref.Cycles, ref.OpsExecuted, ref.MemAccesses, ref.DualMemCycles, ref.BankConflicts)
		}
		n := cp.MemWords()
		for i := 0; i < n; i++ {
			if cm.X[i] != ref.X[i] || cm.Y[i] != ref.Y[i] {
				t.Fatalf("%v: memory image diverges at word %#x", mode, i)
			}
		}
		for i := n; i < machine.BankWords; i++ {
			if ref.X[i] != 0 || ref.Y[i] != 0 {
				t.Fatalf("%v: reference touched word %#x beyond the compiled arena (%d words)", mode, i, n)
			}
		}
	}
}

// Constructors for hand-packed long instructions.

func alu(k ir.OpKind, dst, a0, a1 ir.Reg) *ir.Op {
	return &ir.Op{Kind: k, Dst: dst, Args: [2]ir.Reg{a0, a1}}
}

func load(dst ir.Reg, sym *ir.Symbol, idx ir.Reg) *ir.Op {
	return &ir.Op{Kind: ir.OpLoad, Dst: dst, Sym: sym, Idx: idx, Bank: sym.Bank}
}

func store(val ir.Reg, sym *ir.Symbol, idx ir.Reg) *ir.Op {
	return &ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{val}, Sym: sym, Idx: idx, Bank: sym.Bank}
}

func konst(dst ir.Reg, v int64) *ir.Op { return &ir.Op{Kind: ir.OpConst, Dst: dst, Imm: v} }

func fkonst(dst ir.Reg, v float64) *ir.Op { return &ir.Op{Kind: ir.OpFConst, Dst: dst, FImm: v} }

// oneBlock wraps hand-packed long instructions, slots in unit order
// (PCU, MU0, MU1, AU0, AU1, DU0, DU1, FPU0, FPU1), as the schedule of a
// one-block main over globals. The last instruction must hold the ret.
func oneBlock(ports machine.PortModel, instrs [][machine.NumUnits]*ir.Op, globals ...*ir.Symbol) *compact.Program {
	f := ir.NewFunc("main", ir.TVoid)
	f.SetPhysRegTable()
	blk := f.NewBlock()
	sb := &compact.Block{Src: blk}
	for _, slots := range instrs {
		ci := new(compact.Instr)
		copy(ci.Slots[:], slots[:])
		for _, op := range slots {
			if op != nil {
				blk.Ops = append(blk.Ops, op)
			}
		}
		sb.Instrs = append(sb.Instrs, ci)
	}
	src := &ir.Program{Name: "handpacked", Globals: globals}
	src.AddFunc(f)
	funcs := map[string]*compact.Func{"main": {Src: f, Blocks: []*compact.Block{sb}}}
	return &compact.Program{Src: src, Funcs: funcs, Ports: ports}
}

// stagedProgram hand-builds a one-block schedule whose long
// instructions pack register swaps: writes with no conflict-free commit
// order, which the compiled engine lowers through shadow registers.
// Every other slot of such an instruction — integer, float,
// multiply-accumulate, and direct and indexed memory operations — then
// writes its result through a shadow too. Under the dual-ported and
// low-order models, where either memory unit reaches any bank, one more
// swap instruction has MU0 store to in[2] and MU1 load in[2]: the store
// comes first in slot order, yet the load must read the
// pre-instruction word. No compiled benchmark schedules such an
// instruction, so only a hand-built program reaches this path.
func stagedProgram(ports machine.PortModel) (*compact.Program, *ir.Symbol, *ir.Symbol) {
	out := &ir.Symbol{Name: "out", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 8, Dims: []int{8}}
	in := &ir.Symbol{Name: "in", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 8, Dims: []int{8},
		Init: []uint32{7, 5, 9, 11}}
	if ports == machine.PortsLowOrder {
		in.Addr = 8 // one flat space; the address parity picks the bank
	} else {
		out.Bank, in.Bank = machine.BankX, machine.BankY
	}
	r, fr := ir.PhysInt, ir.PhysFloat
	instrs := [][machine.NumUnits]*ir.Op{
		{nil, nil, load(r(5), in, 0), konst(r(1), 6), konst(r(2), -4), konst(r(3), 2), konst(r(4), 0),
			fkonst(fr(1), 1.5), fkonst(fr(2), -0.25)},
		// r1, r2 = r2, r1
		{nil, load(r(8), out, r(3)), store(r(1), in, r(4)),
			alu(ir.OpMov, r(1), r(2), 0), alu(ir.OpMov, r(2), r(1), 0),
			alu(ir.OpDiv, r(6), r(1), r(3)), alu(ir.OpSetLT, r(7), r(2), r(1)),
			alu(ir.OpFMul, fr(3), fr(1), fr(2)), alu(ir.OpFAdd, fr(4), fr(1), fr(2))},
		// f1, f2 = f2, f1
		{nil, store(r(6), out, 0), store(r(7), in, r(3)),
			alu(ir.OpMov, fr(1), fr(2), 0), alu(ir.OpMov, fr(2), fr(1), 0),
			alu(ir.OpRem, r(5), r(5), r(3)), alu(ir.OpMac, r(4), r(1), r(2)),
			alu(ir.OpFSub, fr(3), fr(3), fr(4)), alu(ir.OpFloatToInt, r(6), fr(4), 0)},
		// r3, r2 = -r2, r3
		{nil, store(r(4), out, 0), store(r(8), in, 0),
			alu(ir.OpNeg, r(3), r(2), 0), alu(ir.OpMov, r(2), r(3), 0),
			alu(ir.OpNot, r(7), r(1), 0), alu(ir.OpShl, r(8), r(5), r(3)),
			alu(ir.OpIntToFloat, fr(4), r(1), 0), alu(ir.OpFDiv, fr(3), fr(3), fr(1))},
		{nil, store(r(2), out, r(6)), store(r(3), in, r(5)),
			alu(ir.OpAdd, r(5), r(7), r(8)), nil, alu(ir.OpFSetLT, r(1), fr(3), fr(4)), nil, nil, nil},
		{alu(ir.OpRet, 0, 0, 0), store(fr(3), out, r(5)), store(r(4), in, r(5)), nil, nil, nil, nil, nil, nil},
	}
	if ports != machine.PortsBanked {
		// r6, r9 = r9, r6, after the first swap: in[r3 = 2] = r6 (3)
		// beside r8 = in[2], which must read the initial 9. The next
		// swap overwrites in[2]; the one after stores r8 to in[0].
		cycle := [machine.NumUnits]*ir.Op{nil, store(r(6), in, r(3)), load(r(8), in, r(3)),
			alu(ir.OpMov, r(6), r(9), 0), alu(ir.OpMov, r(9), r(6), 0)}
		instrs = slices.Insert(instrs, 2, cycle)
	}
	return oneBlock(ports, instrs, out, in), out, in
}

// TestCompiledStagedMatchesMachine pins the compiled engine's
// instructions with anti-dependence cycles to the reference under
// every port model: counters, the memory image and the register file
// must agree, and the reference must show the swaps took effect (so the
// program really exercises the two-phase rule).
func TestCompiledStagedMatchesMachine(t *testing.T) {
	for _, ports := range []machine.PortModel{machine.PortsBanked, machine.PortsDualPorted, machine.PortsLowOrder} {
		sched, out, in := stagedProgram(ports)
		ref := sim.NewMachine(sched)
		if err := ref.Run(); err != nil {
			t.Fatalf("%v: reference: %v", ports, err)
		}
		// in[2] is the first swap's compare of its own inputs (-4 < 6);
		// in[1] and out[1] are the third swap's results, -6 (the negated
		// r2 = 6 the first swap left) and 2; out[0] is the second's
		// multiply-accumulate of the swapped registers.
		type word struct {
			sym  *ir.Symbol
			idx  int
			want int32
		}
		want := []word{{in, 2, 1}, {in, 1, -6}, {out, 1, 2}, {out, 0, -24}}
		if ports != machine.PortsBanked {
			// in[0] holds what the load packed after the store to in[2]
			// read: the pre-instruction 9, not the 3 stored beside it.
			want = append(want, word{in, 0, 9})
		}
		for _, w := range want {
			if got, err := ref.Int32(w.sym, w.idx); err != nil || got != w.want {
				t.Fatalf("%v: reference %s[%d] = %d (%v), want %d", ports, w.sym, w.idx, got, err, w.want)
			}
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%v: compile: %v", ports, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%v: compiled: %v", ports, err)
		}
		if cm.Counters() != ref.Counters() {
			t.Errorf("%v: counters diverge: compiled %+v, reference %+v", ports, cm.Counters(), ref.Counters())
		}
		for b := range cm.Banks {
			for i, w := range cm.Banks[b] {
				if w != ref.Banks[b][i] {
					t.Errorf("%v: bank %d word %d: compiled %#x, reference %#x", ports, b, i, w, ref.Banks[b][i])
				}
			}
		}
		for reg := 1; reg < len(ref.Regs); reg++ {
			if cm.Regs[reg] != ref.Regs[reg] {
				t.Errorf("%v: register %d: compiled %#x, reference %#x", ports, reg, cm.Regs[reg], ref.Regs[reg])
			}
		}
	}
}

// TestCompiledZeroAllocSteadyState enforces the compiled engine's
// allocation contract: once lowered, Reset+Run allocates nothing.
func TestCompiledZeroAllocSteadyState(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	cm := cp.NewMachine()
	if err := cm.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		cm.Reset()
		if err := cm.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+Run allocates %.1f objects/run, want 0", allocs)
	}
}

// TestBatchAcrossVariants runs one Batch over several allocation
// variants of the same kernel, checking each run's counters against a
// fresh machine: the arena recycling must not leak state — memory
// images, counters, or loop stacks — between variants.
func TestBatchAcrossVariants(t *testing.T) {
	var b sim.Batch
	for round := 0; round < 2; round++ {
		for _, mode := range []alloc.Mode{
			alloc.CBDup, alloc.SingleBank, alloc.LowOrder, alloc.Ideal,
		} {
			sched := compileSched(t, firSource, mode)
			cp, err := sim.Compile(sched)
			if err != nil {
				t.Fatalf("%v: compile: %v", mode, err)
			}
			want := cp.NewMachine()
			if err := want.Run(); err != nil {
				t.Fatalf("%v: fresh: %v", mode, err)
			}
			got, err := b.Run(context.Background(), cp)
			if err != nil {
				t.Fatalf("%v: batch: %v", mode, err)
			}
			if got.Cycles != want.Cycles || got.MemAccesses != want.MemAccesses ||
				got.BankConflicts != want.BankConflicts {
				t.Errorf("%v round %d: batch run diverges from fresh machine: {cyc %d mem %d conf %d} vs {cyc %d mem %d conf %d}",
					mode, round,
					got.Cycles, got.MemAccesses, got.BankConflicts,
					want.Cycles, want.MemAccesses, want.BankConflicts)
			}
			for i := 0; i < cp.MemWords(); i++ {
				if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
					t.Fatalf("%v round %d: batch memory image diverges at word %#x", mode, round, i)
				}
			}
		}
	}
}

// TestBatchSteadyStateAllocs checks the amortization contract: after a
// warm-up run, re-running a compiled program through a Batch allocates
// nothing.
func TestBatchSteadyStateAllocs(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	var b sim.Batch
	if _, err := b.Run(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Run(context.Background(), cp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Batch.Run allocates %.1f objects/run, want 0", allocs)
	}
}

// slowSource runs ~3.6e9 cycles — far longer than any test timeout —
// so a prompt return can only mean the cancellation path worked.
const slowSource = `
int out;

void main() {
	int i;
	int j;
	int acc = 0;
	for (i = 0; i < 60000; i++) {
		for (j = 0; j < 60000; j++) {
			acc = acc + 1;
		}
	}
	out = acc;
}
`

// TestCompiledCancelMidRun cancels a compiled-engine run mid-flight
// and requires a prompt ctx.Err()-wrapping error.
func TestCompiledCancelMidRun(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, slowSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	runErr := cp.NewMachine().RunContext(ctx)
	if runErr == nil {
		t.Fatal("cancelled run returned nil")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", runErr)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
}

// TestBatchCancelDoesNotPoisonSiblings cancels one variant mid-run and
// then evaluates further variants through the same Batch: the recycled
// machine must come back clean, with results identical to a fresh
// machine's.
func TestBatchCancelDoesNotPoisonSiblings(t *testing.T) {
	slow, err := sim.Compile(compileSched(t, slowSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	fir, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	want := fir.NewMachine()
	if err := want.Run(); err != nil {
		t.Fatal(err)
	}

	var b sim.Batch
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := b.Run(ctx, slow); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled variant returned %v, want context.Canceled", err)
	}

	for round := 0; round < 3; round++ {
		got, err := b.Run(context.Background(), fir)
		if err != nil {
			t.Fatalf("sibling after cancel: %v", err)
		}
		if got.Cycles != want.Cycles || got.MemAccesses != want.MemAccesses {
			t.Errorf("sibling after cancel diverges: {cyc %d mem %d} vs {cyc %d mem %d}",
				got.Cycles, got.MemAccesses, want.Cycles, want.MemAccesses)
		}
		for i := 0; i < fir.MemWords(); i++ {
			if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
				t.Fatalf("sibling after cancel: memory diverges at word %#x", i)
			}
		}
	}

	// Cancellation must not leave goroutines behind (the poll is a
	// channel select, not a watcher goroutine — this pins that).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines leaked across cancelled batch run: %d before, %d after", before, n)
	}
}

// TestCompiledCycleLimit pins the compiled engine's cycle-limit
// behaviour to the reference's: same verdict at the same limits, even
// though the compiled engine checks per block rather than per cycle.
func TestCompiledCycleLimit(t *testing.T) {
	sched := compileSched(t, firSource, alloc.CBDup)
	ref := sim.NewMachine(sched)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	cp, err := sim.Compile(sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{ref.Cycles, ref.Cycles - 1, ref.Cycles / 2, 1} {
		refM := sim.NewMachine(sched)
		refM.MaxCycles = limit
		refErr := refM.Run()
		cm := cp.NewMachine()
		cm.MaxCycles = limit
		cmErr := cm.Run()
		if (refErr == nil) != (cmErr == nil) {
			t.Errorf("limit %d: reference err %v, compiled err %v", limit, refErr, cmErr)
		}
	}
}

// BenchmarkMachine measures the interpretive reference engine, a fresh
// machine per run; comparing its ns/op against BenchmarkCompiledMachine
// on the identical schedule quantifies the compiled engine's speedup.
func BenchmarkMachine(b *testing.B) {
	sched := compileSched(b, firSource, alloc.CBDup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.NewMachine(sched)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledMachine measures the compiled engine's steady-state
// loop, Reset+Run on a prebuilt machine; it must report 0 allocs/op.
func BenchmarkCompiledMachine(b *testing.B) {
	cp, err := sim.Compile(compileSched(b, firSource, alloc.CBDup))
	if err != nil {
		b.Fatal(err)
	}
	m := cp.NewMachine()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures lowering for the compiled engine: one op
// lowers the 161 suite schedules, the 23 benchmarks under all 7 modes
// on the 2×1 machine.
func BenchmarkCompile(b *testing.B) {
	var scheds []*compact.Program
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		for _, mode := range []alloc.Mode{
			alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup,
			alloc.FullDup, alloc.Ideal, alloc.LowOrder,
		} {
			c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode})
			if err != nil {
				b.Fatalf("%s %v: %v", p.Name, mode, err)
			}
			scheds = append(scheds, c.Sched)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scheds {
			if _, err := sim.Compile(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
