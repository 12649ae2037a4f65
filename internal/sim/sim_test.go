package sim_test

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
	"dualbank/internal/sim"
)

// compileTo compiles source fully (through scheduling) under a mode.
func compileTo(t *testing.T, src string, mode alloc.Mode) (*ir.Program, *compact.Program) {
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
	sched, err := compact.Schedule(p, compact.Config{Ports: res.Ports})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return p, sched
}

func globalOf(p *ir.Program, name string) *ir.Symbol {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// TestEvalIntBinAgainstBigInt cross-checks the architecture's 32-bit
// wraparound arithmetic against arbitrary-precision references.
func TestEvalIntBinAgainstBigInt(t *testing.T) {
	mask := big.NewInt(1)
	mask.Lsh(mask, 32)
	toI32 := func(b *big.Int) int32 {
		m := new(big.Int).Mod(b, mask)
		return int32(uint32(m.Uint64()))
	}
	f := func(a, b int32) bool {
		ba, bb := big.NewInt(int64(a)), big.NewInt(int64(b))
		if opt.EvalIntBin(ir.OpAdd, a, b) != toI32(new(big.Int).Add(ba, bb)) {
			return false
		}
		if opt.EvalIntBin(ir.OpSub, a, b) != toI32(new(big.Int).Sub(ba, bb)) {
			return false
		}
		if opt.EvalIntBin(ir.OpMul, a, b) != toI32(new(big.Int).Mul(ba, bb)) {
			return false
		}
		sh := uint(b) & 31
		if opt.EvalIntBin(ir.OpShl, a, b) != int32(uint32(a)<<sh) {
			return false
		}
		if opt.EvalIntBin(ir.OpShr, a, b) != a>>sh {
			return false
		}
		if b != 0 {
			if opt.EvalIntBin(ir.OpDiv, a, b) != a/b || opt.EvalIntBin(ir.OpRem, a, b) != a%b {
				return false
			}
		}
		lt := int32(0)
		if a < b {
			lt = 1
		}
		return opt.EvalIntBin(ir.OpSetLT, a, b) == lt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatToIntEdgeCases(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{2.9, 2},
		{-2.9, -2},
		{0, 0},
		{float32(math.NaN()), 0},
		{float32(math.Inf(1)), math.MaxInt32},
		{float32(math.Inf(-1)), math.MinInt32},
		{3e9, math.MaxInt32},
		{-3e9, math.MinInt32},
	}
	for _, c := range cases {
		if got := sim.FloatToInt(c.in); got != c.want {
			t.Errorf("FloatToInt(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

const smallSrc = `
int r[2];
float fr;
void main() {
	int i;
	int s = 0;
	for (i = 0; i < 10; i++) { s += i * i; }
	r[0] = s;
	r[1] = s % 7;
	fr = (float)s / 4.0;
}
`

// TestInterpMachineAgree runs the same compiled program on both
// engines and compares every output word.
func TestInterpMachineAgree(t *testing.T) {
	for _, mode := range []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.Ideal} {
		p, sched := compileTo(t, smallSrc, mode)
		in := sim.NewInterp(p)
		if err := in.Run(); err != nil {
			t.Fatalf("%v: interp: %v", mode, err)
		}
		m := sim.NewMachine(sched)
		if err := m.Run(); err != nil {
			t.Fatalf("%v: machine: %v", mode, err)
		}
		for _, name := range []string{"r", "fr"} {
			g := globalOf(p, name)
			for i := 0; i < g.Size; i++ {
				mw, err := m.Word(g, i)
				if err != nil {
					t.Fatal(err)
				}
				if iw := in.Word(g, i); iw != mw {
					t.Fatalf("%v: %s[%d]: interp %#x, machine %#x", mode, name, i, iw, mw)
				}
			}
		}
	}
}

// TestMachineCycleCounting: the cycle count equals the number of long
// instructions retired, which for straight-line code equals the static
// count.
func TestMachineCycleCounting(t *testing.T) {
	_, sched := compileTo(t, `int r; void main() { r = 1 + 2; }`, alloc.SingleBank)
	m := sim.NewMachine(sched)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Cycles != int64(sched.StaticInstrs()) {
		t.Fatalf("cycles = %d, static instrs = %d", m.Cycles, sched.StaticInstrs())
	}
}

// TestDuplicatedCoherence: after a run, both copies of duplicated data
// are identical (Machine.Word asserts this internally).
func TestDuplicatedCoherence(t *testing.T) {
	src := `
float s[16] = {1.0, 2.0, 3.0};
float R[4];
void main() {
	int m;
	int i;
	for (m = 0; m < 4; m++) {
		float acc = 0.0;
		int lim = 16 - m;
		for (i = 0; i < lim; i++) {
			acc += s[i] * s[i + m];
		}
		R[m] = acc;
		s[m] = acc * 0.5;
	}
}
`
	p, sched := compileTo(t, src, alloc.CBDup)
	m := sim.NewMachine(sched)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := globalOf(p, "s")
	if !s.Duplicated {
		t.Fatal("s should be duplicated")
	}
	for i := 0; i < s.Size; i++ {
		if _, err := m.Word(s, i); err != nil {
			t.Fatalf("coherence violated: %v", err)
		}
	}
}

// TestInterpProfileCounts: profiling counts block executions.
func TestInterpProfileCounts(t *testing.T) {
	p, _ := compileTo(t, smallSrc, alloc.SingleBank)
	in := sim.NewInterp(p)
	in.Profile = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var loopCount int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.LoopDepth > 0 && b.ExecCount > loopCount {
				loopCount = b.ExecCount
			}
		}
	}
	if loopCount != 10 {
		t.Fatalf("hot block executed %d times, want 10", loopCount)
	}

	// BlockCounts takes the same counts without writing the program.
	var want []int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			want = append(want, b.ExecCount)
			b.ExecCount = 0
		}
	}
	got, err := sim.NewInterp(p).BlockCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("BlockCounts %v, Profile counts %v", got, want)
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.ExecCount != 0 {
				t.Fatalf("%s %s: BlockCounts wrote ExecCount", f.Name, b)
			}
		}
	}
}

// TestInterpOutOfBounds: an out-of-range access is caught, not silently
// wrapped.
func TestInterpOutOfBounds(t *testing.T) {
	src := `
int a[4];
void main() {
	int i = 9;
	a[i] = 1;
}
`
	p, sched := compileTo(t, src, alloc.SingleBank)
	in := sim.NewInterp(p)
	if err := in.Run(); err == nil {
		t.Fatal("interp accepted out-of-bounds store")
	}
	m := sim.NewMachine(sched)
	if err := m.Run(); err == nil {
		t.Fatal("machine accepted out-of-bounds store")
	}
}

// TestIntegerDivisionByZeroTrap: both engines trap runtime division by
// zero.
func TestIntegerDivisionByZeroTrap(t *testing.T) {
	src := `
int r;
int zero;
void main() {
	r = 10 / zero;
}
`
	p, sched := compileTo(t, src, alloc.SingleBank)
	in := sim.NewInterp(p)
	if err := in.Run(); err == nil {
		t.Fatal("interp accepted division by zero")
	}
	m := sim.NewMachine(sched)
	if err := m.Run(); err == nil {
		t.Fatal("machine accepted division by zero")
	}
	_ = p
}

// TestMachineRejectsVirtualProgram: the VLIW machine requires physical
// register form.
func TestMachineRejectsVirtualProgram(t *testing.T) {
	file, err := minic.Parse(`void main() {}`)
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
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.SingleBank})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compact.Schedule(p, compact.Config{Ports: res.Ports})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sched)
	if err := m.Run(); err == nil {
		t.Fatal("machine must reject virtual-register programs")
	}
}

// TestTraceOutput: the per-instruction trace names the cycle, the
// function, and the issued operations.
func TestTraceOutput(t *testing.T) {
	_, sched := compileTo(t, `int r; void main() { r = 2 + 3; }`, alloc.SingleBank)
	m := sim.NewMachine(sched)
	var sb strings.Builder
	m.Trace = &sb
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Count(out, "\n")
	if int64(lines) != m.Cycles {
		t.Fatalf("trace has %d lines for %d cycles", lines, m.Cycles)
	}
	for _, want := range []string{"main", "ret", "store"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestHardwareLoopNesting: deeply nested counted loops exercise the
// loop stack.
func TestHardwareLoopNesting(t *testing.T) {
	src := `
int r;
void main() {
	int i;
	int j;
	int k;
	int s = 0;
	for (i = 0; i < 3; i++) {
		for (j = 0; j < 4; j++) {
			for (k = 0; k < 5; k++) {
				s += 1;
			}
		}
	}
	r = s;
}
`
	p, sched := compileTo(t, src, alloc.CB)
	m := sim.NewMachine(sched)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	g := globalOf(p, "r")
	v, err := m.Int32(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 60 {
		t.Fatalf("r = %d, want 60", v)
	}
}
