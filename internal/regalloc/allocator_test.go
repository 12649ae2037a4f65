package regalloc

import (
	"fmt"
	"strings"
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
)

// optimized parses, checks, lowers and optimizes src.
func optimized(t *testing.T, src string) *ir.Program {
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
	return p
}

// wideFunc returns a function named name that keeps n integer
// scalars live across a loop, so at n = 36 and above it spills;
// narrowFunc needs a few registers.
func wideFunc(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int %s(int g) {\n\tint i; int s;\n", name)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "\tint v%d = g + %d;\n", k, k)
	}
	b.WriteString("\tfor (i = 0; i < 4; i++) {\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "\t\tv%d = v%d * v%d + A[i];\n", k, k, (k+1)%n)
	}
	b.WriteString("\t}\n\ts = 0;\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "\ts = s + v%d;\n", k)
	}
	b.WriteString("\treturn s;\n}\n")
	return b.String()
}

const narrowFunc = "int narrow(int x) { int y = x * 2; return y + 1; }\n"

// TestWarmAllocatorInterferenceAllocFree pins the mechanism: an
// allocator that has built a function's interference graph builds it
// again without allocating.
func TestWarmAllocatorInterferenceAllocFree(t *testing.T) {
	p := optimized(t, "int A[4];\nint r;\n"+wideFunc("wide", 40)+"void main() { r = wide(3); }\n")
	f := p.Func("wide")
	a := new(allocator)
	a.buildInterference(f)
	if n := testing.AllocsPerRun(20, func() { a.buildInterference(f) }); n != 0 {
		t.Fatalf("a warm interference round allocates %.1f times, want 0", n)
	}
}

// allocFresh runs allocFunc's rounds with a fresh allocator for every
// round and for the rewrite.
func allocFresh(t *testing.T, f *ir.Func) Stats {
	t.Helper()
	var st Stats
	firstTemp := ir.Reg(f.NumRegs())
	for round := 0; round <= maxSpillRounds; round++ {
		a := new(allocator)
		colors, spills := a.color(a.buildInterference(f), firstTemp)
		if len(spills) == 0 {
			new(allocator).rewrite(f, colors, &st)
			return st
		}
		st.Spilled += len(spills)
		new(allocator).spill(f, spills, &st)
	}
	t.Fatalf("%s: no colouring after %d spill rounds", f.Name, maxSpillRounds)
	return st
}

// TestSharedAllocatorMatchesFresh checks that one allocator carried
// across functions and spill rounds allocates exactly as fresh ones
// do, when a smaller function follows a larger, spilling one, the
// reverse, and when both spill.
func TestSharedAllocatorMatchesFresh(t *testing.T) {
	for _, order := range []struct{ name, funcs string }{
		{"wide then narrow", wideFunc("wide", 40) + narrowFunc + wideFunc("mid", 2)},
		{"narrow then wide", narrowFunc + wideFunc("mid", 2) + wideFunc("wide", 40)},
		{"both spill", wideFunc("wide", 40) + wideFunc("mid", 36) + narrowFunc},
	} {
		src := "int A[4];\nint r;\n" + order.funcs + "void main() { r = wide(3) + mid(4) + narrow(2); }\n"
		shared := optimized(t, src)
		stats, err := Run(shared)
		if err != nil {
			t.Fatal(err)
		}
		if stats["wide"].Spilled == 0 || order.name == "both spill" && stats["mid"].Spilled == 0 {
			t.Fatalf("%s: %+v: a function meant to spill did not; the spill rounds went unchecked", order.name, stats)
		}
		fresh := optimized(t, src)
		for _, f := range fresh.Funcs {
			if st := allocFresh(t, f); st != stats[f.Name] {
				t.Errorf("%s: %s stats %+v with a shared allocator, %+v with fresh ones", order.name, f.Name, stats[f.Name], st)
			}
		}
		if got, want := shared.String(), fresh.String(); got != want {
			t.Errorf("%s: a shared allocator gives\n%s\nfresh ones give\n%s", order.name, got, want)
		}
	}
}
