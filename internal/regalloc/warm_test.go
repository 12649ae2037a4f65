package regalloc_test

import (
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/ir"
	"dualbank/internal/regalloc"
)

// TestWarmAllocatorInterferenceAllocFree pins the mechanism: an
// allocator that has built a function's interference graph builds it
// again without allocating. It holds for an allocator warmed on one
// function, and for one that allocated the whole suite, as a
// compiler's has, run over each suite program in turn.
func TestWarmAllocatorInterferenceAllocFree(t *testing.T) {
	check := func(name string, a *regalloc.Allocator, f *ir.Func) {
		t.Helper()
		if n := testing.AllocsPerRun(20, func() { a.BuildInterference(f) }); n != 0 {
			t.Fatalf("%s: a warm interference round allocates %.1f times, want 0", name, n)
		}
	}
	p := build(t, "int A[4];\nint r;\n"+regalloc.WideFunc("wide", 40)+"void main() { r = wide(3); }\n")
	check("wide", new(regalloc.Allocator), p.Func("wide"))

	suite := append(bench.Kernels(), bench.Applications()...)
	a := new(regalloc.Allocator)
	for _, p := range suite {
		if _, err := a.Run(build(t, p.Source)); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	for _, p := range suite {
		for _, f := range build(t, p.Source).Funcs {
			check(p.Name+"."+f.Name, a, f)
		}
	}
}
