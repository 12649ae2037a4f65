package opt_test

import (
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/ir"
	"dualbank/internal/opt"
)

// TestWarmTablesAllocFree pins the mechanism: once a table set has
// seen a function, the block-local passes run over it again without
// allocating. It holds for a set warmed on one function, and for one
// that optimized the whole suite, as a compiler's set has, run over
// each suite program in turn.
func TestWarmTablesAllocFree(t *testing.T) {
	check := func(name string, tb *opt.Tables, f *ir.Func) {
		t.Helper()
		if n := testing.AllocsPerRun(20, func() { tb.BlockLocal(f) }); n != 0 {
			t.Fatalf("%s: warm localConstAndCopy and redundantLoadElim allocate %.1f times per run, want 0", name, n)
		}
	}
	check("big", new(opt.Tables), build(t, opt.TablesSource).Func("big"))

	suite := append(bench.Kernels(), bench.Applications()...)
	tb := new(opt.Tables)
	for _, p := range suite {
		tb.Run(build(t, p.Source), opt.Options{})
	}
	for _, p := range suite {
		for _, f := range build(t, p.Source).Funcs {
			check(p.Name+"."+f.Name, tb, f)
		}
	}
}
