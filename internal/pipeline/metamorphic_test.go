package pipeline_test

import (
	"fmt"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/genmc/corpus"
	"dualbank/internal/pipeline"
)

// Metamorphic compiler tests: three semantics-preserving source (or
// option) transformations that must leave the simulated cycle count of
// every benchmark invariant under every allocation mode —
//
//   - renaming every identifier (the compiler must not key any
//     decision on spelling),
//   - permuting the top-level declaration order (layout and
//     partitioning must not depend on which global came first), and
//   - swapping the X/Y bank assignment wholesale (the banks are
//     architecturally identical).
//
// A divergence here means some pass broke a symmetry the architecture
// guarantees — typically an order- or name-sensitive tie-break.

// metamorphicModes is the mode slice the invariants are checked under:
// the unoptimized baseline, compaction-based partitioning, and partial
// duplication.
var metamorphicModes = []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup}

// renameIdents rewrites source with every identifier (except main)
// replaced by a fresh machine-generated name. The transform itself
// lives in the corpus package, where the generated-program suites
// reuse it; this wrapper adapts its error to the test.
func renameIdents(t *testing.T, source string) string {
	t.Helper()
	out, err := corpus.RenameIdents(source)
	if err != nil {
		t.Fatalf("rename: %v", err)
	}
	return out
}

// permuteDecls rewrites source with its top-level declarations in
// reverse order — the full mirror permutation, which displaces every
// declaration and still compiles because MiniC resolves globals and
// functions in a separate pass before checking bodies.
func permuteDecls(t *testing.T, source string) string {
	t.Helper()
	out, err := corpus.PermuteDecls(source)
	if err != nil {
		t.Fatalf("permute: %v", err)
	}
	return out
}

// measureCycles compiles source under o, validates the schedule, runs
// the compiled simulator, optionally checks program outputs, and
// returns the cycle count.
func measureCycles(t *testing.T, source, name string, o pipeline.Options, check func(bench.Reader) error) int64 {
	t.Helper()
	c, err := pipeline.Compile(source, name, o)
	if err != nil {
		t.Fatalf("%s/%v: compile: %v", name, o.Mode, err)
	}
	if err := compact.Validate(c.Sched); err != nil {
		t.Fatalf("%s/%v: schedule: %v", name, o.Mode, err)
	}
	m, err := c.RunCompiled()
	if err != nil {
		t.Fatalf("%s/%v: run: %v", name, o.Mode, err)
	}
	if check != nil {
		read := func(sym string, idx int) (uint32, error) {
			g := c.Global(sym)
			if g == nil {
				return 0, fmt.Errorf("no global %q", sym)
			}
			return m.Word(g, idx)
		}
		if err := check(read); err != nil {
			t.Fatalf("%s/%v: output check: %v", name, o.Mode, err)
		}
	}
	return m.Cycles
}

// TestMetamorphicInvariants checks all three invariants for all 23
// benchmarks under {single-bank, CB, Dup}. Renamed variants skip the
// output check (it reads globals by their original names); the other
// variants keep it, so the transforms are also validated end to end.
func TestMetamorphicInvariants(t *testing.T) {
	progs := append(bench.Kernels(), bench.Applications()...)
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			renamed := renameIdents(t, p.Source)
			permuted := permuteDecls(t, p.Source)
			for _, mode := range metamorphicModes {
				base := measureCycles(t, p.Source, p.Name, pipeline.Options{Mode: mode}, p.Check)
				if got := measureCycles(t, renamed, p.Name, pipeline.Options{Mode: mode}, nil); got != base {
					t.Errorf("%s/%v: renaming identifiers changed cycles: %d -> %d", p.Name, mode, base, got)
				}
				if got := measureCycles(t, permuted, p.Name, pipeline.Options{Mode: mode}, p.Check); got != base {
					t.Errorf("%s/%v: permuting declarations changed cycles: %d -> %d", p.Name, mode, base, got)
				}
				swapped := pipeline.Options{Mode: mode, BankPerm: []int{1, 0}}
				if got := measureCycles(t, p.Source, p.Name, swapped, p.Check); got != base {
					t.Errorf("%s/%v: swapping banks changed cycles: %d -> %d", p.Name, mode, base, got)
				}
			}
		})
	}
}

// TestBankSwapMirrorsAllocation pins the mechanism, not just the
// cycle count: under CB with the banks swapped (BankPerm {1, 0}) the
// partition's X set lands in bank Y and vice versa, and the per-bank
// word accounting mirrors.
func TestBankSwapMirrorsAllocation(t *testing.T) {
	p, ok := bench.ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing from the suite")
	}
	plain, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB, BankPerm: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Alloc.GlobalX != swapped.Alloc.GlobalY || plain.Alloc.GlobalY != swapped.Alloc.GlobalX {
		t.Errorf("global words did not mirror: plain X=%d Y=%d, swapped X=%d Y=%d",
			plain.Alloc.GlobalX, plain.Alloc.GlobalY, swapped.Alloc.GlobalX, swapped.Alloc.GlobalY)
	}
	if plain.Alloc.StackX != swapped.Alloc.StackY || plain.Alloc.StackY != swapped.Alloc.StackX {
		t.Errorf("stack words did not mirror: plain X=%d Y=%d, swapped X=%d Y=%d",
			plain.Alloc.StackX, plain.Alloc.StackY, swapped.Alloc.StackX, swapped.Alloc.StackY)
	}
	if plain.Alloc.GlobalX+plain.Alloc.GlobalY == 0 {
		t.Error("degenerate benchmark: no global words at all")
	}
}
