package pipeline

// FuzzCompiledVsMachine is the engine-differential fuzz target: random
// MiniC programs from the same generators the property tests use,
// executed on both the compiled threaded-code engine and the reference
// interpreter, comparing cycle counts, every bandwidth counter, and
// the full memory images word for word. The other fuzz targets check
// the compiler against the mirrored Go evaluator; this one checks the
// compiled engine against the reference, so a lowering bug that preserved
// plausible-looking output would still be caught by the first counter
// or dead-store word it perturbs.

import (
	"fmt"
	"math/rand"
	"testing"

	"dualbank/internal/sim"
)

// checkSeedCompiledVsMachine compiles one generated scalar program and
// one generated array program under every fuzz mode and pins the
// compiled engine to the reference interpreter on each.
func checkSeedCompiledVsMachine(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	scalarSrc, _ := genProgram(rng)
	arraySrc, _ := genArrayProgram(rng)
	for i, src := range []string{scalarSrc, arraySrc} {
		for _, mode := range fuzzModes {
			c, err := Compile(src, fmt.Sprintf("cfuzz%d_%d", seed, i), Options{Mode: mode})
			if err != nil {
				t.Fatalf("seed %d mode %v: compile: %v\nsource:\n%s", seed, mode, err, src)
			}
			ref, refErr := c.Run()
			cp, err := sim.Compile(c.Sched)
			if err != nil {
				t.Fatalf("seed %d mode %v: lower: %v\nsource:\n%s", seed, mode, err, src)
			}
			cm := cp.NewMachine()
			cmErr := cm.Run()
			if (refErr == nil) != (cmErr == nil) {
				t.Fatalf("seed %d mode %v: engines disagree on failure: machine=%v compiled=%v\nsource:\n%s",
					seed, mode, refErr, cmErr, src)
			}
			if refErr != nil {
				continue
			}
			counters := [][2]int64{
				{ref.Cycles, cm.Cycles},
				{ref.OpsExecuted, cm.OpsExecuted},
				{ref.MemAccesses, cm.MemAccesses},
				{ref.DualMemCycles, cm.DualMemCycles},
				{ref.BankConflicts, cm.BankConflicts},
			}
			names := []string{"Cycles", "OpsExecuted", "MemAccesses", "DualMemCycles", "BankConflicts"}
			for j, pair := range counters {
				if pair[0] != pair[1] {
					t.Fatalf("seed %d mode %v: %s: machine=%d compiled=%d\nsource:\n%s",
						seed, mode, names[j], pair[0], pair[1], src)
				}
			}
			// The compiled arena covers only the program's used address
			// range; the reference must agree on it word for word (and
			// the differential suite separately pins the reference to
			// zero beyond it).
			n := cp.MemWords()
			for a := 0; a < n; a++ {
				if ref.X[a] != cm.X[a] {
					t.Fatalf("seed %d mode %v: X[%d]: machine=%#x compiled=%#x\nsource:\n%s",
						seed, mode, a, ref.X[a], cm.X[a], src)
				}
				if ref.Y[a] != cm.Y[a] {
					t.Fatalf("seed %d mode %v: Y[%d]: machine=%#x compiled=%#x\nsource:\n%s",
						seed, mode, a, ref.Y[a], cm.Y[a], src)
				}
			}
		}
	}
}

func FuzzCompiledVsMachine(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkSeedCompiledVsMachine)
}
