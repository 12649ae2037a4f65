package pipeline

// FuzzWarmCompiler is the warm-versus-fresh differential: a compiler
// keeps every pass's scratch across programs, so each generated
// program is compiled on a fresh compiler and again on one that has
// just compiled and run a different, larger program. The two must give
// the same IR, the same assembly listing and the same five counters on
// the compiled engine, each run on its own compiler's recycled batch.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualbank/internal/asm"
	"dualbank/internal/genmc"
	"dualbank/internal/sim"
)

// warmUpKnobs is the generator's largest shape: the program a warm
// compiler compiles before each fuzzed one.
var warmUpKnobs = genmc.Knobs{Archetype: genmc.Chain, Seed: 1 << 40, Arrays: 6, Size: 128, Loops: 3, Depth: 2, Stmts: 3}

// compiledRun is what one compilation produced and measured.
type compiledRun struct {
	ir, listing string
	counters    sim.Counters
}

// compileAndRun compiles src on cc and runs it on cc's batch.
func compileAndRun(t *testing.T, cc *Compiler, src, name string, o Options) compiledRun {
	t.Helper()
	c, err := cc.Compile(src, name, o)
	if err != nil {
		t.Fatalf("%s %v: compile: %v\nsource:\n%s", name, o.Mode, err, src)
	}
	if err := cc.Validate(c); err != nil {
		t.Fatalf("%s %v: schedule: %v\nsource:\n%s", name, o.Mode, err, src)
	}
	m, err := c.RunCompiledCtx(context.Background(), cc.SimBatch())
	if err != nil {
		t.Fatalf("%s %v: run: %v\nsource:\n%s", name, o.Mode, err, src)
	}
	run := compiledRun{ir: c.IR.String(), listing: asm.Print(c.Sched), counters: m.Counters()}
	for _, s := range c.IR.Symbols() {
		run.ir += fmt.Sprintf("%s %v %d %v %x\n", s.Name, s.Bank, s.Addr, s.Duplicated, s.Init)
	}
	return run
}

// checkSeedWarmCompiler compiles one generated array program and one
// genmc program under every fuzz mode, fresh and warm.
func checkSeedWarmCompiler(t *testing.T, seed int64) {
	arraySrc, _ := genArrayProgram(rand.New(rand.NewSource(seed)))
	arch := genmc.Archetypes()[uint64(seed)%3]
	big := genmc.Generate(warmUpKnobs)
	for i, src := range []string{arraySrc, genmc.Generate(genmc.Derive(arch, uint64(seed))).Source} {
		name := fmt.Sprintf("wfuzz%d_%d", seed, i)
		for _, mode := range fuzzModes {
			o := Options{Mode: mode}
			want := compileAndRun(t, new(Compiler), src, name, o)
			warm := new(Compiler)
			compileAndRun(t, warm, big.Source, big.Name, o)
			got := compileAndRun(t, warm, src, name, o)
			if got.ir != want.ir {
				t.Fatalf("%s %v: IR differs on a warm compiler:\n%s\nfresh:\n%s\nsource:\n%s", name, mode, got.ir, want.ir, src)
			}
			if got.listing != want.listing {
				t.Fatalf("%s %v: listing differs on a warm compiler:\n%s\nfresh:\n%s\nsource:\n%s", name, mode, got.listing, want.listing, src)
			}
			if got.counters != want.counters {
				t.Fatalf("%s %v: counters %+v on a warm compiler, %+v fresh\nsource:\n%s", name, mode, got.counters, want.counters, src)
			}
		}
	}
}

func FuzzWarmCompiler(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkSeedWarmCompiler)
}
