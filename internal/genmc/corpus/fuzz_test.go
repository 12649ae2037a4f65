package corpus_test

import (
	"context"
	"testing"

	"dualbank/internal/genmc"
	"dualbank/internal/genmc/corpus"
	"dualbank/internal/pipeline"
)

// FuzzGenMC explores the generator's whole input space — the seed and
// every knob, unclamped — and runs each resulting program through the
// corpus gauntlet: three allocation arms, reference-vs-compiled engine
// differentials, and the generator's own evaluator as the
// output oracle. Generate clamps hostile knob values, so every input
// must yield a program that verifies clean; any failure is either a
// generator emitting an unsafe program or a compiler/simulator bug.
// CI runs this briefly in the fuzz-smoke step; the checked-in corpus
// seeds one program per archetype.
func FuzzGenMC(f *testing.F) {
	for i, a := range genmc.Archetypes() {
		f.Add(uint8(a), uint64(i+1), 3, 64, 2, 1, 2)
	}
	cc := new(pipeline.Compiler)
	f.Fuzz(func(t *testing.T, arch uint8, seed uint64, arrays, size, loops, depth, stmts int) {
		k := genmc.Knobs{
			Archetype: genmc.Archetype(arch % 3),
			Seed:      seed,
			Arrays:    arrays,
			Size:      size,
			Loops:     loops,
			Depth:     depth,
			Stmts:     stmts,
		}
		p := genmc.Generate(k)
		_, fails := corpus.VerifyProgram(context.Background(), p, cc, false)
		for _, msg := range fails {
			t.Errorf("%s", msg)
		}
		if len(fails) != 0 {
			t.Fatalf("knobs %+v generated a failing program:\n%s", k, p.Source)
		}
	})
}
