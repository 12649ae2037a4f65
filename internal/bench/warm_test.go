package bench

import (
	"context"
	"fmt"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/asm"
	"dualbank/internal/cost"
	"dualbank/internal/genmc"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// backEnd describes what a back end produced: the allocated IR's
// fingerprint, the assembly listing, the footprint and the coherence
// stores.
func backEnd(c *pipeline.Compiled) string {
	return fmt.Sprintf("%x\n%s%+v\n%d", irFingerprint(c.IR), asm.Print(c.Sched), cost.Of(c.Alloc, c.Sched), c.Alloc.DupStores)
}

// TestSharedCompilerLeavesPreparedIntact proves that nothing a
// compiler returns points into its reused scratch. A program prepared
// on a compiler already warmed by 50 other suite and generated
// programs keeps its IR while those 50 are prepared again, finished
// under CB and Dup, checked and simulated on that compiler; the IR
// then equals a fresh compiler's, and the seven back ends finished
// from it on the shared compiler equal a fresh compiler's.
func TestSharedCompilerLeavesPreparedIntact(t *testing.T) {
	ctx := context.Background()
	suite := append(Kernels(), Applications()...)
	a, others := suite[0], suite[1:]
	for _, k := range genmc.Population(28, 2) {
		g := genmc.Generate(k)
		others = append(others, Program{Name: g.Name, Source: g.Source})
	}
	cc := new(pipeline.Compiler)
	prepare := func(p Program) *pipeline.Prepared {
		t.Helper()
		prep, err := cc.Prepare(ctx, p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return prep
	}
	for _, p := range others {
		prepare(p)
	}
	prep := prepare(a)
	before := irFingerprint(prep.IR())
	for _, p := range others {
		other := prepare(p)
		for _, mode := range []alloc.Mode{alloc.CB, alloc.CBDup} {
			c, err := cc.Finish(ctx, other, pipeline.Options{Mode: mode})
			if err == nil {
				err = cc.Validate(c)
			}
			if err == nil {
				_, err = c.RunCompiledCtx(ctx, cc.SimBatch())
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, mode, err)
			}
		}
	}
	if irFingerprint(prep.IR()) != before {
		t.Fatalf("%s: prepared IR changed while the compiler ran %d other programs", a.Name, len(others))
	}
	fresh, err := pipeline.Prepare(ctx, a.Source, a.Name, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if irFingerprint(fresh.IR()) != before {
		t.Fatalf("%s: IR prepared on a shared compiler differs from a fresh compiler's", a.Name)
	}
	for _, mode := range allModes {
		warm, err := cc.Finish(ctx, prep, pipeline.Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want, err := new(pipeline.Compiler).Finish(ctx, fresh, pipeline.Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, want := backEnd(warm), backEnd(want); got != want {
			t.Errorf("%s/%v: back end on the shared compiler\n%s\nfresh compiler\n%s", a.Name, mode, got, want)
		}
	}
}
