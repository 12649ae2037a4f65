package core_test

import (
	"context"
	"slices"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/genmc"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// namedGraph is one scanner-built interference graph.
type namedGraph struct {
	name string
	g    *core.Graph
}

// scannerGraphs prepares each program and builds its graph under each
// policy. Scanner-built graphs carry canonical first-use ranks, so FM
// replays the walk's total-tie rule on them.
func scannerGraphs(tb testing.TB, progs []bench.Program, policies ...core.WeightPolicy) []namedGraph {
	tb.Helper()
	ctx := context.Background()
	cc := new(pipeline.Compiler)
	var out []namedGraph
	for _, p := range progs {
		prep, err := cc.Prepare(ctx, p.Source, p.Name, opt.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		for _, policy := range policies {
			g, err := cc.Graph(ctx, prep, policy)
			if err != nil {
				tb.Fatalf("%s: %v", p.Name, err)
			}
			out = append(out, namedGraph{p.Name + "/" + policy.String(), g})
		}
	}
	return out
}

// TestFMReplaysCanonicalWalk pins the differential property at the
// graph layer on every scanner-built graph — the biquad cascade, the 23
// benchmarks and 100 generated programs, under static and profiled
// weights: FM's phase 1 must replay the canonical greedy walk move for
// move — same trace, same cost, same bank vector — and refined FM must
// be no worse.
func TestFMReplaysCanonicalWalk(t *testing.T) {
	progs := append(bench.Kernels(), bench.Applications()...)
	progs = append(progs, bench.Program{Name: "biquad", Source: core.BiquadSource})
	for _, k := range genmc.Population(100, 1) {
		g := genmc.Generate(k)
		progs = append(progs, bench.Program{Name: g.Name, Source: g.Source})
	}
	for _, ng := range scannerGraphs(t, progs, core.WeightStatic, core.WeightProfiled) {
		greedy := ng.g.PartitionK(2, core.MethodGreedy, -1)
		fm := ng.g.PartitionK(2, core.MethodFM, 0)
		if fm.Cost != greedy.Cost || !slices.Equal(fm.Trace, greedy.Trace) || !slices.Equal(fm.Side, greedy.Side) {
			t.Errorf("%s: FM phase 1 cost %d trace %v banks %v; greedy cost %d trace %v banks %v",
				ng.name, fm.Cost, fm.Trace, fm.Side, greedy.Cost, greedy.Trace, greedy.Side)
		}
		if full := ng.g.PartitionK(2, core.MethodFM, -1); full.Cost > greedy.Cost {
			t.Errorf("%s: refined FM cost %d worse than greedy %d", ng.name, full.Cost, greedy.Cost)
		}
	}
}

// BenchmarkPartitionFMProfiled times two-bank FM, at its default
// passes, over the profiled graphs of the 23 benchmarks, whose weights
// are execution counts.
func BenchmarkPartitionFMProfiled(b *testing.B) {
	gs := scannerGraphs(b, append(bench.Kernels(), bench.Applications()...), core.WeightProfiled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ng := range gs {
			ng.g.PartitionK(2, core.MethodFM, -1)
		}
	}
}
