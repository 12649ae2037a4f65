package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dualbank/internal/ir"
)

// figure4Graph builds the paper's Figure 4/5 example graph: edges
// (A,B)=1, (A,C)=1, (A,D)=2, (B,C)=1, (B,D)=1, (C,D)=1.
func figure4Graph() *Graph {
	a, b, c, d := sym("A"), sym("B"), sym("C"), sym("D")
	g := NewGraph([]*ir.Symbol{a, b, c, d})
	top := &ir.Block{LoopDepth: 0}
	loop := &ir.Block{LoopDepth: 1}
	g.addEvent(a, b, top, 0, WeightStatic)
	g.addEvent(a, c, top, 0, WeightStatic)
	g.addEvent(a, d, loop, 0, WeightStatic)
	g.addEvent(b, c, top, 0, WeightStatic)
	g.addEvent(b, d, top, 0, WeightStatic)
	g.addEvent(c, d, top, 0, WeightStatic)
	return g
}

// timeIt returns the best-of-rounds wall time of f.
func timeIt(f func(), rounds int) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// profileScaleGraph builds the seed'th of 40 random graphs whose
// weights are in the millions, like loop-nest profile counts.
func profileScaleGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(2000 + seed))
	n := 3 + rng.Intn(12)
	syms := make([]*ir.Symbol, n)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: string(rune('a' + i)), Size: 1}
	}
	g := NewGraph(syms)
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || g.Weight(syms[i], syms[j]) != 0 {
			continue
		}
		g.SetWeight(syms[i], syms[j], int64(rng.Intn(5_000_000)+1_000_000))
	}
	return g
}

// fmDifferentialGraphs returns FM's differential inputs: count seeded
// random graphs of up to 2+maxN nodes with small weights drawn from
// base, then the 40 profile-scale graphs.
func fmDifferentialGraphs(base int64, count, maxN, edgesPerNode int) []*Graph {
	var gs []*Graph
	for seed := int64(0); seed < int64(count); seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		n := 2 + rng.Intn(maxN)
		gs = append(gs, randomGraph(rng, n, rng.Intn(edgesPerNode*n)))
	}
	for seed := int64(0); seed < 40; seed++ {
		gs = append(gs, profileScaleGraph(seed))
	}
	return gs
}

// TestFMNeverWorseThanGreedy is the central property of the FM
// partitioner: across 200 seeded random graphs and 40 profile-scale
// ones, FM's cut cost never exceeds greedy's, and whenever the costs
// tie the bank image (the exact X/Y membership, in order) is identical
// — FM phase 1 replays the greedy walk and phase 2 only commits strict
// improvements.
func TestFMNeverWorseThanGreedy(t *testing.T) {
	for i, g := range fmDifferentialGraphs(0, 200, 30, 4) {
		greedy := g.PartitionK(2, MethodGreedy, -1)
		fm := g.PartitionK(2, MethodFM, -1)
		if fm.Cost > greedy.Cost {
			t.Fatalf("graph %d: FM cost %d worse than greedy %d", i, fm.Cost, greedy.Cost)
		}
		if fm.Cost == greedy.Cost {
			if !samePartition(fm, greedy) {
				t.Fatalf("graph %d: FM tied greedy at cost %d but produced a different bank image\nfm:     %v\ngreedy: %v",
					i, fm.Cost, fm, greedy)
			}
		}
	}
}

// TestFMTraceMatchesGreedy: phase 1 of FM is the greedy walk with
// incremental gain bookkeeping, so its recorded trace — including the
// Figure 5 tie-breaks — must match greedy's move for move, at small
// and at profile-scale weights.
func TestFMTraceMatchesGreedy(t *testing.T) {
	for i, g := range fmDifferentialGraphs(1000, 50, 20, 3) {
		greedy := g.PartitionK(2, MethodGreedy, -1)
		fm := g.PartitionK(2, MethodFM, -1)
		if !slices.Equal(fm.Trace, greedy.Trace) {
			t.Fatalf("graph %d: traces differ: fm %v greedy %v", i, fm.Trace, greedy.Trace)
		}
	}
}

// TestFMAllocsIndependentOfWeights: the gain queue's storage depends on
// the node count only, so FM allocates the same bytes on a graph and
// on the same graph with every weight multiplied by a million.
func TestFMAllocsIndependentOfWeights(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		n := 4 + rng.Intn(40)
		small := randomGraph(rng, n, 3*n)
		large := NewGraph(small.Nodes)
		for _, e := range small.edges {
			large.SetWeight(small.Nodes[e.u], small.Nodes[e.v], e.w*1_000_000)
		}
		small.CSR()
		large.CSR()
		if a, b := allocBytes(func() { small.fm(2) }), allocBytes(func() { large.fm(2) }); a != b {
			t.Errorf("seed %d (%d nodes): FM allocates %d bytes, %d with weights ×10⁶", seed, n, a, b)
		}
	}
}

// allocBytes returns the fewest bytes one call of f allocated over a
// few calls.
func allocBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestFMFigure5 pins FM to the paper's published example: the same
// 7 -> 3 -> 2 walk the greedy partitioner is tested against.
func TestFMFigure5(t *testing.T) {
	g := figure4Graph()
	p := g.PartitionK(2, MethodFM, -1)
	if p.Cost != 2 {
		t.Fatalf("FM cost = %d, want 2", p.Cost)
	}
	want := []int64{7, 3, 2}
	if len(p.Trace) != len(want) {
		t.Fatalf("trace = %v, want %v", p.Trace, want)
	}
	for i := range want {
		if p.Trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", p.Trace, want)
		}
	}
}

func samePartition(a, b *KPartition) bool {
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for i := range a.Sets {
		if !slices.Equal(a.Sets[i], b.Sets[i]) {
			return false
		}
	}
	return true
}

// benchGraph builds the ISSUE's reference synthetic workload: a
// 1000-node, ~10000-edge random graph with small static-style weights.
func benchGraph(tb testing.TB) *Graph {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 1000, 10000)
	if g.Edges() < 9000 {
		tb.Fatalf("bench graph too sparse: %d edges", g.Edges())
	}
	return g
}

func BenchmarkPartitionGreedy(b *testing.B) {
	g := benchGraph(b)
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PartitionK(2, MethodGreedy, -1)
	}
}

func BenchmarkPartitionFM(b *testing.B) {
	g := benchGraph(b)
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PartitionK(2, MethodFM, -1)
	}
}

func BenchmarkPartitionKL(b *testing.B) {
	g := benchGraph(b)
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PartitionK(2, MethodKL, -1)
	}
}

// TestFMSpeedupOnLargeGraph is the acceptance check from the issue:
// on the 1k-node/10k-edge graph FM must beat greedy by at least 5x.
// Benchmarked properly in BenchmarkPartition*; this is a coarse guard
// that also runs under plain `go test`.
func TestFMSpeedupOnLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := benchGraph(t)
	g.CSR()
	greedyT := timeIt(func() { g.PartitionK(2, MethodGreedy, -1) }, 3)
	fmT := timeIt(func() { g.PartitionK(2, MethodFM, -1) }, 3)
	if fmT*5 > greedyT {
		t.Errorf("FM not 5x faster: greedy %v, fm %v (%.1fx)", greedyT, fmT, float64(greedyT)/float64(fmT))
	}
	t.Logf("greedy %v, fm %v (%.1fx)", greedyT, fmT, float64(greedyT)/float64(fmT))
}
