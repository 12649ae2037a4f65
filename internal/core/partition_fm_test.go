package core

import (
	"math/rand"
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

// TestFMNeverWorseThanGreedy is the central property of the gain-bucket
// partitioner: across 200 seeded random graphs, FM's cut cost never
// exceeds greedy's, and whenever the costs tie the bank image (the
// exact X/Y membership, in order) is identical — FM phase 1 replays
// the greedy walk and phase 2 only commits strict improvements.
func TestFMNeverWorseThanGreedy(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(4*n))
		greedy := g.PartitionK(2, MethodGreedy, -1)
		fm := g.PartitionK(2, MethodFM, -1)
		if fm.Cost > greedy.Cost {
			t.Fatalf("seed %d: FM cost %d worse than greedy %d", seed, fm.Cost, greedy.Cost)
		}
		if fm.Cost == greedy.Cost {
			if !samePartition(fm, greedy) {
				t.Fatalf("seed %d: FM tied greedy at cost %d but produced a different bank image\nfm:     %v\ngreedy: %v",
					seed, fm.Cost, fm, greedy)
			}
		}
	}
}

// TestFMTraceMatchesGreedy: phase 1 of FM is the greedy walk with
// incremental gain bookkeeping, so its recorded trace — including the
// Figure 5 tie-breaks — must match greedy's move for move.
func TestFMTraceMatchesGreedy(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(3*n))
		greedy := g.PartitionK(2, MethodGreedy, -1)
		fm := g.PartitionK(2, MethodFM, -1)
		if len(fm.Trace) != len(greedy.Trace) {
			t.Fatalf("seed %d: trace lengths differ: fm %v greedy %v", seed, fm.Trace, greedy.Trace)
		}
		for i := range fm.Trace {
			if fm.Trace[i] != greedy.Trace[i] {
				t.Fatalf("seed %d: traces diverge at move %d: fm %v greedy %v", seed, i, fm.Trace, greedy.Trace)
			}
		}
	}
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

// TestFMHeapFallback forces profile-scale weights past the gain
// bucket range so the queue runs in heap mode, and checks the same
// never-worse / identical-on-tie contract holds there too.
func TestFMHeapFallback(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
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
			// Weights in the millions, like loop-nest profile counts.
			g.SetWeight(syms[i], syms[j], int64(rng.Intn(5_000_000)+1_000_000))
		}
		var q gainQueue
		var pmax int64
		c := g.CSR()
		for i := 0; i < n; i++ {
			if d := c.weightedDegree(i); d > pmax {
				pmax = d
			}
		}
		q.init(n, pmax)
		if !q.useHeap && pmax > 0 {
			t.Fatalf("seed %d: expected heap fallback for pmax=%d", seed, pmax)
		}
		greedy := g.PartitionK(2, MethodGreedy, -1)
		fm := g.PartitionK(2, MethodFM, -1)
		if fm.Cost > greedy.Cost {
			t.Fatalf("seed %d: heap-mode FM cost %d worse than greedy %d", seed, fm.Cost, greedy.Cost)
		}
		if fm.Cost == greedy.Cost && !samePartition(fm, greedy) {
			t.Fatalf("seed %d: heap-mode FM tied greedy but bank image differs", seed)
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
