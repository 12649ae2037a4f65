package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualbank/internal/ir"
)

// randomGraph builds a random weighted interference graph with
// weights 1–5.
func randomGraph(rng *rand.Rand, n, edges int) *Graph { return weightedGraph(rng, n, edges, 5) }

// weightedGraph builds a random interference graph with weights drawn
// from 1 to maxW.
func weightedGraph(rng *rand.Rand, n, edges, maxW int) *Graph {
	syms := make([]*ir.Symbol, n)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Size: 1}
	}
	g := NewGraph(syms)
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if g.Weight(syms[i], syms[j]) == 0 {
			g.SetWeight(syms[i], syms[j], int64(rng.Intn(maxW)+1))
		}
	}
	return g
}

// TestKLNeverWorseThanGreedy: the KL refinement starts from the greedy
// partition and only keeps improving passes.
func TestKLNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 4+rng.Intn(14), 2+rng.Intn(40))
		greedy := g.PartitionK(2, MethodGreedy, -1)
		kl := g.PartitionK(2, MethodKL, -1)
		if kl.Cost > greedy.Cost {
			t.Fatalf("trial %d: KL cost %d worse than greedy %d", trial, kl.Cost, greedy.Cost)
		}
	}
}

// TestKLFindsOptimumGreedyMisses: on a graph engineered so the
// one-directional greedy gets stuck, KL's swap passes recover.
func TestKLFindsOptimumGreedyMisses(t *testing.T) {
	// Two triangles joined by a light edge: optimal cut keeps each
	// triangle... actually any triangle costs at least 1, so build a
	// 4-cycle with a chord: nodes a-b-c-d, edges ab=1, bc=1, cd=1,
	// da=1, ac=10. Optimal: a,c separated -> cost... a and c apart
	// means cut ac (10 saved), cut ab or bc etc. Best: {a,b},{c,d}
	// cuts bc, da, ac -> leaves ab, cd = cost 2.
	syms := []*ir.Symbol{sym("a"), sym("b"), sym("c"), sym("d")}
	g := NewGraph(syms)
	set := func(i, j int, w int64) { g.SetWeight(syms[i], syms[j], w) }
	set(0, 1, 1)
	set(1, 2, 1)
	set(2, 3, 1)
	set(3, 0, 1)
	set(0, 2, 10)
	kl := g.PartitionK(2, MethodKL, -1)
	if kl.Cost > 2 {
		t.Fatalf("KL cost %d, want <= 2", kl.Cost)
	}
}

// TestAnnealValidAndDecent: annealing yields a valid partition whose
// cost is no worse than leaving everything in one bank, and on small
// graphs it should match or beat greedy most of the time.
func TestAnnealValidAndDecent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	better, worse := 0, 0
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 4+rng.Intn(10), 2+rng.Intn(30))
		var total int64
		for _, e := range g.edges {
			total += e.w
		}
		an := g.anneal(2, int64(trial))
		if an.Cost > total {
			t.Fatalf("anneal cost %d exceeds total weight %d", an.Cost, total)
		}
		if len(an.Sets[0])+len(an.Sets[1]) != len(g.Nodes) {
			t.Fatal("anneal lost nodes")
		}
		gr := g.PartitionK(2, MethodGreedy, -1)
		switch {
		case an.Cost < gr.Cost:
			better++
		case an.Cost > gr.Cost:
			worse++
		}
	}
	// The Princeton comparison the paper cites: annealing is not
	// meaningfully better than the simple heuristic.
	if worse > 10 {
		t.Errorf("annealing lost to greedy %d/30 times — schedule too cold?", worse)
	}
	t.Logf("anneal vs greedy: better %d, worse %d, equal %d", better, worse, 30-better-worse)
}

// TestAnnealDeterministic: same seed, same partition.
func TestAnnealDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 12, 30)
	a := g.anneal(2, 42)
	b := g.anneal(2, 42)
	if a.Cost != b.Cost || len(a.Sets[1]) != len(b.Sets[1]) {
		t.Fatal("annealing is not deterministic for a fixed seed")
	}
	for i := range a.Sets[1] {
		if a.Sets[1][i] != b.Sets[1][i] {
			t.Fatal("annealing is not deterministic for a fixed seed")
		}
	}
}

// TestMethodsProduceValidPartitions is the quick-check umbrella over
// all three methods.
func TestMethodsProduceValidPartitions(t *testing.T) {
	f := func(seed int64, nn uint8, ne uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+int(nn%14), int(ne%50))
		for _, m := range []Method{MethodGreedy, MethodKL, MethodAnneal, MethodFM} {
			p := g.PartitionK(2, m, -1)
			seen := map[*ir.Symbol]bool{}
			for _, s := range append(append([]*ir.Symbol{}, p.Sets[0]...), p.Sets[1]...) {
				if seen[s] {
					return false
				}
				seen[s] = true
			}
			if len(seen) != len(g.Nodes) {
				return false
			}
			if p.Cost < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
