package exact_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/exact"
	"dualbank/internal/ir"
	"dualbank/internal/pipeline"
)

// randomGraph builds a random weighted interference graph (mirrors the
// helper the core package tests use).
func randomGraph(rng *rand.Rand, n, edges int) *core.Graph {
	syms := make([]*ir.Symbol, n)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Size: 1}
	}
	g := core.NewGraph(syms)
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if g.Weight(syms[i], syms[j]) == 0 {
			g.SetWeight(syms[i], syms[j], int64(rng.Intn(5)+1))
		}
	}
	return g
}

// activeNodes returns the indices of nodes with at least one edge.
func activeNodes(g *core.Graph) []int {
	c := g.CSR()
	var act []int
	for i := range g.Nodes {
		if c.Degree(i) > 0 {
			act = append(act, i)
		}
	}
	return act
}

// bruteForce enumerates every assignment of g's active nodes to k
// banks, a node entering at most one bank past the highest used so far
// (so each set partition is visited once), and returns the least
// residual cost: the weight of the edges inside one bank. Isolated
// nodes cannot contribute cost.
func bruteForce(g *core.Graph, k int) int64 {
	act := activeNodes(g)
	c := g.CSR()
	side := make([]int, len(g.Nodes))
	for i := range side {
		side[i] = -1
	}
	best := int64(1) << 62
	var walk func(d, used int, cost int64)
	walk = func(d, used int, cost int64) {
		if cost >= best {
			return
		}
		if d == len(act) {
			best = cost
			return
		}
		v := act[d]
		for b := 0; b < k && b <= used; b++ {
			var add int64
			for h := c.Start[v]; h < c.Start[v+1]; h++ {
				if side[c.Adj[h]] == b {
					add += c.W[h]
				}
			}
			side[v] = b
			walk(d+1, max(used, b+1), cost+add)
			side[v] = -1
		}
	}
	walk(0, 0, 0)
	return best
}

// checkInvariants asserts what every Solve result must satisfy against
// the brute-force optimum want: the partition realises Upper, Lower
// never exceeds Upper, an optimal verdict has a closed interval and
// names want, want lies inside the certificate, the exact arm is never
// costlier than any heuristic, and every heuristic sits inside the
// reported bound.
func checkInvariants(t *testing.T, g *core.Graph, k int, r *exact.Result, want int64) {
	t.Helper()
	if r.Part.Cost != r.Cert.Upper {
		t.Fatalf("k=%d: partition cost %d != certificate upper %d", k, r.Part.Cost, r.Cert.Upper)
	}
	if r.Cert.Lower > r.Cert.Upper {
		t.Fatalf("k=%d: lower %d > upper %d", k, r.Cert.Lower, r.Cert.Upper)
	}
	if r.Cert.Verdict == exact.Optimal && r.Cert.Lower != r.Cert.Upper {
		t.Fatalf("k=%d: verdict optimal with open interval [%d, %d]", k, r.Cert.Lower, r.Cert.Upper)
	}
	if r.Cert.Verdict == exact.Optimal && r.Cert.Upper != want {
		t.Fatalf("k=%d: claimed optimal %d, brute force %d", k, r.Cert.Upper, want)
	}
	if r.Cert.Lower > want || want > r.Cert.Upper {
		t.Fatalf("k=%d: optimum %d outside certified [%d, %d]", k, want, r.Cert.Lower, r.Cert.Upper)
	}
	for _, m := range []core.Method{core.MethodGreedy, core.MethodKL, core.MethodAnneal, core.MethodFM} {
		cost := g.PartitionK(k, m, -1).Cost
		if r.Cert.Upper > cost {
			t.Fatalf("k=%d: exact cost %d worse than %v %d", k, r.Cert.Upper, m, cost)
		}
		if cost < r.Cert.Lower {
			t.Fatalf("k=%d: %v cost %d below proven lower bound %d", k, m, cost, r.Cert.Lower)
		}
	}
}

// TestExactMatchesBruteForceBenchmarks pins the branch-and-bound
// against exhaustive enumeration on every benchmark whose interference
// graph has at most 16 active arrays — all twelve kernels and most
// applications qualify.
func TestExactMatchesBruteForceBenchmarks(t *testing.T) {
	progs := append(bench.Kernels(), bench.Applications()...)
	checked := 0
	for _, p := range progs {
		c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB})
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		g := c.Alloc.Graph
		if len(activeNodes(g)) > 16 {
			continue
		}
		checked++
		want := bruteForce(g, 2)
		r := exact.Solve(g, 2, exact.Options{})
		checkInvariants(t, g, 2, r, want)
		if r.Cert.Verdict != exact.Optimal {
			t.Errorf("%s: verdict %v, want optimal", p.Name, r.Cert.Verdict)
		}
		if r.Cert.Upper != want {
			t.Errorf("%s: exact cost %d, brute force %d", p.Name, r.Cert.Upper, want)
		}
	}
	if checked < 12 {
		t.Fatalf("only %d benchmarks qualified for brute force, want >= 12 (all kernels)", checked)
	}
}

// TestExactMatchesBruteForceRandom pins the solver against brute force
// on 200 seeded random graphs, both through the default ordering and
// with the spectral seed+ordering forced on (SpectralMin 2), so the
// float path is exercised on graphs small enough to verify exhaustively.
func TestExactMatchesBruteForceRandom(t *testing.T) {
	for _, opt := range []exact.Options{{}, {SpectralMin: 2}} {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 200; trial++ {
			n := 2 + rng.Intn(13)
			g := randomGraph(rng, n, rng.Intn(4*n))
			want := bruteForce(g, 2)
			r := exact.Solve(g, 2, opt)
			checkInvariants(t, g, 2, r, want)
			if r.Cert.Verdict != exact.Optimal {
				t.Fatalf("trial %d (spectralMin=%d): verdict %v, want optimal",
					trial, opt.SpectralMin, r.Cert.Verdict)
			}
			if r.Cert.Upper != want {
				t.Fatalf("trial %d (spectralMin=%d): exact cost %d, brute force %d",
					trial, opt.SpectralMin, r.Cert.Upper, want)
			}
		}
	}
}

// TestSolveKMatchesBruteForce pins the k-way branch-and-bound against
// exhaustive enumeration on 400 seeded random graphs of 2–9 nodes at
// three and four banks. Graphs this small close within the default
// budget, so every verdict must be optimal.
func TestSolveKMatchesBruteForce(t *testing.T) {
	for _, k := range []int{3, 4} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 400; trial++ {
			n := 2 + rng.Intn(8)
			g := randomGraph(rng, n, rng.Intn(4*n))
			r := exact.Solve(g, k, exact.Options{})
			checkInvariants(t, g, k, r, bruteForce(g, k))
			if r.Cert.Verdict != exact.Optimal {
				t.Fatalf("k=%d trial %d: verdict %v, want optimal", k, trial, r.Cert.Verdict)
			}
		}
	}
}

// TestSolveKAllocsIndependentOfBudget pins the k-ary search's scratch:
// no branch-and-bound node allocates, so a search that expands more
// nodes under a larger budget allocates exactly as often.
func TestSolveKAllocsIndependentOfBudget(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 30, 120)
	run := func(budget int64) (allocs float64, nodes int64) {
		allocs = testing.AllocsPerRun(5, func() {
			nodes = exact.Solve(g, 3, exact.Options{NodeBudget: budget}).Cert.BBNodes
		})
		return allocs, nodes
	}
	small, smallNodes := run(1_000)
	large, largeNodes := run(100_000)
	if largeNodes <= smallNodes {
		t.Fatalf("%d nodes at budget 100,000 and %d at 1,000; the larger budget expanded nothing more", largeNodes, smallNodes)
	}
	if small != large {
		t.Fatalf("%.0f allocations for %d nodes, %.0f for %d: the search allocates per node", small, smallNodes, large, largeNodes)
	}
}

// BenchmarkSolveK times the k-ary exact search on a fixed random graph
// of 30 nodes at three and four banks, at the default budget.
func BenchmarkSolveK(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(3)), 30, 120)
	for _, k := range []int{3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exact.Solve(g, k, exact.Options{})
			}
		})
	}
}

// TestExactBudgetExhaustion: even with the budget strangled to a single
// node the result must stay a valid bound around the true optimum, and
// the incumbent (seeded from the heuristics) must never regress.
func TestExactBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(10)
		g := randomGraph(rng, n, n+rng.Intn(3*n))
		want := bruteForce(g, 2)
		for _, budget := range []int64{1, 5, 50} {
			r := exact.Solve(g, 2, exact.Options{NodeBudget: budget})
			checkInvariants(t, g, 2, r, want)
			if r.Cert.Lower > want || want > r.Cert.Upper {
				t.Fatalf("trial %d budget %d: optimum %d outside [%d, %d]",
					trial, budget, want, r.Cert.Lower, r.Cert.Upper)
			}
			if r.Cert.BBNodes > budget {
				t.Fatalf("trial %d: expanded %d nodes over budget %d", trial, r.Cert.BBNodes, budget)
			}
		}
	}
}

// TestExactComponentsAdd: disjoint components solve independently and
// their optima (and certificate counts) add.
func TestExactComponentsAdd(t *testing.T) {
	syms := make([]*ir.Symbol, 7)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: string(rune('a' + i)), Size: 1}
	}
	g := core.NewGraph(syms)
	// Two triangles (any bipartition strands one edge: min edge 1 and 2
	// respectively) plus one isolated node.
	g.SetWeight(syms[0], syms[1], 1)
	g.SetWeight(syms[1], syms[2], 4)
	g.SetWeight(syms[0], syms[2], 5)
	g.SetWeight(syms[3], syms[4], 2)
	g.SetWeight(syms[4], syms[5], 3)
	g.SetWeight(syms[3], syms[5], 6)
	r := exact.Solve(g, 2, exact.Options{})
	if r.Cert.Verdict != exact.Optimal || r.Cert.Upper != 3 {
		t.Fatalf("two triangles: verdict %v cost %d, want optimal 3", r.Cert.Verdict, r.Cert.Upper)
	}
	if r.Cert.Components != 2 || r.Cert.Closed != 2 {
		t.Fatalf("components %d closed %d, want 2 and 2", r.Cert.Components, r.Cert.Closed)
	}
	if len(r.Part.Sets[0])+len(r.Part.Sets[1]) != 7 {
		t.Fatalf("partition dropped nodes: |X|+|Y| = %d", len(r.Part.Sets[0])+len(r.Part.Sets[1]))
	}
}

// TestExactDeterministic: equal graphs and options give bit-identical
// certificates and partitions, run-to-run.
func TestExactDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 120)
	a := exact.Solve(g, 2, exact.Options{NodeBudget: 10_000})
	b := exact.Solve(g, 2, exact.Options{NodeBudget: 10_000})
	if a.Cert != b.Cert {
		t.Fatalf("certificates differ: %+v vs %+v", a.Cert, b.Cert)
	}
	if a.Part.String() != b.Part.String() {
		t.Fatalf("partitions differ:\n%s\nvs\n%s", a.Part, b.Part)
	}
	if !a.Cert.Spectral {
		t.Fatalf("30-node connected component should engage the spectral ordering")
	}
}

// TestExactMethodDispatch: the "exact" arm is reachable through the
// core Method surface the pipeline and CLIs use.
func TestExactMethodDispatch(t *testing.T) {
	m, err := core.ParseMethod("exact")
	if err != nil || m != core.MethodExact {
		t.Fatalf("ParseMethod(exact) = %v, %v", m, err)
	}
	if m.String() != "exact" {
		t.Fatalf("MethodExact.String() = %q", m.String())
	}
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 10, 25)
	got := g.PartitionK(2, core.MethodExact, -1)
	want := exact.Solve(g, 2, exact.Options{})
	if got.Cost != want.Cert.Upper {
		t.Fatalf("PartitionK(exact) cost %d, Solve %d", got.Cost, want.Cert.Upper)
	}
}

// TestVerdictText: the verdict names round-trip through the text
// marshalling BENCH_gaps.json uses.
func TestVerdictText(t *testing.T) {
	for _, v := range []exact.Verdict{exact.Optimal, exact.Bounded, exact.Budget} {
		b, err := v.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back exact.Verdict
		if err := back.UnmarshalText(b); err != nil || back != v {
			t.Fatalf("round-trip %v: got %v, %v", v, back, err)
		}
	}
	var v exact.Verdict
	if err := v.UnmarshalText([]byte("nonsense")); err == nil {
		t.Fatal("UnmarshalText accepted nonsense")
	}
}

// graphFromBytes derives a small deterministic graph from fuzz input.
func graphFromBytes(data []byte) *core.Graph {
	if len(data) < 4 {
		return nil
	}
	n := 2 + int(data[0]%11)
	syms := make([]*ir.Symbol, n)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: string(rune('a' + i)), Size: 1}
	}
	g := core.NewGraph(syms)
	for i := 1; i+2 < len(data); i += 3 {
		a, b := int(data[i])%n, int(data[i+1])%n
		if a == b {
			continue
		}
		g.SetWeight(syms[a], syms[b], int64(data[i+2]%9)+1)
	}
	return g
}

// fuzzNeverWorse checks one fuzz input at k banks: the exact arm is
// never costlier than any heuristic, every heuristic lies inside the
// reported bound, and (the graphs being small enough to enumerate) the
// certificate brackets the brute-force optimum, which an optimal
// verdict names.
func fuzzNeverWorse(t *testing.T, k int, data []byte) {
	g := graphFromBytes(data)
	if g == nil {
		return
	}
	checkInvariants(t, g, k, exact.Solve(g, k, exact.Options{}), bruteForce(g, k))
}

// FuzzExactNeverWorse: the exact-arm invariants on arbitrary small
// graphs at two banks.
func FuzzExactNeverWorse(f *testing.F) {
	f.Add([]byte{4, 0, 1, 3, 1, 2, 5, 0, 2, 2})
	f.Add([]byte{9, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 1})
	f.Add([]byte{12, 5, 9, 7, 2, 8, 1, 0, 11, 3, 4, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzNeverWorse(t, 2, data)
	})
}

// FuzzExactKNeverWorse: the same invariants at three or four banks;
// the low bit of the first byte picks the bank count.
func FuzzExactKNeverWorse(f *testing.F) {
	f.Add([]byte{4, 0, 1, 3, 1, 2, 5, 0, 2, 2})
	f.Add([]byte{9, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 1})
	f.Add([]byte{12, 5, 9, 7, 2, 8, 1, 0, 11, 3, 4, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fuzzNeverWorse(t, 3+int(data[0]&1), data)
	})
}
