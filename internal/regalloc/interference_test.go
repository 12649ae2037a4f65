package regalloc_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/genmc"
	"dualbank/internal/ir"
	"dualbank/internal/regalloc"
)

// refInterference is a map-based reference for the allocator's
// interference graph: liveness as register sets to a fixed point, then
// one backward scan per block that adds each interfering pair once, the
// first time it is found, visiting live registers in ascending order.
func refInterference(f *ir.Func) ([][]ir.Reg, []float64) {
	type set = map[ir.Reg]bool
	nb := len(f.Blocks)
	use, def := make([]set, nb), make([]set, nb)
	liveIn, liveOut := make([]set, nb), make([]set, nb)
	var buf []ir.Reg
	for i, b := range f.Blocks {
		use[i], def[i], liveIn[i], liveOut[i] = set{}, set{}, set{}, set{}
		for _, op := range b.Ops {
			for _, u := range op.Uses(buf[:0]) {
				if !def[i][u] {
					use[i][u] = true
				}
			}
			if op.Dst != ir.NoReg {
				def[i][op.Dst] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			for _, s := range f.Blocks[i].Succs {
				for r := range liveIn[s.ID] {
					if !liveOut[i][r] {
						liveOut[i][r], changed = true, true
					}
				}
			}
			for r := range liveOut[i] {
				if !def[i][r] && !liveIn[i][r] {
					liveIn[i][r], changed = true, true
				}
			}
			for r := range use[i] {
				if !liveIn[i][r] {
					liveIn[i][r], changed = true, true
				}
			}
		}
	}

	n := f.NumRegs()
	adj, cost := make([][]ir.Reg, n), make([]float64, n)
	edges := make(map[[2]ir.Reg]bool)
	for bi, b := range f.Blocks {
		live := set{}
		for r := range liveOut[bi] {
			live[r] = true
		}
		depthW := 1.0
		for d := 0; d < b.LoopDepth && d < 6; d++ {
			depthW *= 10
		}
		for i := len(b.Ops) - 1; i >= 0; i-- {
			op := b.Ops[i]
			if d := op.Dst; d != ir.NoReg {
				cost[d] += depthW
				regs := make([]ir.Reg, 0, len(live))
				for r := range live {
					regs = append(regs, r)
				}
				sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
				for _, r := range regs {
					if r == d || f.RegType(r) != f.RegType(d) || (op.Kind == ir.OpMov && r == op.Args[0]) {
						continue
					}
					k := [2]ir.Reg{min(d, r), max(d, r)}
					if !edges[k] {
						edges[k] = true
						adj[k[0]] = append(adj[k[0]], k[1])
						adj[k[1]] = append(adj[k[1]], k[0])
					}
				}
				delete(live, d)
			}
			for _, u := range op.Uses(buf[:0]) {
				cost[u] += depthW
				live[u] = true
			}
		}
	}
	return adj, cost
}

// checkInterference compares the allocator's interference graph of
// every function in p with the reference, before each spill round and
// after the last, and returns the number of spill rounds run.
func checkInterference(t *testing.T, name string, p *ir.Program) int {
	t.Helper()
	rounds := 0
	for _, f := range p.Funcs {
		firstTemp := ir.Reg(f.NumRegs())
		for round := 0; ; round++ {
			adj, cost := regalloc.InterferenceLists(f)
			wantAdj, wantCost := refInterference(f)
			if len(adj) != len(wantAdj) {
				t.Fatalf("%s %s round %d: %d adjacency lists, reference %d", name, f.Name, round, len(adj), len(wantAdj))
			}
			for r := range wantAdj {
				if !slices.Equal(adj[r], wantAdj[r]) || cost[r] != wantCost[r] {
					t.Fatalf("%s %s round %d: %v adjacency %v cost %g, reference %v cost %g",
						name, f.Name, round, ir.Reg(r), adj[r], cost[r], wantAdj[r], wantCost[r])
				}
			}
			if regalloc.SpillRound(f, firstTemp) == 0 {
				break
			}
			rounds++
			if round > 64 {
				t.Fatalf("%s %s: no colouring after %d spill rounds", name, f.Name, round)
			}
		}
	}
	return rounds
}

// pressureSource returns a seeded program that keeps 30 to 60 integer
// and up to 40 float scalars live across a loop, so allocation spills.
func pressureSource(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	nInt, nFlt := 30+r.Intn(31), r.Intn(41)
	ops := []string{"+", "-", "*", "^"}
	var b strings.Builder
	b.WriteString("int g = 3;\nfloat h = 1.5;\nint r;\nfloat fr;\nint A[16];\nvoid main() {\n\tint i;\n")
	for k := 0; k < nInt; k++ {
		fmt.Fprintf(&b, "\tint v%d = g + %d;\n", k, r.Intn(100))
	}
	for k := 0; k < nFlt; k++ {
		fmt.Fprintf(&b, "\tfloat w%d = h * %d.5;\n", k, r.Intn(10))
	}
	b.WriteString("\tfor (i = 0; i < 16; i++) {\n")
	for k := 0; k < nInt; k++ {
		fmt.Fprintf(&b, "\t\tv%d = v%d %s v%d + A[i];\n", k, k, ops[r.Intn(len(ops))], r.Intn(nInt))
	}
	for k := 0; k < nFlt; k++ {
		fmt.Fprintf(&b, "\t\tw%d = w%d %s w%d;\n", k, k, ops[r.Intn(3)], r.Intn(nFlt))
	}
	b.WriteString("\t\tA[i] = v0;\n\t}\n\tr = 0")
	for k := 0; k < nInt; k++ {
		fmt.Fprintf(&b, " + v%d", k)
	}
	b.WriteString(";\n\tfr = 0.0")
	for k := 0; k < nFlt; k++ {
		fmt.Fprintf(&b, " + w%d", k)
	}
	b.WriteString(";\n}\n")
	return b.String()
}

// TestInterferenceMatchesReference pins the interference graph, whose
// scan skips each pair it has already recorded, to the map-based
// reference: equal adjacency lists in content and order, and
// equal spill costs, on the benchmark suite, generated programs and
// seeded high-pressure programs through every spill round.
func TestInterferenceMatchesReference(t *testing.T) {
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		checkInterference(t, p.Name, build(t, p.Source))
	}
	for _, k := range genmc.Population(30, 3) {
		g := genmc.Generate(k)
		checkInterference(t, g.Name, build(t, g.Source))
	}
	spilled := 0
	for seed := int64(1); seed <= 8; seed++ {
		spilled += checkInterference(t, fmt.Sprintf("pressure_%d", seed), build(t, pressureSource(seed)))
	}
	if spilled == 0 {
		t.Fatal("no high-pressure program spilled; the spill rounds went unchecked")
	}
}
