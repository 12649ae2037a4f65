package core

import (
	"testing"
	"testing/quick"

	"dualbank/internal/ir"
)

// sym makes a named array symbol.
func sym(name string) *ir.Symbol {
	return &ir.Symbol{Name: name, Elem: ir.TFloat, Size: 8, Dims: []int{8}}
}

// TestFigure5GreedyPartition reproduces the published partitioning
// walk on the Figure 5 graph: nodes A, B, C, D with edge weights
// (A,B)=1, (A,C)=1, (A,D)=2, (B,C)=1, (B,D)=1, (C,D)=1. The paper
// shows the cost dropping 7 -> 3 (move D) -> 2 (move C), ending with
// {A,B} in one bank and {C,D} in the other.
func TestFigure5GreedyPartition(t *testing.T) {
	a, b, c, d := sym("A"), sym("B"), sym("C"), sym("D")
	g := NewGraph([]*ir.Symbol{a, b, c, d})
	blkTop := &ir.Block{LoopDepth: 0}  // weight 1 edges
	blkLoop := &ir.Block{LoopDepth: 1} // weight 2 edge
	g.addEvent(a, b, blkTop, 0, WeightStatic)
	g.addEvent(a, c, blkTop, 0, WeightStatic)
	g.addEvent(a, d, blkLoop, 0, WeightStatic)
	g.addEvent(b, c, blkTop, 0, WeightStatic)
	g.addEvent(b, d, blkTop, 0, WeightStatic)
	g.addEvent(c, d, blkTop, 0, WeightStatic)

	p := g.PartitionK(2, MethodGreedy, -1)
	wantTrace := []int64{7, 3, 2}
	if len(p.Trace) != len(wantTrace) {
		t.Fatalf("trace = %v, want %v", p.Trace, wantTrace)
	}
	for i, w := range wantTrace {
		if p.Trace[i] != w {
			t.Fatalf("trace = %v, want %v", p.Trace, wantTrace)
		}
	}
	if p.Cost != 2 {
		t.Errorf("cost = %d, want 2", p.Cost)
	}
	// Final sets: {A, B} stay, {D, C} moved (Figure 5(c)).
	if len(p.Sets[0]) != 2 || len(p.Sets[1]) != 2 {
		t.Fatalf("sets X=%v Y=%v", p.Sets[0], p.Sets[1])
	}
	inY := map[string]bool{}
	for _, s := range p.Sets[1] {
		inY[s.Name] = true
	}
	if !inY["C"] || !inY["D"] {
		t.Errorf("moved set = %v, want {C, D}", p.Sets[1])
	}
}

// TestFigure4EdgeWeights checks the weight heuristic on hand-built
// events: an edge discovered only outside loops weighs 1; one
// discovered inside a loop weighs depth+1; re-discovery outside a loop
// does not lower or raise an existing weight (Figure 4 keeps (B,D)=1
// despite two discoveries).
func TestFigure4EdgeWeights(t *testing.T) {
	a, b, d := sym("A"), sym("B"), sym("D")
	g := NewGraph([]*ir.Symbol{a, b, d})
	top := &ir.Block{LoopDepth: 0}
	loop := &ir.Block{LoopDepth: 1}

	g.addEvent(b, d, top, 0, WeightStatic)
	g.addEvent(b, d, top, 0, WeightStatic) // second discovery, same weight
	if w := g.Weight(b, d); w != 1 {
		t.Errorf("weight(B,D) = %d, want 1", w)
	}
	g.addEvent(a, d, loop, 0, WeightStatic)
	if w := g.Weight(a, d); w != 2 {
		t.Errorf("weight(A,D) = %d, want 2", w)
	}
	// Loop discovery upgrades an outside-loop edge.
	g.addEvent(b, d, loop, 0, WeightStatic)
	if w := g.Weight(b, d); w != 2 {
		t.Errorf("weight(B,D) after loop discovery = %d, want 2", w)
	}
}

// TestProfiledWeights checks the Pr policy accumulates execution
// counts.
func TestProfiledWeights(t *testing.T) {
	a, b := sym("A"), sym("B")
	g := NewGraph([]*ir.Symbol{a, b})
	hot := &ir.Block{ExecCount: 1000}
	cold := &ir.Block{ExecCount: 3}
	g.addEvent(a, b, hot, hot.ExecCount, WeightProfiled)
	g.addEvent(a, b, cold, cold.ExecCount, WeightProfiled)
	if w := g.Weight(a, b); w != 1003 {
		t.Errorf("profiled weight = %d, want 1003", w)
	}
}

// TestDuplicationMark checks that a same-symbol event marks the symbol
// for duplication instead of adding a self-edge (Figure 6's trigger).
func TestDuplicationMark(t *testing.T) {
	s := sym("signal")
	g := NewGraph([]*ir.Symbol{s})
	g.addEvent(s, s, &ir.Block{LoopDepth: 2}, 0, WeightStatic)
	if !g.DupMarks[s] {
		t.Fatal("same-array event should mark for duplication")
	}
	if g.Edges() != 0 {
		t.Fatal("same-array event must not add an edge")
	}
}

// TestScanBlockFindsParallelLoads builds a block with two loads from
// different arrays that are simultaneously data-ready and checks an
// interference edge appears; a third dependent load must not pair.
func TestScanBlockFindsParallelLoads(t *testing.T) {
	a, b, c := sym("A"), sym("B"), sym("C")
	f := ir.NewFunc("f", ir.TVoid)
	blk := f.NewBlock()
	i := f.NewReg(ir.TInt)
	va := f.NewReg(ir.TFloat)
	vb := f.NewReg(ir.TFloat)
	vi2 := f.NewReg(ir.TInt)
	vc := f.NewReg(ir.TFloat)
	blk.Ops = append(blk.Ops,
		&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: i, Imm: 1},
		&ir.Op{Kind: ir.OpLoad, Type: ir.TFloat, Dst: va, Sym: a, Idx: i},
		&ir.Op{Kind: ir.OpLoad, Type: ir.TFloat, Dst: vb, Sym: b, Idx: i},
		// C's index depends on A's loaded value, so the C load can
		// never be data-ready together with the A load.
		&ir.Op{Kind: ir.OpFloatToInt, Type: ir.TInt, Dst: vi2, Args: [2]ir.Reg{va}},
		&ir.Op{Kind: ir.OpLoad, Type: ir.TFloat, Dst: vc, Sym: c, Idx: vi2},
		&ir.Op{Kind: ir.OpRet},
	)
	g := NewGraph([]*ir.Symbol{a, b, c})
	g.ScanBlock(blk, WeightStatic)
	if g.Weight(a, b) == 0 {
		t.Error("expected interference edge (A, B)")
	}
	if g.Weight(a, c) != 0 {
		t.Error("dependent load C must not pair with A")
	}
}

// TestPartitionProperties uses testing/quick to check partition
// invariants on random graphs: the two sets are a disjoint cover of
// the nodes, the residual cost equals the weight of edges left inside
// one set, and the cost never exceeds the all-in-one-bank cost.
func TestPartitionProperties(t *testing.T) {
	f := func(seed int64, nNodes uint8, edges []uint16) bool {
		n := int(nNodes%12) + 2
		syms := make([]*ir.Symbol, n)
		for i := range syms {
			syms[i] = &ir.Symbol{Name: string(rune('a' + i)), Size: 1}
		}
		g := NewGraph(syms)
		var total int64
		for _, e := range edges {
			i := int(e) % n
			j := int(e>>4) % n
			if i == j {
				continue
			}
			w := int64(e>>8)%5 + 1
			if g.Weight(syms[i], syms[j]) == 0 {
				g.SetWeight(syms[i], syms[j], w)
				total += w
			}
		}
		p := g.PartitionK(2, MethodGreedy, -1)
		// Disjoint cover.
		seen := map[*ir.Symbol]int{}
		for _, s := range p.Sets[0] {
			seen[s]++
		}
		for _, s := range p.Sets[1] {
			seen[s]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// Residual cost is the weight of same-set edges.
		side := map[*ir.Symbol]int{}
		for _, s := range p.Sets[1] {
			side[s] = 1
		}
		var residual int64
		for _, e := range g.edges {
			if side[g.Nodes[e.u]] == side[g.Nodes[e.v]] {
				residual += e.w
			}
		}
		if residual != p.Cost {
			return false
		}
		// Greedy never increases cost.
		return p.Cost <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionTraceMonotone: every greedy move strictly decreases the
// cost.
func TestPartitionTraceMonotone(t *testing.T) {
	a, b, c, d := sym("A"), sym("B"), sym("C"), sym("D")
	g := NewGraph([]*ir.Symbol{a, b, c, d})
	top := &ir.Block{LoopDepth: 0}
	g.addEvent(a, b, top, 0, WeightStatic)
	g.addEvent(c, d, top, 0, WeightStatic)
	p := g.PartitionK(2, MethodGreedy, -1)
	for i := 1; i < len(p.Trace); i++ {
		if p.Trace[i] >= p.Trace[i-1] {
			t.Fatalf("non-decreasing trace %v", p.Trace)
		}
	}
	if p.Cost != 0 {
		t.Errorf("two disjoint edges should partition to cost 0, got %d", p.Cost)
	}
}

func TestGraphString(t *testing.T) {
	a, b := sym("A"), sym("B")
	g := NewGraph([]*ir.Symbol{a, b})
	g.addEvent(a, b, &ir.Block{LoopDepth: 0}, 0, WeightStatic)
	g.DupMarks[a] = true
	out := g.String()
	if out != "(A, B) w=1\ndup: A\n" {
		t.Errorf("String() = %q", out)
	}
}
