package opt

import (
	"reflect"
	"testing"

	"dualbank/internal/ir"
)

// newCFG returns a function with one block per entry of succs. Block i
// ends in a ret when succs[i] is empty, a br to its one successor, or a
// condbr on a fresh register to its two.
func newCFG(succs [][]int) *ir.Func {
	f := ir.NewFunc("t", ir.TVoid)
	for range succs {
		f.NewBlock()
	}
	for i, ss := range succs {
		b := f.Blocks[i]
		switch len(ss) {
		case 0:
			b.Ops = append(b.Ops, &ir.Op{Kind: ir.OpRet})
		case 1:
			b.Ops = append(b.Ops, &ir.Op{Kind: ir.OpBr})
		default:
			b.Ops = append(b.Ops, &ir.Op{Kind: ir.OpCondBr, Args: [2]ir.Reg{f.NewReg(ir.TInt)}})
		}
		for _, s := range ss {
			b.Succs = append(b.Succs, f.Blocks[s])
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b)
		}
	}
	return f
}

// loopIDs runs naturalLoop and returns its verdict and the member IDs
// in discovery order.
func loopIDs(f *ir.Func, loop *blockSet, head, tail int) (bool, []int) {
	ok := naturalLoop(f, f.Blocks[head], f.Blocks[tail], loop)
	ids := make([]int, len(loop.members))
	for i, b := range loop.members {
		ids[i] = b.ID
	}
	return ok, ids
}

func checkLoop(t *testing.T, f *ir.Func, loop *blockSet, head, tail int, want []int) {
	t.Helper()
	ok, got := loopIDs(f, loop, head, tail)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("naturalLoop(b%d, b%d) = %v %v, want true %v", head, tail, ok, got, want)
	}
	for _, b := range f.Blocks {
		in := false
		for _, id := range want {
			in = in || id == b.ID
		}
		if loop.has(b) != in {
			t.Fatalf("naturalLoop(b%d, b%d): has(%s) = %v, want %v", head, tail, b, !in, in)
		}
	}
}

// countedSelfLoop builds
//
//	b0: i = 0; n = 10; one = 1; br b1
//	b1: i = i + 1; t = i < n; condbr t (b1, b2)
//	b2: ret
//
// a counted loop whose header is its own backedge block.
func countedSelfLoop() *ir.Func {
	f := newCFG([][]int{{1}, {1, 2}, {}})
	i, n, one := f.NewReg(ir.TInt), f.NewReg(ir.TInt), f.NewReg(ir.TInt)
	b0, b1 := f.Blocks[0], f.Blocks[1]
	b0.Ops = append([]*ir.Op{
		{Kind: ir.OpConst, Type: ir.TInt, Dst: i},
		{Kind: ir.OpConst, Type: ir.TInt, Dst: n, Imm: 10},
		{Kind: ir.OpConst, Type: ir.TInt, Dst: one, Imm: 1},
	}, b0.Ops...)
	cond := b1.Terminator().Args[0]
	b1.Ops = append([]*ir.Op{
		{Kind: ir.OpAdd, Type: ir.TInt, Dst: i, Args: [2]ir.Reg{i, one}},
		{Kind: ir.OpSetLT, Type: ir.TInt, Dst: cond, Args: [2]ir.Reg{i, n}},
	}, b1.Ops...)
	return f
}

func TestNaturalLoopSelfLoop(t *testing.T) {
	f := countedSelfLoop()
	checkLoop(t, f, new(blockSet), 1, 1, []int{1})

	if !new(tables).hardwareLoops(f) {
		t.Fatalf("self-loop not converted:\n%s", f)
	}
	b0, b1 := f.Blocks[0], f.Blocks[1]
	ph := f.Blocks[len(f.Blocks)-1]
	if k := b1.Terminator().Kind; k != ir.OpEndDo || len(b1.Ops) != 2 {
		t.Errorf("backedge block ends in %v with %d ops, want enddo after the update alone:\n%s", k, len(b1.Ops), f)
	}
	if k := ph.Terminator().Kind; k != ir.OpDo || b0.Succs[0] != ph || ph.Succs[0] != b1 {
		t.Errorf("preheader %s ends in %v; want b0 -> preheader -> b1 with do:\n%s", ph, k, f)
	}
	if !reflect.DeepEqual(b1.Preds, []*ir.Block{ph, b1}) {
		t.Errorf("b1 preds %v, want [%s b1]", b1.Preds, ph)
	}
}

func TestNaturalLoopNested(t *testing.T) {
	// b1 heads the outer loop closed by b4, b2 the inner one closed by b3.
	f := newCFG([][]int{{1}, {2}, {3}, {2, 4}, {1, 5}, {}})
	loop := new(blockSet)
	checkLoop(t, f, loop, 1, 4, []int{1, 4, 3, 2})
	// Reusing the set for the inner loop must forget the outer one.
	checkLoop(t, f, loop, 2, 3, []int{2, 3})
}

func TestNaturalLoopIfEscapesToEntry(t *testing.T) {
	// b1's condbr is an if, not a backedge: the walk from b1 back
	// towards b2 never meets it and runs to the entry.
	f := newCFG([][]int{{1}, {2, 3}, {4}, {4}, {}})
	checkLoop(t, f, new(blockSet), 2, 1, []int{2, 1, 0})
	before := f.String()
	if new(tables).hardwareLoops(f) || f.String() != before || len(f.Blocks) != 5 {
		t.Fatalf("if-branch converted to a hardware loop:\n%s", f)
	}
}

func TestNaturalLoopStepCap(t *testing.T) {
	// A chain b0 -> ... -> b(n-1) ending in a condbr to b(n) and b(n+1):
	// the walk back from b(n-1) takes one step per chain block.
	chain := func(n int) *ir.Func {
		succs := make([][]int, n+2)
		for i := 0; i < n-1; i++ {
			succs[i] = []int{i + 1}
		}
		succs[n-1] = []int{n, n + 1}
		return newCFG(succs)
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{10000, true}, {10001, false}} {
		f := chain(tc.n)
		ok, ids := loopIDs(f, new(blockSet), tc.n, tc.n-1)
		if ok != tc.ok {
			t.Errorf("chain of %d blocks: naturalLoop = %v with %d members, want %v", tc.n, ok, len(ids), tc.ok)
		}
		if tc.ok && len(ids) != tc.n+1 {
			t.Errorf("chain of %d blocks: %d members, want %d", tc.n, len(ids), tc.n+1)
		}
	}
}

func TestConstRegs(t *testing.T) {
	f := ir.NewFunc("t", ir.TVoid)
	b := f.NewBlock()
	one, twice, computed := f.NewReg(ir.TInt), f.NewReg(ir.TInt), f.NewReg(ir.TInt)
	b.Ops = []*ir.Op{
		{Kind: ir.OpConst, Type: ir.TInt, Dst: one, Imm: 1},
		{Kind: ir.OpConst, Type: ir.TInt, Dst: twice, Imm: 1},
		{Kind: ir.OpConst, Type: ir.TInt, Dst: twice, Imm: 1},
		{Kind: ir.OpAdd, Type: ir.TInt, Dst: computed, Args: [2]ir.Reg{one, one}},
		{Kind: ir.OpRet},
	}
	defs := new(tables).regDefs(f)
	for r := range defs {
		if want := ir.Reg(r) == one; defs[r].isConst() != want || want && defs[r].val != 1 {
			t.Fatalf("regDefs: %v; want only r%d a constant, 1", defs, one)
		}
	}
}
