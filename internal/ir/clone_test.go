package ir_test

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/ir"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// objects records every Symbol, Op, Block and Func reachable from a
// program, through its lists and through every pointer between them.
type objects struct {
	syms   map[*ir.Symbol]bool
	ops    map[*ir.Op]bool
	blocks map[*ir.Block]bool
	funcs  map[*ir.Func]bool
}

func walk(p *ir.Program) objects {
	o := objects{
		syms:   make(map[*ir.Symbol]bool),
		ops:    make(map[*ir.Op]bool),
		blocks: make(map[*ir.Block]bool),
		funcs:  make(map[*ir.Func]bool),
	}
	addSyms := func(ss []*ir.Symbol) {
		for _, s := range ss {
			o.syms[s] = true
		}
	}
	addSyms(p.Globals)
	for _, f := range p.Funcs {
		o.funcs[f] = true
		addSyms(f.Params)
		addSyms(f.Locals)
		for _, b := range f.Blocks {
			o.blocks[b] = true
			for _, s := range b.Succs {
				o.blocks[s] = true
			}
			for _, s := range b.Preds {
				o.blocks[s] = true
			}
			for _, op := range b.Ops {
				o.ops[op] = true
				if op.Sym != nil {
					o.syms[op.Sym] = true
				}
				if op.DupPair != nil {
					o.ops[op.DupPair] = true
				}
			}
		}
	}
	return o
}

// checkClone asserts that q is a structural copy of p sharing no
// Symbol, Op, Block or Func, and that every edge of q — Succs, Preds,
// Op.Sym and DupPair — points inside q.
func checkClone(t *testing.T, name string, p, q *ir.Program) {
	t.Helper()
	if p.String() != q.String() {
		t.Fatalf("%s: clone prints differently from the original", name)
	}
	orig, cl := walk(p), walk(q)
	for s := range cl.syms {
		if orig.syms[s] {
			t.Fatalf("%s: clone shares symbol %s", name, s.Name)
		}
	}
	for op := range cl.ops {
		if orig.ops[op] {
			t.Fatalf("%s: clone shares op %s", name, op)
		}
	}
	for b := range cl.blocks {
		if orig.blocks[b] {
			t.Fatalf("%s: clone shares block %s", name, b)
		}
	}
	for f := range cl.funcs {
		if orig.funcs[f] {
			t.Fatalf("%s: clone shares func %s", name, f.Name)
		}
	}

	// Edges stay inside the clone: every block reached through an edge
	// belongs to the same function, every paired store's partner is an
	// op of the clone, and every op's symbol is one of the clone's
	// declared symbols.
	declared := make(map[*ir.Symbol]bool)
	for _, s := range q.Symbols() {
		declared[s] = true
	}
	for _, f := range q.Funcs {
		for _, s := range f.Params {
			declared[s] = true
		}
	}
	for fi, f := range q.Funcs {
		own := make(map[*ir.Block]bool, len(f.Blocks))
		for _, b := range f.Blocks {
			own[b] = true
		}
		for bi, b := range f.Blocks {
			ob := p.Funcs[fi].Blocks[bi]
			if len(b.Succs) != len(ob.Succs) || len(b.Preds) != len(ob.Preds) || len(b.Ops) != len(ob.Ops) {
				t.Fatalf("%s: %s %s: shape differs from the original", name, f.Name, b)
			}
			for i, s := range b.Succs {
				if !own[s] || s.ID != ob.Succs[i].ID {
					t.Fatalf("%s: %s %s: successor %d leaves the clone", name, f.Name, b, i)
				}
			}
			for i, s := range b.Preds {
				if !own[s] || s.ID != ob.Preds[i].ID {
					t.Fatalf("%s: %s %s: predecessor %d leaves the clone", name, f.Name, b, i)
				}
			}
			for i, op := range b.Ops {
				if op.Sym != nil && !declared[op.Sym] {
					t.Fatalf("%s: %s %s: op %d's symbol leaves the clone", name, f.Name, b, i)
				}
				if (op.DupPair == nil) != (ob.Ops[i].DupPair == nil) {
					t.Fatalf("%s: %s %s: op %d lost or gained its pair", name, f.Name, b, i)
				}
				if op.DupPair != nil {
					if orig.ops[op.DupPair] || op.DupPair.DupPair != op {
						t.Fatalf("%s: %s %s: op %d's pair leaves the clone", name, f.Name, b, i)
					}
				}
			}
		}
	}
}

// TestCloneSharesNothing clones every benchmark twice: the front end's
// output (what a staged compile shares) and the duplicated,
// interrupt-safe back end's output, whose coherence stores carry
// DupPair links.
func TestCloneSharesNothing(t *testing.T) {
	paired := 0
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.FullDup, InterruptSafe: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkClone(t, p.Name+"/full-dup", c.IR, c.IR.Clone())
		paired += c.Alloc.DupStores

		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkClone(t, p.Name+"/prepared", prep.IR(), prep.IR().Clone())
	}
	if paired == 0 {
		t.Fatal("no duplicated-store pairs compiled; the DupPair check saw nothing")
	}
}

// TestCloneIsIndependent mutates a clone the way the allocation pass
// does and checks the original is untouched.
func TestCloneIsIndependent(t *testing.T) {
	p, _ := bench.ByName("fir_32_1")
	prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := prep.IR().String()
	q := prep.IR().Clone()
	for _, s := range q.Symbols() {
		s.Addr += 100
		s.Duplicated = true
	}
	for _, f := range q.Funcs {
		f.SavedRegs += 99
		for _, b := range f.Blocks {
			b.ExecCount = 7
			b.Ops = append(b.Ops[:0:0], b.Ops...)
			for _, op := range b.Ops {
				op.Atomic = true
			}
		}
	}
	if prep.IR().String() != before {
		t.Fatal("mutating the clone changed the original's printed IR")
	}
	for _, s := range prep.IR().Symbols() {
		if s.Addr != 0 || s.Duplicated {
			t.Fatalf("symbol %s changed through the clone", s.Name)
		}
	}
	for _, f := range prep.IR().Funcs {
		if f.SavedRegs >= 99 {
			t.Fatalf("func %s save count changed through the clone", f.Name)
		}
		for _, b := range f.Blocks {
			if b.ExecCount != 0 {
				t.Fatalf("%s %s: exec count changed through the clone", f.Name, b)
			}
			for _, op := range b.Ops {
				if op.Atomic {
					t.Fatalf("%s %s: op changed through the clone", f.Name, b)
				}
			}
		}
	}
}
