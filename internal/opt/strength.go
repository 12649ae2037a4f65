package opt

import (
	"slices"

	"dualbank/internal/ir"
)

// strengthReduce rewrites derived induction variables in single-block
// loops. An address computation like `a = n + k` (or `a = i*cols`)
// inside a loop over k keeps every dependent memory access one cycle
// behind its address arithmetic; rewriting it to an initial value in
// the preheader plus a step update at the bottom of the loop body
// turns the dependence into an anti-dependence, which costs nothing on
// a VLIW (the update shares the access's instruction). This is the
// compiler analogue of the post-increment address registers that DSPs
// like the DSP56001 use (Figure 1's `X:(R0)+,X0`), executed here by
// the AU units, and it is what lets two array accesses become
// simultaneously data-ready — the precondition for both interference
// edges and duplication marks.
func (t *tables) strengthReduce(f *ir.Func) bool {
	changed := false
	for _, l := range f.Blocks {
		term := l.Terminator()
		if term == nil {
			continue
		}
		selfLoop := false
		switch term.Kind {
		case ir.OpEndDo, ir.OpCondBr:
			selfLoop = len(l.Succs) == 2 && l.Succs[0] == l
		}
		if !selfLoop {
			continue
		}
		// Single outside predecessor = the preheader.
		var pre *ir.Block
		ok := true
		for _, p := range l.Preds {
			if p == l {
				continue
			}
			if pre != nil {
				ok = false
			}
			pre = p
		}
		if !ok || pre == nil || len(pre.Ops) == 0 {
			continue
		}
		if t.reduceLoop(f, pre, l) {
			changed = true
		}
	}
	return changed
}

// census counts one register's definitions inside and outside a
// self-loop block, and its uses outside it.
type census struct{ defsIn, defsOut, usesOut int32 }

// induction describes a base induction variable of a self-loop.
type induction struct {
	step ir.Reg // per-iteration step (an invariant register)
	mul  ir.Reg // optional invariant factor: effective step = step*mul
}

// reduceLoop performs derived-induction rewriting for one self-loop
// block with its preheader.
func (t *tables) reduceLoop(f *ir.Func, pre, l *ir.Block) bool {
	// Global def/use census to establish invariance and locality. It
	// covers the registers that exist now: the rewrite below adds
	// registers only as operands of the ops it inserts, and the update
	// it inserts into l is skipped as an induction variable before its
	// operands are read, so the census is never read at a new register
	// (c has length n, so such a read would panic, not read stale data).
	n := f.NumRegs()
	t.census = fit(t.census, n)
	c := t.census[:n]
	clear(c)
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Dst != ir.NoReg {
				if b == l {
					c[op.Dst].defsIn++
				} else {
					c[op.Dst].defsOut++
				}
			}
			if b != l {
				for _, u := range t.uses(op) {
					c[u].usesOut++
				}
			}
		}
	}
	invariant := func(r ir.Reg) bool { return c[r].defsIn == 0 }

	// Loop-invariant code motion: hoist pure scalar operations whose
	// operands are all invariant (the rotation guard guarantees at
	// least one execution, so the hoisted op would have run anyway).
	// This exposes computations like i*n to the derivation below.
	usedBeforeDef := func(v ir.Reg, defIdx int) bool {
		for i := 0; i < defIdx; i++ {
			if slices.Contains(t.uses(l.Ops[i]), v) {
				return true
			}
		}
		return false
	}
	changedLICM := true
	for changedLICM {
		changedLICM = false
		for oi, op := range l.Ops {
			if op.Dst == ir.NoReg || c[op.Dst].defsIn != 1 || op.IsMem() ||
				op.Kind.IsTerminator() || op.Kind == ir.OpCall ||
				op.Kind == ir.OpDiv || op.Kind == ir.OpRem {
				continue
			}
			allInv := true
			for _, u := range t.uses(op) {
				if !invariant(u) {
					allInv = false
					break
				}
			}
			// A multiply-accumulate reads its own destination.
			if op.Kind == ir.OpMac || op.Kind == ir.OpFMac {
				allInv = false
			}
			if !allInv || usedBeforeDef(op.Dst, oi) {
				continue
			}
			l.Ops = append(l.Ops[:oi], l.Ops[oi+1:]...)
			insertBeforeTerm(pre, op)
			c[op.Dst].defsIn = 0
			c[op.Dst].defsOut++
			changedLICM = true
			break
		}
	}

	// Base induction variables: r = add r, s with s invariant, single
	// in-loop def.
	t.ind.reset(n)
	t.indOf = fit(t.indOf, n)
	isInd := func(r ir.Reg) bool { return t.ind.has(int(r)) }
	setInd := func(r ir.Reg, i induction) {
		t.ind.add(int(r))
		t.indOf[r] = i
	}
	found := false
	for _, op := range l.Ops {
		if op.Kind == ir.OpAdd && op.Dst == op.Args[0] && c[op.Dst].defsIn == 1 && invariant(op.Args[1]) {
			setInd(op.Dst, induction{step: op.Args[1]})
			found = true
		}
	}
	if !found {
		return false
	}

	changed := false
	// One rewrite per round, rescanning after each; the bound covers
	// bodies with many derived addresses (e.g. several d[2s], d[2s+1]
	// computations per iteration).
	for round := 0; round < 24; round++ {
		progressed := false
		for oi, op := range l.Ops {
			if op.Dst == ir.NoReg || c[op.Dst].defsIn != 1 || c[op.Dst].usesOut != 0 {
				continue
			}
			if op.Kind != ir.OpAdd && op.Kind != ir.OpMul {
				continue
			}
			v := op.Dst
			if isInd(v) {
				continue
			}
			var base ir.Reg
			var other ir.Reg
			if isInd(op.Args[0]) && invariant(op.Args[1]) {
				base, other = op.Args[0], op.Args[1]
			} else if isInd(op.Args[1]) && invariant(op.Args[0]) {
				base, other = op.Args[1], op.Args[0]
			} else {
				continue
			}
			bind := t.indOf[base]
			// The base induction's update must come after this op (the
			// op must read the pre-increment value) and every use of v
			// must be inside the loop after this def.
			updIdx, defIdx := -1, oi
			for i, o := range l.Ops {
				if o.Dst == base && o.Kind == ir.OpAdd && o.Args[0] == base {
					updIdx = i
				}
			}
			if updIdx < defIdx {
				continue
			}
			if usedBeforeDef(v, defIdx) {
				continue
			}
			// A mul-derived induction needs a step multiplied by the
			// invariant factor; chain factors if the base already has
			// one.
			step := bind.step
			mulBy := bind.mul
			if op.Kind == ir.OpMul {
				if mulBy != ir.NoReg {
					// Fold the two factors in the preheader.
					m := f.NewReg(ir.TInt)
					insertBeforeTerm(pre, &ir.Op{Kind: ir.OpMul, Type: ir.TInt, Dst: m,
						Args: [2]ir.Reg{mulBy, other}})
					mulBy = m
				} else {
					mulBy = other
				}
			}
			// Effective step register, computed in the preheader.
			effStep := step
			if mulBy != ir.NoReg {
				es := f.NewReg(ir.TInt)
				insertBeforeTerm(pre, &ir.Op{Kind: ir.OpMul, Type: ir.TInt, Dst: es,
					Args: [2]ir.Reg{step, mulBy}})
				effStep = es
			}
			// Initial value in the preheader: same computation on the
			// entry values.
			init := *op
			insertBeforeTerm(pre, &init)
			// Replace the in-loop def with a step update at the bottom
			// of the body (before the terminator), so every use this
			// iteration sees the pre-step value.
			l.Ops = append(l.Ops[:oi], l.Ops[oi+1:]...)
			insertBeforeTerm(l, &ir.Op{Kind: ir.OpAdd, Type: ir.TInt, Dst: v,
				Args: [2]ir.Reg{v, effStep}})
			setInd(v, induction{step: effStep})
			c[v].defsIn = 1
			progressed = true
			changed = true
			break // op indices shifted; rescan
		}
		if !progressed {
			break
		}
	}
	return changed
}

func insertBeforeTerm(b *ir.Block, op *ir.Op) {
	n := len(b.Ops)
	b.Ops = append(b.Ops, nil)
	copy(b.Ops[n:], b.Ops[n-1:n])
	b.Ops[n-1] = op
}
