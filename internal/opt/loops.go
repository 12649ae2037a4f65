package opt

import (
	"slices"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// This file implements the loop-shaping passes that let compacted code
// exploit the architecture's low-overhead looping hardware (the DO/REP
// mechanism of Figure 1):
//
//   - mergeBlocks collapses straight-line block chains, so a loop body
//     and its increment block become one schedulable region.
//   - rotateLoops turns while-shaped loops into do-while shape by
//     copying the (pure, register-only) header test into the backedge
//     block; the original header remains as the entry guard.
//   - hardwareLoops rewrites counted loops to OpDo/OpEndDo so the
//     per-iteration compare-and-branch chain disappears: the loop-end
//     test is performed by the loop hardware and packs into any
//     instruction with a free PCU slot.

// ShapeLoops runs the loop passes to a fixed point and renumbers the
// blocks. Run calls it with the tables it already holds.
func ShapeLoops(f *ir.Func) { new(Tables).shapeLoops(f) }

func (t *Tables) shapeLoops(f *ir.Func) {
	for round := 0; round < 16; round++ {
		changed := t.foldBranches(f)
		changed = mergeBlocks(f) || changed
		changed = t.rotateLoops(f) || changed
		changed = mergeBlocks(f) || changed
		changed = t.hardwareLoops(f) || changed
		if !changed {
			break
		}
	}
	renumber(f)
}

// foldBranches rewrites conditional branches whose condition is a
// known constant (for example the entry guard of a constant-trip-count
// loop after rotation) into unconditional branches. Only constants
// defined in the entry block or earlier in the same block are used, so
// the definition is guaranteed to execute first.
func (t *Tables) foldBranches(f *ir.Func) bool {
	defs := t.regDefs(f)
	changed := false
	for _, b := range f.Blocks {
		term := b.Terminator()
		if term == nil || term.Kind != ir.OpCondBr {
			continue
		}
		d := &defs[term.Args[0]]
		if !d.isConst() {
			continue
		}
		if d.blk != f.Entry() && d.blk != b {
			continue
		}
		taken, dead := b.Succs[0], b.Succs[1]
		if d.val == 0 {
			taken, dead = dead, taken
		}
		term.Kind = ir.OpBr
		term.Args[0] = ir.NoReg
		b.Succs = []*ir.Block{taken}
		if dead != taken {
			removePred(dead, b)
		}
		changed = true
	}
	if changed {
		t.removeUnreachable(f)
		renumber(f)
	}
	return changed
}

func renumber(f *ir.Func) {
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// mergeBlocks merges B -> S whenever B ends in an unconditional branch
// to S and S has no other predecessor.
func mergeBlocks(f *ir.Func) bool {
	changed := false
	for {
		merged := false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Kind != ir.OpBr {
				continue
			}
			s := b.Succs[0]
			if s == b || len(s.Preds) != 1 {
				continue
			}
			// Merge: drop the branch, absorb S. A single-pred block
			// executes exactly as often as its predecessor, so the
			// merged block keeps B's loop depth (absorbing a loop
			// guard into straight-line code must not inflate the
			// edge-weight heuristic).
			b.Ops = append(b.Ops[:len(b.Ops)-1], s.Ops...)
			b.Succs = s.Succs
			for _, ss := range s.Succs {
				for i, p := range ss.Preds {
					if p == s {
						ss.Preds[i] = b
					}
				}
			}
			// Remove S from the block list.
			for i, blk := range f.Blocks {
				if blk == s {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			merged = true
			changed = true
			break
		}
		if !merged {
			renumber(f)
			return changed
		}
	}
}

// usedOutside fills t.used with the registers used in any block other
// than home.
func (t *Tables) usedOutside(f *ir.Func, home *ir.Block) {
	t.used.reset(f.NumRegs())
	for _, b := range f.Blocks {
		if b == home {
			continue
		}
		for _, op := range b.Ops {
			for _, u := range t.uses(op) {
				t.used.add(int(u))
			}
		}
	}
}

// rotateLoops converts while-shaped loops to do-while shape. A header
// H whose operations are all pure register computations ending in a
// conditional branch is copied into every backedge block, which then
// branches directly to the body or the exit. H keeps its original code
// and becomes the entry guard, executed once.
func (t *Tables) rotateLoops(f *ir.Func) bool {
	changed := false
	for _, h := range f.Blocks {
		term := h.Terminator()
		if term == nil || term.Kind != ir.OpCondBr || len(h.Ops) > 8 {
			continue
		}
		// Split predecessors into entries (earlier blocks) and
		// backedges (later blocks ending in an unconditional branch).
		// The front-end lowers loops with the preheader created before
		// the header, so block order distinguishes the two.
		entries := 0
		backs := t.blocks[:0]
		ok := true
		for _, p := range h.Preds {
			if p.ID < h.ID {
				entries++
				continue
			}
			bt := p.Terminator()
			if bt == nil || bt.Kind != ir.OpBr || p == h {
				ok = false
				break
			}
			backs = append(backs, p)
		}
		t.blocks = backs
		if !ok || entries != 1 || len(backs) == 0 {
			continue
		}
		// All header ops must be pure register computations, and the
		// registers they define must not be consumed outside H.
		pure := true
		for _, op := range h.Ops[:len(h.Ops)-1] {
			cls := op.Kind.Class()
			if cls != machine.ClassInteger && cls != machine.ClassFloat {
				pure = false
				break
			}
		}
		if !pure {
			continue
		}
		t.usedOutside(f, h)
		defsOK := true
		for _, op := range h.Ops {
			if op.Dst != ir.NoReg && t.used.has(int(op.Dst)) {
				defsOK = false
				break
			}
		}
		if !defsOK {
			continue
		}
		body, exit := h.Succs[0], h.Succs[1]
		if body == h || exit == h {
			continue
		}
		for _, l := range backs {
			// Replace L's branch with a copy of H's computation and
			// conditional branch.
			l.Ops = l.Ops[:len(l.Ops)-1]
			for _, op := range h.Ops {
				cp := *op
				l.Ops = append(l.Ops, &cp)
			}
			l.Succs = []*ir.Block{body, exit}
			removePred(h, l)
			body.Preds = append(body.Preds, l)
			exit.Preds = append(exit.Preds, l)
		}
		changed = true
	}
	return changed
}

func removePred(b, p *ir.Block) {
	for i, x := range b.Preds {
		if x == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			return
		}
	}
}

// hardwareLoops rewrites counted loops to the DO/ENDDO hardware. See
// the file comment; the recognized shape, produced by mergeBlocks and
// rotateLoops, is a natural loop whose single exit is a backedge block
// ending in
//
//	i = i ± 1; t = i <cmp> n; condbr t (head, exit)
//
// with i updated exactly once per iteration, n loop-invariant, and t
// consumed only by the branch. The trip count (guaranteed positive by
// the rotation guard) is materialized in a new preheader that ends in
// OpDo; the compare and branch are deleted and the backedge block ends
// in OpEndDo, which the loop hardware evaluates for free.
//
// A branch whose target does not dominate it closes no loop (an if,
// not a backedge), so it is skipped before naturalLoop would walk from
// it back to the function entry. Every other candidate's natural loop
// is collected in t.loop. Both are indexed by Block.ID: the IDs are
// dense here because mergeBlocks renumbers the blocks just before this
// pass runs, and the pass returns at its first change.
func (t *Tables) hardwareLoops(f *ir.Func) bool {
	defs := t.regDefs(f)
	loop := &t.loop
	t.dom.build(f)
	for _, l := range f.Blocks {
		term := l.Terminator()
		if term == nil || term.Kind != ir.OpCondBr {
			continue
		}
		head, exit := l.Succs[0], l.Succs[1]
		if !t.dom.dominates(head, l) || !naturalLoop(f, head, l, loop) || loop.has(exit) {
			continue
		}
		// Single exit: only L leaves the loop, via its condbr.
		ok := true
		for _, b := range loop.members {
			for _, s := range b.Succs {
				if !loop.has(s) && !(b == l && s == exit) {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		// Find the compare defining the branch condition, in L, with
		// the condition register used only by the branch.
		cmpIdx := -1
		for i := len(l.Ops) - 2; i >= 0; i-- {
			if l.Ops[i].Dst == term.Args[0] {
				cmpIdx = i
				break
			}
		}
		if cmpIdx < 0 {
			continue
		}
		cmp := l.Ops[cmpIdx]
		// Deleting the compare must not orphan any other use of the
		// condition register. After rotation the entry guard holds its
		// own copy of the compare, so the register appears in several
		// blocks; it is safe as long as every use is preceded by a
		// definition in its own block.
		if !t.selfContainedUses(f, term.Args[0], l, cmpIdx) {
			continue
		}
		var down bool
		switch cmp.Kind {
		case ir.OpSetLT, ir.OpSetLE:
			down = false
		case ir.OpSetGT, ir.OpSetGE:
			down = true
		default:
			continue
		}
		iReg, nReg := cmp.Args[0], cmp.Args[1]
		if iReg == nReg {
			continue
		}
		// n must be loop-invariant.
		if definedIn(loop, nReg) {
			continue
		}
		// i must be updated exactly once in the loop, in L before the
		// compare, by adding or subtracting a constant 1.
		updIdx := -1
		count := 0
		for _, b := range loop.members {
			for i, op := range b.Ops {
				if op.Dst == iReg {
					count++
					if b == l && i < cmpIdx {
						updIdx = i
					}
				}
			}
		}
		if count != 1 || updIdx < 0 {
			continue
		}
		upd := l.Ops[updIdx]
		if step := &defs[upd.Args[1]]; !step.isConst() || step.val != 1 || upd.Args[0] != iReg {
			continue
		}
		switch {
		case upd.Kind == ir.OpAdd && !down:
		case upd.Kind == ir.OpSub && down:
		default:
			continue
		}
		// The loop must be entered through exactly one outside edge,
		// so its header cannot be the function entry.
		var entry *ir.Block
		ok = true
		for _, p := range head.Preds {
			if loop.has(p) {
				continue
			}
			if entry != nil {
				ok = false
			}
			entry = p
		}
		if !ok || entry == nil {
			continue
		}

		// Build the preheader computing the trip count:
		//   up,   i<n: n-i      i<=n: n-i+1
		//   down, i>n: i-n      i>=n: i-n+1
		ph := f.NewBlock()
		ph.LoopDepth = head.LoopDepth - 1
		if ph.LoopDepth < 0 {
			ph.LoopDepth = 0
		}
		cnt := f.NewReg(ir.TInt)
		a, b := nReg, iReg
		if down {
			a, b = iReg, nReg
		}
		ph.Ops = append(ph.Ops, &ir.Op{Kind: ir.OpSub, Type: ir.TInt, Dst: cnt, Args: [2]ir.Reg{a, b}})
		if cmp.Kind == ir.OpSetLE || cmp.Kind == ir.OpSetGE {
			one := f.NewReg(ir.TInt)
			cnt2 := f.NewReg(ir.TInt)
			ph.Ops = append(ph.Ops,
				&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: one, Imm: 1},
				&ir.Op{Kind: ir.OpAdd, Type: ir.TInt, Dst: cnt2, Args: [2]ir.Reg{cnt, one}})
			cnt = cnt2
		}
		ph.Ops = append(ph.Ops, &ir.Op{Kind: ir.OpDo, Args: [2]ir.Reg{cnt}})
		ph.Succs = []*ir.Block{head}

		// Rewire entry -> ph -> head.
		for i, s := range entry.Succs {
			if s == head {
				entry.Succs[i] = ph
			}
		}
		ph.Preds = []*ir.Block{entry}
		for i, p := range head.Preds {
			if p == entry {
				head.Preds[i] = ph
			}
		}

		// Delete the compare; turn the branch into ENDDO.
		l.Ops = append(l.Ops[:cmpIdx], l.Ops[cmpIdx+1:]...)
		term.Kind = ir.OpEndDo
		term.Args[0] = ir.NoReg

		renumber(f)
		return true // structure changed; caller re-runs
	}
	return false
}

// blockSet is a set of blocks indexed by Block.ID, for a function
// whose block IDs are dense; members lists the blocks in the order they
// were added.
type blockSet struct {
	in      marks
	members []*ir.Block
}

// reset empties the set for a function of n blocks.
func (s *blockSet) reset(n int) {
	s.in.reset(n)
	s.members = s.members[:0]
}

func (s *blockSet) has(b *ir.Block) bool { return s.in.has(b.ID) }

func (s *blockSet) add(b *ir.Block) {
	s.in.add(b.ID)
	s.members = append(s.members, b)
}

// dominators is a function's dominator tree, for a function whose
// block IDs are dense: the blocks reachable from the entry in reverse
// postorder, each one's position in that order, and each position's
// immediate dominator.
type dominators struct {
	order []*ir.Block
	pos   []int32 // by Block.ID; -1 when unreachable
	idom  []int32 // by position; the entry is its own
	stack []domFrame
}

// domFrame is one block of the depth-first walk and the index of its
// next successor to visit.
type domFrame struct {
	b    *ir.Block
	next int
}

// build computes f's dominator tree by Cooper, Harvey and Kennedy's
// iterative algorithm over the reverse postorder, which settles in two
// sweeps on reducible control flow.
func (d *dominators) build(f *ir.Func) {
	n := len(f.Blocks)
	d.pos = fit(d.pos, n)
	pos := d.pos[:n]
	for i := range pos {
		pos[i] = -1
	}
	// Depth-first from the entry, marking a block on discovery; the
	// postorder is collected in order, then reversed.
	post := d.order[:0]
	entry := f.Entry()
	pos[entry.ID] = 0
	stack := append(d.stack[:0], domFrame{b: entry})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if pos[s.ID] < 0 {
				pos[s.ID] = 0
				stack = append(stack, domFrame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	d.stack = stack
	slices.Reverse(post)
	d.order = post
	for i, b := range post {
		pos[b.ID] = int32(i)
	}
	d.idom = fit(d.idom, len(post))
	idom := d.idom[:len(post)]
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(post); i++ {
			next := int32(-1)
			for _, p := range post[i].Preds {
				q := pos[p.ID]
				if q < 0 || idom[q] < 0 {
					continue // unreachable, or not reached yet this sweep
				}
				if next < 0 {
					next = q
					continue
				}
				for q != next {
					for q > next {
						q = idom[q]
					}
					for next > q {
						next = idom[next]
					}
				}
			}
			if idom[i] != next {
				idom[i] = next
				changed = true
			}
		}
	}
}

// dominates reports whether every path from the entry to b passes
// through a. Every block dominates an unreachable one.
func (d *dominators) dominates(a, b *ir.Block) bool {
	q := d.pos[b.ID]
	if q < 0 {
		return true
	}
	p := d.pos[a.ID]
	if p < 0 {
		return false
	}
	for q > p {
		q = d.idom[q]
	}
	return q == p
}

// naturalLoop fills loop with the blocks of f's natural loop with
// header head and backedge block tail (tail -> head): head, tail, and
// every block that reaches tail without passing through head, in
// breadth-first order from tail. It reports false, leaving loop
// partial, when the walk takes more than 10,000 steps.
func naturalLoop(f *ir.Func, head, tail *ir.Block, loop *blockSet) bool {
	loop.reset(len(f.Blocks))
	loop.add(head)
	if tail != head {
		loop.add(tail)
	}
	steps := 0
	for i := 0; i < len(loop.members); i++ {
		b := loop.members[i]
		if b == head {
			continue
		}
		for _, p := range b.Preds {
			if !loop.has(p) {
				loop.add(p)
			}
		}
		if steps++; steps > 10000 {
			return false
		}
	}
	return true
}

func definedIn(loop *blockSet, r ir.Reg) bool {
	for _, b := range loop.members {
		for _, op := range b.Ops {
			if op.Dst == r {
				return true
			}
		}
	}
	return false
}

// selfContainedUses reports whether every use of r is preceded by a
// definition of r earlier in the same block, and that within block
// `home` the only use after position defIdx is the terminator. This
// makes deleting home's definition at defIdx safe.
func (t *Tables) selfContainedUses(f *ir.Func, r ir.Reg, home *ir.Block, defIdx int) bool {
	for _, b := range f.Blocks {
		defined := false
		for i, op := range b.Ops {
			for _, u := range t.uses(op) {
				if u != r {
					continue
				}
				if !defined {
					return false
				}
				if b == home && !op.Kind.IsTerminator() {
					return false
				}
			}
			if op.Dst == r {
				if b == home && i != defIdx {
					return false
				}
				defined = true
			}
		}
	}
	return true
}
