package opt

import "dualbank/internal/ir"

// BlockLocal runs the block-local passes, constant and copy propagation
// and redundant-load elimination, over every block of f.
func (t *Tables) BlockLocal(f *ir.Func) {
	for _, b := range f.Blocks {
		t.localConstAndCopy(f, b)
		t.redundantLoadElim(f, b)
	}
}

// TablesSource is a program with many registers, nested and counted
// loops, constants, copies and repeated loads in its function big.
const TablesSource = tablesGlobals + bigFunc + smallFunc + tablesMain

// HeldIR counts the IR pointers t's scratch holds, over each slice's
// whole capacity.
func (t *Tables) HeldIR() int {
	n := nonNil(t.ops) + nonNil(t.blocks) + nonNil(t.loop.members) + nonNil(t.dom.order)
	for _, e := range t.avail[:cap(t.avail)] {
		if e.sym != nil {
			n++
		}
	}
	for _, d := range t.defs[:cap(t.defs)] {
		if d.blk != nil {
			n++
		}
	}
	for _, f := range t.dom.stack[:cap(t.dom.stack)] {
		if f.b != nil {
			n++
		}
	}
	return n
}

// nonNil counts the non-nil pointers over s's whole capacity.
func nonNil[T any](s []*T) int {
	n := 0
	for _, p := range s[:cap(s)] {
		if p != nil {
			n++
		}
	}
	return n
}
