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
