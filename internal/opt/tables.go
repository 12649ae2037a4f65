package opt

import "dualbank/internal/ir"

// Tables is the optimizer's register- and block-indexed scratch. Every
// pass borrows from one set, so a set is reused across a program's
// functions, their blocks, the fixed-point rounds and the loop-shaping
// rounds, and, held by a caller that optimizes many programs (a
// pipeline.Compiler), across programs. Indexes are virtual registers
// and Block.IDs (dense in verified IR); each pass sizes what it uses to
// the function when it starts, so the tables grow as passes add
// registers and blocks, and no pass reads what an earlier function or
// program left behind. Sets empty by epoch (marks), so nothing is
// cleared between blocks, functions or programs; count arrays are
// cleared by the pass that fills them. No IR the passes write points
// into the tables, and Run leaves them pointing at no IR. The zero
// value is ready to use; a Tables is not safe for concurrent use.
type Tables struct {
	buf    []ir.Reg    // Op.Uses scratch
	ops    []*ir.Op    // op list scratch
	blocks []*ir.Block // block list scratch

	counts []int32 // per-register use or definition counts

	// localConstAndCopy's block-local facts. A register is a known
	// constant while in known, and a copy of copySrc while in copied
	// and its source has not been redefined since: gen counts each
	// register's definitions, and copyGen holds the source's count
	// when the copy was made.
	known   marks
	konst   []constVal
	copied  marks
	copySrc []ir.Reg
	copyGen []uint32
	gen     []uint32

	// redundantLoadElim's available values; named holds every register
	// that may appear in avail, so redefining any other costs no scan.
	avail []availEntry
	named marks

	defs   []regDef   // per-register definition summary (regDefs)
	used   marks      // usedOutside
	reach  marks      // removeUnreachable, by Block.ID
	loop   blockSet   // hardwareLoops' candidate loop
	dom    dominators // hardwareLoops' branch filter
	census []census   // reduceLoop
	ind    marks      // reduceLoop's induction variables
	indOf  []induction

	// hoistLoopConstants: the hoisted constants by value, and the
	// hoisted register that replaces each duplicate's.
	pooled map[constKey]ir.Reg
	repl   marks
	replTo []ir.Reg
}

// release clears every slice of the tables that holds IR pointers,
// over its whole capacity, keeping the capacity.
func (t *Tables) release() {
	clear(t.ops[:cap(t.ops)])
	clear(t.blocks[:cap(t.blocks)])
	clear(t.avail[:cap(t.avail)])
	clear(t.defs[:cap(t.defs)])
	clear(t.loop.members[:cap(t.loop.members)])
	clear(t.dom.order[:cap(t.dom.order)])
	clear(t.dom.stack[:cap(t.dom.stack)])
}

// fit returns s with length at least n, keeping its contents; new
// entries are zero.
func fit[T any](s []T, n int) []T {
	if d := n - len(s); d > 0 {
		s = append(s, make([]T, d)...)
	}
	return s
}

// marks is a set over dense indexes that empties in O(1): an index is
// a member while its stamp equals the current epoch.
type marks struct {
	stamp []uint32
	epoch uint32
}

// reset empties the set and makes indexes below n addressable.
func (m *marks) reset(n int) {
	m.stamp = fit(m.stamp, n)
	m.epoch++
	if m.epoch == 0 { // wrapped: old stamps would match again
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *marks) has(i int) bool { return m.stamp[i] == m.epoch }
func (m *marks) add(i int)      { m.stamp[i] = m.epoch }
func (m *marks) remove(i int)   { m.stamp[i] = 0 }

// uses returns the registers op reads, in t.buf.
func (t *Tables) uses(op *ir.Op) []ir.Reg {
	t.buf = op.Uses(t.buf[:0])
	return t.buf
}

// useCounts returns, for each register, how many times it is read
// anywhere in the function. The slice is t.counts.
func (t *Tables) useCounts(f *ir.Func) []int32 {
	counts := t.clearedCounts(f.NumRegs())
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for _, r := range t.uses(op) {
				counts[r]++
			}
		}
	}
	return counts
}

// clearedCounts returns t.counts sized to n registers and zeroed.
func (t *Tables) clearedCounts(n int) []int32 {
	t.counts = fit(t.counts, n)
	counts := t.counts[:n]
	clear(counts)
	return counts
}

// regDef summarizes a register's definitions in one function: how many
// there are, and whether the last is an integer constant, its value
// and its block.
type regDef struct {
	n     int32
	konst bool
	val   int64
	blk   *ir.Block
}

// isConst reports whether the register has one definition and it is an
// integer constant.
func (d *regDef) isConst() bool { return d.n == 1 && d.konst }

// regDefs fills t.defs for f and returns it, indexed by register.
func (t *Tables) regDefs(f *ir.Func) []regDef {
	n := f.NumRegs()
	t.defs = fit(t.defs, n)
	defs := t.defs[:n]
	clear(defs)
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Dst == ir.NoReg {
				continue
			}
			d := &defs[op.Dst]
			d.n++
			d.konst = op.Kind == ir.OpConst
			d.val = op.Imm
			d.blk = b
		}
	}
	return defs
}
