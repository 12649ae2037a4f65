// Package opt implements the machine-independent optimizations the
// paper's back-end applies before data allocation and compaction:
// local constant folding and propagation, copy propagation, move
// coalescing, multiply-accumulate fusion, loop-invariant constant
// hoisting, dead-code elimination, and unreachable-block removal.
//
// The passes are deliberately local (basic-block scoped) where the
// paper's compaction machinery is local; the global passes (DCE,
// unreachable-block removal, constant hoisting) are conservative.
package opt

import (
	"slices"

	"dualbank/internal/ir"
)

// Options selects which optimizations run.
type Options struct {
	// NoMACFusion disables multiply-accumulate fusion; used by ablation
	// benchmarks.
	NoMACFusion bool
	// NoConstHoist disables loop-invariant constant hoisting.
	NoConstHoist bool
	// NoLoopShaping disables block merging, loop rotation and
	// hardware-loop conversion; used by ablation benchmarks.
	NoLoopShaping bool
	// NoStrengthReduce disables derived-induction-variable rewriting
	// (the software analogue of post-increment addressing).
	NoStrengthReduce bool
}

// Run applies the optimization pipeline to every function in p. The
// IR must be verified: block IDs equal their index, as lowering makes
// them.
func Run(p *ir.Program, o Options) { new(Tables).Run(p, o) }

// Run is the package-level Run on t's reusable tables.
func (t *Tables) Run(p *ir.Program, o Options) {
	for _, f := range p.Funcs {
		t.run(f, o)
	}
}

func (t *Tables) run(f *ir.Func, o Options) {
	t.removeUnreachable(f)
	for i := 0; i < 2; i++ {
		for _, b := range f.Blocks {
			t.localConstAndCopy(f, b)
			t.redundantLoadElim(f, b)
		}
		t.coalesceMoves(f)
		t.deadCodeElim(f)
	}
	if !o.NoMACFusion {
		t.fuseMAC(f)
	}
	if !o.NoConstHoist {
		t.hoistLoopConstants(f)
	}
	t.deadCodeElim(f)
	if !o.NoLoopShaping {
		t.shapeLoops(f)
		if !o.NoStrengthReduce {
			t.strengthReduce(f)
		}
		for _, b := range f.Blocks {
			t.localConstAndCopy(f, b)
			t.redundantLoadElim(f, b)
		}
		t.coalesceMoves(f)
		t.deadCodeElim(f)
		// Constant propagation may just have turned a loop entry
		// guard into a constant branch (constant trip counts);
		// another shaping round folds it and merges the remnants.
		t.shapeLoops(f)
		t.deadCodeElim(f)
	}
	t.removeUnreachable(f)
}

// removeUnreachable deletes blocks not reachable from the entry and
// renumbers the remainder.
func (t *Tables) removeUnreachable(f *ir.Func) {
	t.reach.reset(len(f.Blocks))
	t.reach.add(f.Entry().ID)
	stack := append(t.blocks[:0], f.Entry())
	reached := 1
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !t.reach.has(s.ID) {
				t.reach.add(s.ID)
				reached++
				stack = append(stack, s)
			}
		}
	}
	t.blocks = stack
	if reached == len(f.Blocks) {
		return
	}
	// Filter before renumbering: the marks are indexed by the old IDs.
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !t.reach.has(b.ID) {
			continue
		}
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if t.reach.has(p.ID) {
				preds = append(preds, p)
			}
		}
		b.Preds = preds
		kept = append(kept, b)
	}
	f.Blocks = kept
	renumber(f)
}

type constVal struct {
	isFloat bool
	i       int64
	fl      float64
}

// localConstAndCopy performs block-local constant and copy propagation
// plus integer constant folding.
func (t *Tables) localConstAndCopy(f *ir.Func, b *ir.Block) {
	n := f.NumRegs()
	t.known.reset(n)
	t.copied.reset(n)
	t.konst = fit(t.konst, n)
	t.copySrc = fit(t.copySrc, n)
	t.copyGen = fit(t.copyGen, n)
	t.gen = fit(t.gen, n)

	resolve := func(r ir.Reg) ir.Reg {
		for t.copied.has(int(r)) && t.gen[t.copySrc[r]] == t.copyGen[r] {
			r = t.copySrc[r]
		}
		return r
	}
	// invalidate forgets what d held; bumping its generation retires
	// every copy of d.
	invalidate := func(d ir.Reg) {
		t.known.remove(int(d))
		t.copied.remove(int(d))
		t.gen[d]++
	}
	setConst := func(d ir.Reg, c constVal) {
		t.known.add(int(d))
		t.konst[d] = c
	}

	for _, op := range b.Ops {
		// Rewrite uses through the copies.
		for i, a := range op.Args {
			if a != ir.NoReg {
				op.Args[i] = resolve(a)
			}
		}
		if op.Idx != ir.NoReg {
			op.Idx = resolve(op.Idx)
		}
		for i, a := range op.CallArgs {
			op.CallArgs[i] = resolve(a)
		}

		// Integer constant folding.
		if folded, ok := t.foldInt(op); ok {
			invalidate(op.Dst)
			op.Kind = ir.OpConst
			op.Args = [2]ir.Reg{}
			op.Imm = folded
			setConst(op.Dst, constVal{i: folded})
			continue
		}

		if op.Dst != ir.NoReg {
			invalidate(op.Dst)
		}
		switch op.Kind {
		case ir.OpConst:
			setConst(op.Dst, constVal{i: op.Imm})
		case ir.OpFConst:
			setConst(op.Dst, constVal{isFloat: true, fl: op.FImm})
		case ir.OpMov:
			if src := op.Args[0]; src != op.Dst {
				t.copied.add(int(op.Dst))
				t.copySrc[op.Dst] = src
				t.copyGen[op.Dst] = t.gen[src]
			}
			if c, ok := t.constOf(op.Args[0]); ok {
				setConst(op.Dst, c)
			}
		case ir.OpCall:
			// Calls clobber nothing in the caller's register file under
			// the callee-save-everything convention, so constants and
			// copies survive.
		}
	}
}

// constOf returns r's constant value in localConstAndCopy's block.
func (t *Tables) constOf(r ir.Reg) (constVal, bool) {
	if !t.known.has(int(r)) {
		return constVal{}, false
	}
	return t.konst[r], true
}

// foldInt folds an integer operation whose operands are known
// constants. It returns the folded value and true on success.
func (t *Tables) foldInt(op *ir.Op) (int64, bool) {
	bin := func() (int32, int32, bool) {
		a, okA := t.constOf(op.Args[0])
		b, okB := t.constOf(op.Args[1])
		if !okA || !okB || a.isFloat || b.isFloat {
			return 0, 0, false
		}
		return int32(a.i), int32(b.i), true
	}
	switch op.Kind {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT,
		ir.OpSetLE, ir.OpSetGT, ir.OpSetGE:
		a, b, ok := bin()
		if !ok {
			return 0, false
		}
		return int64(evalIntBin(op.Kind, a, b)), true
	case ir.OpDiv, ir.OpRem:
		a, b, ok := bin()
		if !ok || b == 0 {
			return 0, false
		}
		return int64(evalIntBin(op.Kind, a, b)), true
	case ir.OpNeg:
		if a, ok := t.constOf(op.Args[0]); ok && !a.isFloat {
			return int64(-int32(a.i)), true
		}
	case ir.OpNot:
		if a, ok := t.constOf(op.Args[0]); ok && !a.isFloat {
			return int64(^int32(a.i)), true
		}
	}
	return 0, false
}

// evalIntBin defines the integer semantics of the model architecture:
// 32-bit two's-complement wraparound, arithmetic right shift, shift
// counts masked to 5 bits. The simulator uses the same function, so
// folding can never change program behaviour.
func evalIntBin(k ir.OpKind, a, b int32) int32 {
	switch k {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		return a / b
	case ir.OpRem:
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (uint32(b) & 31)
	case ir.OpShr:
		return a >> (uint32(b) & 31)
	case ir.OpSetEQ:
		return b2i(a == b)
	case ir.OpSetNE:
		return b2i(a != b)
	case ir.OpSetLT:
		return b2i(a < b)
	case ir.OpSetLE:
		return b2i(a <= b)
	case ir.OpSetGT:
		return b2i(a > b)
	case ir.OpSetGE:
		return b2i(a >= b)
	}
	panic("opt: evalIntBin on " + k.String())
}

// EvalIntBin exposes the architecture's integer semantics to the
// simulator.
func EvalIntBin(k ir.OpKind, a, b int32) int32 { return evalIntBin(k, a, b) }

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// redundantLoadElim removes block-local redundant memory accesses: a
// load of the same symbol through the same (un-redefined) index
// register as an earlier load or store is replaced by a register copy.
// Besides being a standard optimization, this keeps a pair of loads of
// the *same address* from being mistaken for a simultaneous same-array
// access and triggering a needless duplication mark.
func (t *Tables) redundantLoadElim(f *ir.Func, b *ir.Block) {
	t.avail = t.avail[:0]
	t.named.reset(f.NumRegs())
	for _, op := range b.Ops {
		switch op.Kind {
		case ir.OpLoad:
			sym, idx := op.Sym, op.Idx
			if v, hit := t.availValue(sym, idx); hit {
				op.Kind = ir.OpMov
				op.Args[0] = v
				op.Sym = nil
				op.Idx = ir.NoReg
			}
			t.killReg(op.Dst)
			// If the destination doubles as the index register, the
			// index value is gone and the address can no longer be
			// named.
			if idx != op.Dst {
				t.setAvail(sym, idx, op.Dst)
			}
			continue
		case ir.OpStore:
			t.killSym(op.Sym)
			t.setAvail(op.Sym, op.Idx, op.Args[0]) // store-to-load forwarding
			continue
		case ir.OpCall:
			t.avail = t.avail[:0]
			t.named.reset(0)
			continue
		}
		if op.Dst != ir.NoReg {
			t.killReg(op.Dst)
		}
	}
}

// availEntry records that val holds sym[idx].
type availEntry struct {
	sym      *ir.Symbol
	idx, val ir.Reg
}

func (t *Tables) availValue(sym *ir.Symbol, idx ir.Reg) (ir.Reg, bool) {
	for _, e := range t.avail {
		if e.sym == sym && e.idx == idx {
			return e.val, true
		}
	}
	return ir.NoReg, false
}

func (t *Tables) setAvail(sym *ir.Symbol, idx, val ir.Reg) {
	t.named.add(int(idx))
	t.named.add(int(val))
	for i := range t.avail {
		if e := &t.avail[i]; e.sym == sym && e.idx == idx {
			e.val = val
			return
		}
	}
	t.avail = append(t.avail, availEntry{sym, idx, val})
}

// killReg drops every entry that names r, as index or as value.
func (t *Tables) killReg(r ir.Reg) {
	if !t.named.has(int(r)) {
		return
	}
	kept := t.avail[:0]
	for _, e := range t.avail {
		if e.val != r && e.idx != r {
			kept = append(kept, e)
		}
	}
	t.avail = kept
}

// killSym drops every entry of sym.
func (t *Tables) killSym(sym *ir.Symbol) {
	kept := t.avail[:0]
	for _, e := range t.avail {
		if e.sym != sym {
			kept = append(kept, e)
		}
	}
	t.avail = kept
}

// coalesceMoves fuses `d = op ...; s = mov d` pairs where d has exactly
// one use, rewriting the defining op to target s directly. This removes
// the copies that compound assignments and accumulators introduce.
func (t *Tables) coalesceMoves(f *ir.Func) {
	counts := t.useCounts(f)
	for _, b := range f.Blocks {
		for i := 0; i+1 < len(b.Ops); i++ {
			op, nxt := b.Ops[i], b.Ops[i+1]
			if nxt.Kind != ir.OpMov || op.Dst == ir.NoReg || nxt.Args[0] != op.Dst {
				continue
			}
			if counts[op.Dst] != 1 {
				continue
			}
			// A multiply-accumulate implicitly reads its destination, so
			// retargeting would change which accumulator is read.
			if op.Kind == ir.OpMac || op.Kind == ir.OpFMac {
				continue
			}
			if op.Kind == ir.OpCall {
				continue
			}
			op.Dst = nxt.Dst
			nxt.Kind = ir.OpMov
			nxt.Args[0] = nxt.Dst // becomes a self-move; DCE removes it
		}
	}
	// Delete self-moves.
	for _, b := range f.Blocks {
		out := b.Ops[:0]
		for _, op := range b.Ops {
			if op.Kind == ir.OpMov && op.Args[0] == op.Dst {
				continue
			}
			out = append(out, op)
		}
		b.Ops = out
	}
}

// fuseMAC rewrites  t = mul a,b ; s = add s,t  (or add t,s) into a
// single multiply-accumulate when t has no other use and a, b, s are
// not redefined in between. This is the accumulator idiom at the heart
// of the FIR example in Figure 1.
func (t *Tables) fuseMAC(f *ir.Func) {
	counts := t.useCounts(f)
	for _, b := range f.Blocks {
		defsBetween := func(from, to int, r ir.Reg) bool {
			for j := from + 1; j < to; j++ {
				if b.Ops[j].Dst == r {
					return true
				}
			}
			return false
		}
		for i, op := range b.Ops {
			var addK, macK ir.OpKind
			switch op.Kind {
			case ir.OpMul:
				addK, macK = ir.OpAdd, ir.OpMac
			case ir.OpFMul:
				addK, macK = ir.OpFAdd, ir.OpFMac
			default:
				continue
			}
			t := op.Dst
			if counts[t] != 1 {
				continue
			}
			for j := i + 1; j < len(b.Ops); j++ {
				cand := b.Ops[j]
				if cand.Kind != addK {
					// Stop the search if t's operands or t itself are
					// redefined before we find the add.
					if cand.Dst == t || cand.Dst == op.Args[0] || cand.Dst == op.Args[1] {
						break
					}
					continue
				}
				var acc ir.Reg
				switch {
				case cand.Args[0] == t && cand.Args[1] != t:
					acc = cand.Args[1]
				case cand.Args[1] == t && cand.Args[0] != t:
					acc = cand.Args[0]
				default:
					continue
				}
				if cand.Dst != acc {
					continue // not an accumulator update
				}
				if defsBetween(i, j, op.Args[0]) || defsBetween(i, j, op.Args[1]) || defsBetween(i, j, acc) {
					break
				}
				// Fuse: cand becomes mac acc += a*b; the mul becomes a
				// self-move that DCE removes.
				cand.Kind = macK
				cand.Args = op.Args
				op.Kind = ir.OpMov
				op.Args = [2]ir.Reg{t}
				break
			}
		}
	}
	// Remove the self-moves left behind.
	for _, b := range f.Blocks {
		out := b.Ops[:0]
		for _, op := range b.Ops {
			if op.Kind == ir.OpMov && op.Args[0] == op.Dst {
				continue
			}
			out = append(out, op)
		}
		b.Ops = out
	}
}

// hoistLoopConstants moves constant definitions whose block is inside a
// loop to the function entry, deduplicating by value. Constants are
// pure and their registers are single-assignment after the hoist, so
// this is always safe; it frees loop instruction slots at the price of
// register pressure (spills land on the partitioned stacks).
func (t *Tables) hoistLoopConstants(f *ir.Func) {
	n := f.NumRegs()
	redef := t.clearedCounts(n) // defs per register
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Dst != ir.NoReg {
				redef[op.Dst]++
			}
		}
	}
	if t.pooled == nil {
		t.pooled = make(map[constKey]ir.Reg)
	}
	clear(t.pooled)
	t.repl.reset(n)
	t.replTo = fit(t.replTo, n)
	hoisted := t.ops[:0]
	replaced := false

	for _, b := range f.Blocks {
		if b.LoopDepth == 0 {
			continue
		}
		out := b.Ops[:0]
		for _, op := range b.Ops {
			if (op.Kind == ir.OpConst || op.Kind == ir.OpFConst) && redef[op.Dst] == 1 {
				k := constKey{kind: op.Kind, imm: op.Imm, fimm: op.FImm}
				if r, ok := t.pooled[k]; ok {
					t.repl.add(int(op.Dst))
					t.replTo[op.Dst] = r
					replaced = true
				} else {
					t.pooled[k] = op.Dst
					hoisted = append(hoisted, op)
				}
				continue
			}
			out = append(out, op)
		}
		b.Ops = out
	}
	t.ops = hoisted
	if len(hoisted) == 0 && !replaced {
		return
	}
	entry := f.Entry()
	entry.Ops = slices.Concat(hoisted, entry.Ops)
	if !replaced {
		return
	}
	replace := func(r ir.Reg) ir.Reg {
		if t.repl.has(int(r)) {
			return t.replTo[r]
		}
		return r
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for i, a := range op.Args {
				op.Args[i] = replace(a)
			}
			op.Idx = replace(op.Idx)
			for i, a := range op.CallArgs {
				op.CallArgs[i] = replace(a)
			}
		}
	}
}

// constKey is a constant definition's value, the key constants are
// pooled by.
type constKey struct {
	kind ir.OpKind
	imm  int64
	fimm float64
}

// deadCodeElim removes pure operations whose results are never used.
// It counts uses once and lowers the counts as it removes ops, sweeping
// until a sweep removes nothing: removing an op only lowers counts, so
// every order reaches the same fixed point.
func (t *Tables) deadCodeElim(f *ir.Func) {
	counts := t.useCounts(f)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			out := b.Ops[:0]
			for _, op := range b.Ops {
				if isPure(op) && op.Dst != ir.NoReg && counts[op.Dst] == 0 {
					for _, r := range t.uses(op) {
						counts[r]--
					}
					changed = true
					continue
				}
				out = append(out, op)
			}
			b.Ops = out
		}
	}
}

func isPure(op *ir.Op) bool {
	switch op.Kind {
	case ir.OpStore, ir.OpCall, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpLoad:
		// Loads are pure in effect, but removing one never helps after
		// lowering and keeping them makes memory-traffic accounting
		// honest; still, an unused load's result is dead weight, so
		// allow elimination.
		return op.Kind == ir.OpLoad
	}
	return true
}
