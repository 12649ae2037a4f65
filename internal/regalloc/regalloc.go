// Package regalloc maps virtual registers onto the model machine's two
// 32-entry scalar register files (integer and floating-point) with a
// Chaitin/Briggs-style graph-colouring allocator. Because the target
// places no bank-related restrictions on register usage, register
// allocation and data partitioning are orthogonal problems (§2 of the
// paper); the allocator therefore runs before the data-allocation pass
// and simply contributes its spill and callee-save slots as ordinary
// partitionable stack data.
//
// Calling convention (see internal/lower): arguments arrive in the
// callee's static parameter slots, scalar results return in r1/f1, and
// every function saves and restores each physical register it writes
// (callee-save-everything). Colour choice is round-robin biased so
// that unrelated values land in different registers, minimising the
// false anti-dependences that would otherwise constrain the
// operation-compaction pass.
package regalloc

import (
	"fmt"
	"math/bits"
	"sort"

	"dualbank/internal/ir"
)

// Reserved registers per file: entry 1 of each file carries scalar
// return values and is never allocated.
const (
	numAllocatable = 31 // entries 2..32 of each file
	maxSpillRounds = 64
)

// Stats reports what the allocator did to one function.
type Stats struct {
	Spilled   int // virtual registers spilled to stack slots
	SaveSlots int // callee-save slots created
	IntUsed   int // integer registers used
	FloatUsed int // float registers used
}

// Run allocates registers for every function in the program and
// rewrites it to physical form.
func Run(p *ir.Program) (map[string]Stats, error) {
	stats := make(map[string]Stats, len(p.Funcs))
	for _, f := range p.Funcs {
		st, err := allocFunc(f)
		if err != nil {
			return nil, fmt.Errorf("regalloc %s: %w", f.Name, err)
		}
		stats[f.Name] = st
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("regalloc: %w", err)
	}
	return stats, nil
}

func allocFunc(f *ir.Func) (Stats, error) {
	var st Stats
	var colors []int
	// Registers created by spill rewriting live for a single operation;
	// re-spilling them cannot reduce pressure and would livelock, so
	// the colourer treats them as unspillable while any original
	// register remains a candidate.
	firstTemp := ir.Reg(f.NumRegs())
	for round := 0; ; round++ {
		if round > maxSpillRounds {
			return st, fmt.Errorf("did not converge after %d spill rounds", maxSpillRounds)
		}
		ig := buildInterference(f)
		var spills []ir.Reg
		colors, spills = color(f, ig, firstTemp)
		if len(spills) == 0 {
			break
		}
		st.Spilled += len(spills)
		spill(f, spills, &st)
	}
	rewrite(f, colors, &st)
	return st, nil
}

// --- Liveness ---

type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) orInto(o bitset) bool {
	changed := false
	for i, v := range o {
		nv := b[i] | v
		if nv != b[i] {
			b[i] = nv
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(o bitset) {
	copy(b, o)
}

// liveness computes live-out sets per block.
func liveness(f *ir.Func) (liveOut []bitset) {
	n := f.NumRegs()
	nb := len(f.Blocks)
	use := make([]bitset, nb) // upward-exposed uses
	def := make([]bitset, nb) // defs
	liveIn := make([]bitset, nb)
	liveOut = make([]bitset, nb)
	var buf []ir.Reg
	for i, b := range f.Blocks {
		use[i] = newBitset(n)
		def[i] = newBitset(n)
		liveIn[i] = newBitset(n)
		liveOut[i] = newBitset(n)
		for _, op := range b.Ops {
			buf = op.Uses(buf[:0])
			for _, u := range buf {
				if !def[i].get(int(u)) {
					use[i].set(int(u))
				}
			}
			if op.Dst != ir.NoReg {
				def[i].set(int(op.Dst))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Succs {
				if liveOut[i].orInto(liveIn[s.ID]) {
					changed = true
				}
			}
			// liveIn = use | (liveOut &^ def)
			for w := range liveIn[i] {
				nv := use[i][w] | (liveOut[i][w] &^ def[i][w])
				if nv != liveIn[i][w] {
					liveIn[i][w] = nv
					changed = true
				}
			}
		}
	}
	return liveOut
}

// --- Interference graph ---

type igraph struct {
	n    int
	adj  [][]ir.Reg // adjacency lists
	cost []float64  // spill cost per register
}

// addEdge records that a and b interfere. The scan finds most pairs
// more than once; dedupe drops the repeats after it.
func (g *igraph) addEdge(a, b ir.Reg) {
	if a == b || a == ir.NoReg || b == ir.NoReg {
		return
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// dedupe keeps the first occurrence of each neighbour in every
// adjacency list, so each list names each interfering register once,
// in the order the scan first found the pair.
func (g *igraph) dedupe() {
	// seen[m] == r marks m as already kept in r's list; r >= 1, so the
	// zeroed array starts with nothing marked.
	seen := make([]ir.Reg, g.n)
	for r := 1; r < g.n; r++ {
		list := g.adj[r]
		k := 0
		for _, m := range list {
			if seen[m] != ir.Reg(r) {
				seen[m] = ir.Reg(r)
				list[k] = m
				k++
			}
		}
		g.adj[r] = list[:k]
	}
}

func buildInterference(f *ir.Func) *igraph {
	n := f.NumRegs()
	g := &igraph{
		n:    n,
		adj:  make([][]ir.Reg, n),
		cost: make([]float64, n),
	}
	liveOut := liveness(f)
	live := newBitset(n)
	var buf []ir.Reg
	for bi, b := range f.Blocks {
		live.copyFrom(liveOut[bi])
		depthW := 1.0
		for d := 0; d < b.LoopDepth && d < 6; d++ {
			depthW *= 10
		}
		for i := len(b.Ops) - 1; i >= 0; i-- {
			op := b.Ops[i]
			d := op.Dst
			if d != ir.NoReg {
				g.cost[d] += depthW
				// The def interferes with everything live after the op.
				// Registers of different files never interfere. For a
				// move, skip the source: giving both the same colour is
				// harmless and enables coalescing-like assignments.
				for w, word := range live {
					for word != 0 {
						bit := bits.TrailingZeros64(word)
						word &^= 1 << uint(bit)
						r := ir.Reg(w*64 + bit)
						if r == d {
							continue
						}
						if f.RegType(r) != f.RegType(d) {
							continue
						}
						if op.Kind == ir.OpMov && r == op.Args[0] {
							continue
						}
						g.addEdge(d, r)
					}
				}
				live.clear(int(d))
			}
			buf = op.Uses(buf[:0])
			for _, u := range buf {
				g.cost[u] += depthW
				live.set(int(u))
			}
		}
	}
	g.dedupe()
	return g
}

// --- Colouring ---

// color assigns each virtual register a colour in [0, numAllocatable)
// within its register file. It returns the colouring and the registers
// that must be spilled (empty on success). Registers at or above
// firstTemp are spill-rewrite temporaries and are only spilled as a
// last resort.
func color(f *ir.Func, g *igraph, firstTemp ir.Reg) ([]int, []ir.Reg) {
	n := g.n
	degree := make([]int, n)
	removed := make([]bool, n)
	exists := make([]bool, n)
	for r := 1; r < n; r++ {
		degree[r] = len(g.adj[r])
		exists[r] = true
	}

	// Simplify: repeatedly remove low-degree nodes; when stuck, pick a
	// cheap spill candidate optimistically (Briggs).
	var stack []ir.Reg
	left := n - 1
	for left > 0 {
		picked := ir.NoReg
		for r := 1; r < n; r++ {
			if !removed[r] && exists[r] && degree[r] < numAllocatable {
				picked = ir.Reg(r)
				break
			}
		}
		if picked == ir.NoReg {
			// Choose the node with minimal cost/degree as the potential
			// spill, pushed optimistically; spill temporaries are
			// penalised so an original register is always preferred.
			best, bestScore := ir.NoReg, 0.0
			for r := 1; r < n; r++ {
				if removed[r] || !exists[r] {
					continue
				}
				score := g.cost[r] / float64(degree[r]+1)
				if ir.Reg(r) >= firstTemp {
					score += 1e12
				}
				if best == ir.NoReg || score < bestScore {
					best, bestScore = ir.Reg(r), score
				}
			}
			picked = best
		}
		removed[picked] = true
		left--
		stack = append(stack, picked)
		for _, m := range g.adj[picked] {
			degree[m]--
		}
	}

	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	var spills []ir.Reg
	next := 0 // round-robin bias
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		var used [numAllocatable]bool
		for _, m := range g.adj[r] {
			if colors[m] >= 0 {
				used[colors[m]] = true
			}
		}
		assigned := -1
		for k := 0; k < numAllocatable; k++ {
			c := (next + k) % numAllocatable
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			spills = append(spills, r)
			continue
		}
		colors[r] = assigned
		next = (assigned + 1) % numAllocatable
	}
	return colors, spills
}

// --- Spilling ---

// spill rewrites each spilled register to live in a fresh stack slot:
// every use loads it into a new temporary just before the op, every
// def stores it just after. Spill slots are ordinary stack data and
// are partitioned between the banks like any other variable.
func spill(f *ir.Func, regs []ir.Reg, st *Stats) {
	slots := make(map[ir.Reg]*ir.Symbol, len(regs))
	for _, r := range regs {
		sym := &ir.Symbol{
			Name: fmt.Sprintf("%s.spill%d", f.Name, len(f.Locals)),
			Kind: ir.SymSpill,
			Elem: f.RegType(r),
			Size: 1,
		}
		f.Locals = append(f.Locals, sym)
		slots[r] = sym
	}
	var buf []ir.Reg
	for _, b := range f.Blocks {
		var out []*ir.Op
		for _, op := range b.Ops {
			// Reload each spilled register the op reads.
			reloaded := make(map[ir.Reg]ir.Reg)
			buf = op.Uses(buf[:0])
			for _, u := range buf {
				sym, ok := slots[u]
				if !ok {
					continue
				}
				if _, done := reloaded[u]; done {
					continue
				}
				t := f.NewReg(sym.Elem)
				reloaded[u] = t
				out = append(out, &ir.Op{Kind: ir.OpLoad, Type: sym.Elem, Dst: t, Sym: sym})
			}
			macRead := op.Kind == ir.OpMac || op.Kind == ir.OpFMac
			for i, a := range op.Args {
				if t, ok := reloaded[a]; ok {
					op.Args[i] = t
				}
			}
			if t, ok := reloaded[op.Idx]; ok {
				op.Idx = t
			}
			for i, a := range op.CallArgs {
				if t, ok := reloaded[a]; ok {
					op.CallArgs[i] = t
				}
			}
			// Store each spilled register the op writes. A
			// multiply-accumulate reads and writes its destination: the
			// reload above already retargeted it to the temporary, which
			// is stored back after the update.
			if sym, ok := slots[op.Dst]; ok {
				var t ir.Reg
				if macRead {
					t = reloaded[op.Dst]
				} else {
					t = f.NewReg(sym.Elem)
				}
				op.Dst = t
				out = append(out, op)
				out = append(out, &ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{t}, Sym: sym})
				continue
			}
			out = append(out, op)
		}
		b.Ops = out
	}
}

// --- Physical rewrite ---

// rewrite renames coloured virtual registers to physical registers,
// inserts return-value plumbing through r1/f1, and adds the prologue
// saves and epilogue restores for every physical register the function
// writes.
func rewrite(f *ir.Func, colors []int, st *Stats) {
	phys := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		c := colors[r]
		if f.RegType(r) == ir.TFloat {
			return ir.PhysFloat(c + 2) // f2..f32
		}
		return ir.PhysInt(c + 2) // r2..r32
	}
	// The function's register table still describes virtual registers;
	// classify already-renamed physical registers by their number.
	physType := func(r ir.Reg) ir.Type {
		if r > 32 {
			return ir.TFloat
		}
		return ir.TInt
	}

	written := make(map[ir.Reg]bool)

	for _, b := range f.Blocks {
		var out []*ir.Op
		for _, op := range b.Ops {
			for i, a := range op.Args {
				if a != ir.NoReg {
					op.Args[i] = phys(a)
				}
			}
			if op.Idx != ir.NoReg {
				op.Idx = phys(op.Idx)
			}
			for i, a := range op.CallArgs {
				op.CallArgs[i] = phys(a)
			}
			switch op.Kind {
			case ir.OpCall:
				// The callee delivers its result in r1/f1. Keeping the
				// return register as the call's Dst tells the dependence
				// graph that the call defines it, so the copy below can
				// never be scheduled at or before the call.
				dst := op.Dst
				op.Dst = ir.NoReg
				if dst != ir.NoReg {
					ret := ir.RetInt
					if f.RegType(dst) == ir.TFloat {
						ret = ir.RetFloat
					}
					op.Dst = ret
					d := phys(dst)
					written[d] = true
					out = append(out, op,
						&ir.Op{Kind: ir.OpMov, Type: op.Type, Dst: d, Args: [2]ir.Reg{ret}})
					continue
				}
				out = append(out, op)
				continue
			case ir.OpRet:
				if op.Args[0] != ir.NoReg {
					ret := ir.RetInt
					if f.RetType == ir.TFloat {
						ret = ir.RetFloat
					}
					out = append(out, &ir.Op{Kind: ir.OpMov, Type: f.RetType, Dst: ret, Args: [2]ir.Reg{op.Args[0]}})
					op.Args[0] = ret
				}
				out = append(out, op)
				continue
			}
			if op.Dst != ir.NoReg {
				op.Dst = phys(op.Dst)
				written[op.Dst] = true
			}
			out = append(out, op)
		}
		b.Ops = out
	}
	for i, r := range f.ParamRegs {
		f.ParamRegs[i] = phys(r)
	}
	for r := range written {
		if physType(r) == ir.TFloat {
			st.FloatUsed++
		} else {
			st.IntUsed++
		}
	}

	// Callee-save: one slot per written register (r1/f1 are scratch and
	// carry return values, and are never allocated, so they are never
	// in the written set). Prologue saves run before everything else;
	// restores precede every return. The data-allocation pass assigns
	// the slots to alternating banks. main has no caller whose
	// registers need preserving, so it saves nothing.
	var saved []ir.Reg
	if f.Name != "main" {
		for r := range written {
			saved = append(saved, r)
		}
	}
	sort.Slice(saved, func(i, j int) bool { return saved[i] < saved[j] })
	slots := make([]*ir.Symbol, len(saved))
	for i, r := range saved {
		slots[i] = &ir.Symbol{
			Name: fmt.Sprintf("%s.save.%d", f.Name, i),
			Kind: ir.SymSpill,
			Elem: physType(r),
			Size: 1,
			Save: true,
		}
		f.Locals = append(f.Locals, slots[i])
	}
	st.SaveSlots = len(saved)
	f.SavedRegs = len(saved)

	if len(saved) > 0 {
		entry := f.Entry()
		var pro []*ir.Op
		for i, r := range saved {
			pro = append(pro, &ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{r}, Sym: slots[i]})
		}
		entry.Ops = append(pro, entry.Ops...)
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Kind != ir.OpRet {
				continue
			}
			var epi []*ir.Op
			for i, r := range saved {
				epi = append(epi, &ir.Op{Kind: ir.OpLoad, Type: physType(r), Dst: r, Sym: slots[i]})
			}
			b.Ops = append(b.Ops[:len(b.Ops)-1], append(epi, t)...)
		}
	}

	f.SetPhysRegTable()
}
