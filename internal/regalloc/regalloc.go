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
	"slices"
	"strconv"

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
func Run(p *ir.Program) (map[string]Stats, error) { return new(Allocator).Run(p) }

// Run is the package-level Run on a's reusable scratch. It leaves the
// scratch holding no IR, so a warm Allocator does not keep p reachable.
func (a *Allocator) Run(p *ir.Program) (map[string]Stats, error) {
	defer a.release()
	stats := make(map[string]Stats, len(p.Funcs))
	for _, f := range p.Funcs {
		st, err := a.allocFunc(f)
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

// Allocator is the allocator's register- and block-indexed scratch:
// liveness sets, the interference graph, the colouring state and the
// rewrite buffers. One Allocator is reused across a program's
// functions and their spill rounds, and, held by a caller that
// allocates many programs (a pipeline.Compiler), across programs, so
// its adjacency lists keep their capacity. Each round sizes what it
// uses to the function's registers and blocks, which spilling grows,
// and reads nothing an earlier function or program left behind; no IR
// or Stats it writes points into it. The zero value is ready to use;
// an Allocator is not safe for concurrent use.
type Allocator struct {
	buf []ir.Reg // Op.Uses scratch
	ops []*ir.Op // rewritten op list scratch

	// sets holds four liveness bitsets per block (use, def, live-in,
	// live-out) of words words each; live is the backward scan's set.
	sets  []uint64
	words int
	live  bitset

	g    igraph
	seen []uint32 // neighbour stamps; see markNeighbours
	mark uint32

	degree []int32
	picked []bool
	low    bitset // unpicked registers of degree < numAllocatable
	stack  []ir.Reg
	colors []int
	spills []ir.Reg

	slot     []*ir.Symbol // spill slot by register, within spill
	reloaded []reload
}

func (a *Allocator) allocFunc(f *ir.Func) (Stats, error) {
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
		var spills []ir.Reg
		colors, spills = a.color(a.buildInterference(f), firstTemp)
		if len(spills) == 0 {
			break
		}
		st.Spilled += len(spills)
		a.spill(f, spills, &st)
	}
	a.rewrite(f, colors, &st)
	return st, nil
}

// release clears every slice of the scratch that holds IR pointers,
// over its whole capacity, keeping the capacity.
func (a *Allocator) release() {
	clear(a.ops[:cap(a.ops)])
	clear(a.slot[:cap(a.slot)])
}

// fit returns s with length at least n, keeping its contents; new
// entries are zero.
func fit[T any](s []T, n int) []T {
	if d := n - len(s); d > 0 {
		s = append(s, make([]T, d)...)
	}
	return s
}

// --- Liveness ---

type bitset []uint64

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

// Liveness set kinds, in each block's slot of Allocator.sets.
const (
	setUse     = iota // upward-exposed uses
	setDef            // defs
	setLiveIn         // live on entry
	setLiveOut        // live on exit
)

// set returns block i's liveness set of the given kind.
func (a *Allocator) set(i, kind int) bitset {
	at := (4*i + kind) * a.words
	return a.sets[at : at+a.words : at+a.words]
}

// liveness computes the live-out set of every block of f, read with
// a.set(i, setLiveOut).
func (a *Allocator) liveness(f *ir.Func) {
	nb := len(f.Blocks)
	a.words = (f.NumRegs() + 63) / 64
	a.sets = fit(a.sets, 4*nb*a.words)
	clear(a.sets[:4*nb*a.words])
	for i, b := range f.Blocks {
		use, def := a.set(i, setUse), a.set(i, setDef)
		for _, op := range b.Ops {
			a.buf = op.Uses(a.buf[:0])
			for _, u := range a.buf {
				if !def.get(int(u)) {
					use.set(int(u))
				}
			}
			if op.Dst != ir.NoReg {
				def.set(int(op.Dst))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.Blocks[i]
			liveOut := a.set(i, setLiveOut)
			for _, s := range b.Succs {
				if liveOut.orInto(a.set(s.ID, setLiveIn)) {
					changed = true
				}
			}
			// liveIn = use | (liveOut &^ def)
			use, def, liveIn := a.set(i, setUse), a.set(i, setDef), a.set(i, setLiveIn)
			for w := range liveIn {
				nv := use[w] | (liveOut[w] &^ def[w])
				if nv != liveIn[w] {
					liveIn[w] = nv
					changed = true
				}
			}
		}
	}
}

// --- Interference graph ---

type igraph struct {
	n    int
	adj  [][]ir.Reg // adjacency lists
	cost []float64  // spill cost per register
}

// addEdge records that a and b interfere. The caller skips pairs
// already recorded, so each list names each interfering register once.
func (g *igraph) addEdge(a, b ir.Reg) {
	if a == b || a == ir.NoReg || b == ir.NoReg {
		return
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// markNeighbours marks d's current neighbours in a.seen with a fresh
// stamp, so nothing is cleared between definitions or rounds.
func (a *Allocator) markNeighbours(d ir.Reg) {
	a.mark++
	if a.mark == 0 { // wrapped: old stamps would match again
		clear(a.seen)
		a.mark = 1
	}
	for _, m := range a.g.adj[d] {
		a.seen[m] = a.mark
	}
}

// buildInterference builds f's interference graph in a.g, reusing the
// previous round's adjacency lists and cost array. Each list holds its
// partners in the order the scan first found the pair.
func (a *Allocator) buildInterference(f *ir.Func) *igraph {
	n := f.NumRegs()
	g := &a.g
	g.n = n
	g.adj = fit(g.adj, n)
	for r := range g.adj[:n] {
		g.adj[r] = g.adj[r][:0]
	}
	g.cost = fit(g.cost, n)
	a.seen = fit(a.seen, n)
	clear(g.cost[:n])
	a.liveness(f)
	a.live = fit(a.live, a.words)
	live := a.live[:a.words]
	for bi, b := range f.Blocks {
		copy(live, a.set(bi, setLiveOut))
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
				a.markNeighbours(d)
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
						if a.seen[r] == a.mark {
							continue // found before
						}
						g.addEdge(d, r)
					}
				}
				live.clear(int(d))
			}
			a.buf = op.Uses(a.buf[:0])
			for _, u := range a.buf {
				g.cost[u] += depthW
				live.set(int(u))
			}
		}
	}
	return g
}

// --- Colouring ---

// color assigns each virtual register a colour in [0, numAllocatable)
// within its register file. It returns the colouring and the registers
// that must be spilled (empty on success), both owned by a. Registers
// at or above firstTemp are spill-rewrite temporaries and are only
// spilled as a last resort.
func (a *Allocator) color(g *igraph, firstTemp ir.Reg) ([]int, []ir.Reg) {
	n := g.n
	a.degree = fit(a.degree, n)
	degree := a.degree[:n]
	a.picked = fit(a.picked, n)
	picked := a.picked[:n]
	clear(picked)
	words := (n + 63) / 64
	a.low = fit(a.low, words)
	low := a.low[:words]
	clear(low)
	for r := 1; r < n; r++ {
		degree[r] = int32(len(g.adj[r]))
		if degree[r] < numAllocatable {
			low.set(r)
		}
	}

	// Simplify: repeatedly remove the lowest-numbered low-degree node;
	// when there is none, pick a cheap spill candidate optimistically
	// (Briggs). No word of low below first has a bit set.
	stack := a.stack[:0]
	first := 0
	for left := n - 1; left > 0; left-- {
		p := ir.NoReg
		for ; first < words; first++ {
			if low[first] != 0 {
				p = ir.Reg(first*64 + bits.TrailingZeros64(low[first]))
				low.clear(int(p))
				break
			}
		}
		if p == ir.NoReg {
			// Choose the node with minimal cost/degree as the potential
			// spill, pushed optimistically; spill temporaries are
			// penalised so an original register is always preferred.
			bestScore := 0.0
			for r := 1; r < n; r++ {
				if picked[r] {
					continue
				}
				score := g.cost[r] / float64(degree[r]+1)
				if ir.Reg(r) >= firstTemp {
					score += 1e12
				}
				if p == ir.NoReg || score < bestScore {
					p, bestScore = ir.Reg(r), score
				}
			}
		}
		picked[p] = true
		stack = append(stack, p)
		for _, m := range g.adj[p] {
			degree[m]--
			if degree[m] == numAllocatable-1 && !picked[m] {
				low.set(int(m))
				first = min(first, int(m)/64)
			}
		}
	}
	a.stack = stack

	a.colors = fit(a.colors, n)
	colors := a.colors[:n]
	for i := range colors {
		colors[i] = -1
	}
	spills := a.spills[:0]
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
	a.spills = spills
	return colors, spills
}

// --- Spilling ---

// reload pairs a spilled register with the temporary that holds it for
// one operation.
type reload struct{ reg, tmp ir.Reg }

// spill rewrites each spilled register to live in a fresh stack slot:
// every use loads it into a new temporary just before the op, every
// def stores it just after. Spill slots are ordinary stack data and
// are partitioned between the banks like any other variable.
func (a *Allocator) spill(f *ir.Func, regs []ir.Reg, st *Stats) {
	// Only registers that exist now are looked up; the temporaries
	// made below appear only in the ops inserted around each op.
	a.slot = fit(a.slot, f.NumRegs())
	slot := a.slot
	for _, r := range regs {
		sym := &ir.Symbol{
			Name: f.Name + ".spill" + strconv.Itoa(len(f.Locals)),
			Kind: ir.SymSpill,
			Elem: f.RegType(r),
			Size: 1,
		}
		f.Locals = append(f.Locals, sym)
		slot[r] = sym
	}
	tmp := func(r ir.Reg) ir.Reg {
		for _, rl := range a.reloaded {
			if rl.reg == r {
				return rl.tmp
			}
		}
		return ir.NoReg
	}
	for _, b := range f.Blocks {
		out := a.ops[:0]
		for _, op := range b.Ops {
			// Reload each spilled register the op reads.
			a.reloaded = a.reloaded[:0]
			a.buf = op.Uses(a.buf[:0])
			for _, u := range a.buf {
				sym := slot[u]
				if sym == nil || tmp(u) != ir.NoReg {
					continue
				}
				t := f.NewReg(sym.Elem)
				a.reloaded = append(a.reloaded, reload{u, t})
				out = append(out, &ir.Op{Kind: ir.OpLoad, Type: sym.Elem, Dst: t, Sym: sym})
			}
			macRead := op.Kind == ir.OpMac || op.Kind == ir.OpFMac
			if len(a.reloaded) > 0 {
				for i, r := range op.Args {
					if t := tmp(r); t != ir.NoReg {
						op.Args[i] = t
					}
				}
				if t := tmp(op.Idx); t != ir.NoReg {
					op.Idx = t
				}
				for i, r := range op.CallArgs {
					if t := tmp(r); t != ir.NoReg {
						op.CallArgs[i] = t
					}
				}
			}
			// Store each spilled register the op writes. A
			// multiply-accumulate reads and writes its destination: the
			// reload above already retargeted it to the temporary, which
			// is stored back after the update.
			if sym := slot[op.Dst]; sym != nil {
				var t ir.Reg
				if macRead {
					t = tmp(op.Dst)
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
		a.ops = out
		// Only an op that touches a spilled register grows the block.
		if len(out) != len(b.Ops) {
			b.Ops = slices.Clone(out)
		}
	}
	for _, r := range regs {
		slot[r] = nil
	}
}

// --- Physical rewrite ---

// rewrite renames coloured virtual registers to physical registers,
// inserts return-value plumbing through r1/f1, and adds the prologue
// saves and epilogue restores for every physical register the function
// writes.
func (a *Allocator) rewrite(f *ir.Func, colors []int, st *Stats) {
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

	var written [65]bool // by physical register, r1..r32 then f1..f32

	for _, b := range f.Blocks {
		out := a.ops[:0]
		for _, op := range b.Ops {
			for i, r := range op.Args {
				if r != ir.NoReg {
					op.Args[i] = phys(r)
				}
			}
			if op.Idx != ir.NoReg {
				op.Idx = phys(op.Idx)
			}
			for i, r := range op.CallArgs {
				op.CallArgs[i] = phys(r)
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
		a.ops = out
		// Only return-value plumbing grows the block.
		if len(out) != len(b.Ops) {
			b.Ops = slices.Clone(out)
		}
	}
	for i, r := range f.ParamRegs {
		f.ParamRegs[i] = phys(r)
	}
	// Callee-save: one slot per written register, in register order
	// (r1/f1 are scratch and carry return values, and are never
	// allocated, so they are never written). Prologue saves run before
	// everything else; restores precede every return. The
	// data-allocation pass assigns the slots to alternating banks. main
	// has no caller whose registers need preserving, so it saves
	// nothing.
	var saved []ir.Reg
	for r, w := range written {
		if !w {
			continue
		}
		if physType(ir.Reg(r)) == ir.TFloat {
			st.FloatUsed++
		} else {
			st.IntUsed++
		}
		if f.Name != "main" {
			saved = append(saved, ir.Reg(r))
		}
	}
	slots := make([]*ir.Symbol, len(saved))
	for i, r := range saved {
		slots[i] = &ir.Symbol{
			Name: f.Name + ".save." + strconv.Itoa(i),
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
		pro := make([]*ir.Op, len(saved), len(saved)+len(entry.Ops))
		for i, r := range saved {
			pro[i] = &ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{r}, Sym: slots[i]}
		}
		entry.Ops = append(pro, entry.Ops...)
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Kind != ir.OpRet {
				continue
			}
			ops := b.Ops[:len(b.Ops)-1]
			for i, r := range saved {
				ops = append(ops, &ir.Op{Kind: ir.OpLoad, Type: physType(r), Dst: r, Sym: slots[i]})
			}
			b.Ops = append(ops, t)
		}
	}

	f.SetPhysRegTable()
}
