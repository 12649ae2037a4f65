// Package ddg builds the per-basic-block data-dependence graph used by
// the interference-graph construction pass (Figure 3 of the paper) and
// by the operation-compaction pass. Edges are typed: a *strict* edge
// forces the successor into a strictly later long instruction, while a
// *weak* edge (an anti-dependence) allows both operations to share one
// long instruction, because within an instruction all operands are read
// before any result is written. This is exactly the "data-compatible"
// distinction the paper's scheduler makes.
//
// Graph construction is on the compile hot path — it runs once per
// block in the interference scan and again per block in the compaction
// pass — so the Builder type keeps every piece of transient state
// (per-register def/use tracking, per-symbol access history, priority
// bitsets, adjacency backing arrays) in reusable storage. A Builder
// reused across blocks reaches a zero-allocation steady state.
package ddg

import (
	"math/bits"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Edge is a dependence from one operation to another within a block.
type Edge struct {
	// To is the index of the dependent operation in Graph.Ops.
	To int
	// Strict reports whether the dependent operation must issue in a
	// strictly later instruction (flow and output dependences). A
	// non-strict edge is an anti-dependence: same instruction is fine.
	Strict bool
}

// Graph is the data-dependence graph of one basic block.
type Graph struct {
	Ops  []*ir.Op
	Succ [][]Edge
	Pred [][]Edge
	// Priority[i] is the number of descendants of op i in the graph,
	// the heuristic the paper uses to order the data-ready set.
	Priority []int
}

// Build constructs the dependence graph for block b using a throwaway
// Builder. Callers building many blocks should allocate one Builder
// and call its Build method instead.
func Build(b *ir.Block) *Graph { return new(Builder).Build(b) }

// memEvent records one memory access to a symbol within the block.
type memEvent struct {
	idx     int
	isStore bool
	bank    machine.Bank
}

// Builder holds reusable scratch for dependence-graph construction.
// The zero value is ready to use. Build returns a *Graph that aliases
// the Builder's storage: it is valid until the next Build call on the
// same Builder. A Builder must not be used concurrently.
type Builder struct {
	g Graph

	// Adjacency backing: outer slices sized to the largest block seen,
	// inner slices keep their capacity across builds.
	succ, pred [][]Edge
	prio       []int

	// Per-register state, indexed by register number and validated by
	// epoch stamps so nothing needs clearing between blocks.
	lastDef   []int // op index of the latest def
	lastDefEp []uint32
	uses      [][]int // reads since that def
	usesEp    []uint32

	// Per-symbol access history, keyed by a block-local symbol id.
	symID map[*ir.Symbol]int32
	hist  [][]memEvent

	memOps []int
	useBuf []ir.Reg

	// Priority bitset scratch.
	setsBuf []uint64
	sets    [][]uint64

	epoch uint32
}

// ensureReg grows the per-register tables to cover register r, in one
// step to the length r needs.
func (bld *Builder) ensureReg(r ir.Reg) {
	if d := int(r) + 1 - len(bld.lastDef); d > 0 {
		bld.lastDef = append(bld.lastDef, make([]int, d)...)
		bld.lastDefEp = append(bld.lastDefEp, make([]uint32, d)...)
		bld.uses = append(bld.uses, make([][]int, d)...)
		bld.usesEp = append(bld.usesEp, make([]uint32, d)...)
	}
}

// defOf returns the op index of r's latest definition in this block,
// or -1.
func (bld *Builder) defOf(r ir.Reg) int {
	if bld.lastDefEp[r] != bld.epoch {
		return -1
	}
	return bld.lastDef[r]
}

// usesOf returns the (possibly stale) use list for r, resetting it if
// it belongs to an earlier block.
func (bld *Builder) usesOf(r ir.Reg) []int {
	if bld.usesEp[r] != bld.epoch {
		bld.usesEp[r] = bld.epoch
		bld.uses[r] = bld.uses[r][:0]
	}
	return bld.uses[r]
}

// histOf returns the block-local access history slice for symbol s,
// creating an empty one on first sight.
func (bld *Builder) histOf(s *ir.Symbol) *[]memEvent {
	id, ok := bld.symID[s]
	if !ok {
		id = int32(len(bld.symID))
		bld.symID[s] = id
		if int(id) >= len(bld.hist) {
			bld.hist = append(bld.hist, nil)
		}
		bld.hist[id] = bld.hist[id][:0]
	}
	return &bld.hist[id]
}

// Release drops the Builder's references to the last block built,
// keeping its storage, so a long-lived Builder does not keep that
// block's program reachable. The Graph Build returned is invalid
// afterwards.
func (bld *Builder) Release() {
	bld.g.Ops = nil
	clear(bld.symID)
}

// Build constructs the dependence graph for block b. The returned
// Graph aliases the Builder's reusable storage.
func (bld *Builder) Build(b *ir.Block) *Graph {
	n := len(b.Ops)
	bld.epoch++
	if bld.epoch == 0 { // wrapped: stamps are ambiguous, reset them
		clear(bld.lastDefEp)
		clear(bld.usesEp)
		bld.epoch = 1
	}
	if bld.symID == nil {
		bld.symID = make(map[*ir.Symbol]int32)
	} else {
		clear(bld.symID)
	}
	for len(bld.succ) < n {
		bld.succ = append(bld.succ, nil)
		bld.pred = append(bld.pred, nil)
		bld.prio = append(bld.prio, 0)
	}
	for i := 0; i < n; i++ {
		bld.succ[i] = bld.succ[i][:0]
		bld.pred[i] = bld.pred[i][:0]
	}
	g := &bld.g
	g.Ops = b.Ops
	g.Succ = bld.succ[:n]
	g.Pred = bld.pred[:n]
	g.Priority = bld.prio[:n]

	lastCall := -1
	bld.memOps = bld.memOps[:0]

	for i, op := range b.Ops {
		// Register flow dependences.
		bld.useBuf = op.Uses(bld.useBuf[:0])
		for _, u := range bld.useBuf {
			bld.ensureReg(u)
			if d := bld.defOf(u); d >= 0 {
				g.addEdge(d, i, true)
			}
			bld.uses[u] = append(bld.usesOf(u), i)
		}
		// Register anti- and output dependences.
		if d := op.Dst; d != ir.NoReg {
			bld.ensureReg(d)
			for _, u := range bld.usesOf(d) {
				g.addEdge(u, i, false)
			}
			if p := bld.defOf(d); p >= 0 {
				g.addEdge(p, i, true)
			}
			bld.lastDef[d] = i
			bld.lastDefEp[d] = bld.epoch
			bld.uses[d] = bld.uses[d][:0]
			bld.usesEp[d] = bld.epoch
		}

		switch op.Kind {
		case ir.OpLoad:
			h := bld.histOf(op.Sym)
			for _, ev := range *h {
				if ev.isStore && banksConflict(ev.bank, op.Bank) {
					g.addEdge(ev.idx, i, true) // memory flow
				}
			}
			if lastCall >= 0 {
				g.addEdge(lastCall, i, true)
			}
			*h = append(*h, memEvent{i, false, op.Bank})
			bld.memOps = append(bld.memOps, i)
		case ir.OpStore:
			h := bld.histOf(op.Sym)
			for _, ev := range *h {
				if !banksConflict(ev.bank, op.Bank) {
					continue
				}
				if ev.isStore {
					g.addEdge(ev.idx, i, true) // memory output
				} else {
					g.addEdge(ev.idx, i, false) // memory anti
				}
			}
			if lastCall >= 0 {
				g.addEdge(lastCall, i, true)
			}
			*h = append(*h, memEvent{i, true, op.Bank})
			bld.memOps = append(bld.memOps, i)
		case ir.OpCall:
			// Calls are memory barriers: every earlier memory op must
			// complete no later than the call (weak: a store may share
			// the call's instruction because memory writes commit before
			// control transfers), and later memory ops wait for the
			// return.
			for _, m := range bld.memOps {
				g.addEdge(m, i, false)
			}
			if lastCall >= 0 {
				g.addEdge(lastCall, i, true)
			}
			lastCall = i
			bld.memOps = bld.memOps[:0]
		}

		// The terminator must issue in the block's final instruction:
		// give it a weak edge from every other operation.
		if op.Kind.IsTerminator() {
			for j := 0; j < i; j++ {
				g.addEdge(j, i, false)
			}
		}
	}

	bld.computePriorities()
	return g
}

// addEdge records a dependence from op index from to op index to,
// keeping the strictest variant of a duplicate edge.
func (g *Graph) addEdge(from, to int, strict bool) {
	if from == to {
		return
	}
	for k := range g.Succ[from] {
		if g.Succ[from][k].To == to {
			if strict && !g.Succ[from][k].Strict {
				g.Succ[from][k].Strict = true
				for j := range g.Pred[to] {
					if g.Pred[to][j].To == from {
						g.Pred[to][j].Strict = true
					}
				}
			}
			return
		}
	}
	g.Succ[from] = append(g.Succ[from], Edge{To: to, Strict: strict})
	g.Pred[to] = append(g.Pred[to], Edge{To: from, Strict: strict})
}

// banksConflict reports whether two accesses to the same symbol may
// touch the same memory location. After the allocation pass, the two
// halves of a duplicated-store pair carry distinct single-bank tags and
// so do not conflict — this is what lets the coherence store issue in
// parallel with the original. Untagged accesses (before allocation, or
// duplicated loads tagged BankBoth) conflict conservatively.
func banksConflict(a, b machine.Bank) bool {
	if a.IsSingle() && b.IsSingle() && a != b {
		return false
	}
	return true
}

// computePriorities sets Priority[i] to the number of distinct
// descendants of i, the paper's scheduling priority.
func (bld *Builder) computePriorities() {
	g := &bld.g
	n := len(g.Ops)
	// Process in reverse topological order (ops are in program order,
	// and all edges point forward), accumulating descendant bitsets.
	words := (n + 63) / 64
	need := n * words
	if cap(bld.setsBuf) < need {
		bld.setsBuf = make([]uint64, need)
	}
	buf := bld.setsBuf[:need]
	clear(buf)
	for len(bld.sets) < n {
		bld.sets = append(bld.sets, nil)
	}
	sets := bld.sets[:n]
	for i := range sets {
		sets[i] = buf[i*words : (i+1)*words]
	}
	for i := n - 1; i >= 0; i-- {
		s := sets[i]
		for _, e := range g.Succ[i] {
			s[e.To/64] |= 1 << (uint(e.To) % 64)
			for w, v := range sets[e.To] {
				s[w] |= v
			}
		}
		count := 0
		for _, v := range s {
			count += bits.OnesCount64(v)
		}
		g.Priority[i] = count
	}
}

// SortByPriority sorts op indices by descending Priority, breaking
// ties by ascending index (stable program order) — the order in which
// both the interference scan and the compaction pass walk the
// data-ready set. Insertion sort: ready sets are small and the slice
// is nearly sorted between refills, and unlike sort.SliceStable this
// never allocates.
func SortByPriority(idx []int, prio []int) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && (prio[idx[j]] < prio[v] || (prio[idx[j]] == prio[v] && idx[j] > v)) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}
