// Package core implements the paper's primary contribution: the
// compaction-based (CB) data-partitioning algorithm and the analysis
// side of partial data duplication.
//
// The algorithm has three parts (§3.1–§3.2 of the paper):
//
//  1. An interference graph over the program's variables and arrays.
//     An edge (a, b) means a memory operation on a and one on b could
//     issue in the same long instruction if the two symbols lived in
//     different banks. Edges are discovered by running the operation
//     compaction (list-scheduling) algorithm over every basic block
//     with a single usable memory slot: whenever a second data-ready
//     memory operation is blocked only by the memory unit, the pair of
//     symbols interferes (Figure 3).
//  2. Edge weights. The static policy weighs an edge by the loop
//     nesting depth of the access (depth+1, so a pair inside one loop
//     outweighs a pair in straight-line code — Figure 4); the profiled
//     policy weighs it by the executed frequency of the block.
//  3. A min-cost bipartition of the graph assigning each symbol to
//     bank X or bank Y: the paper's greedy walk (Figure 5), optionally
//     refined or replaced by the alternative partitioners in
//     partition_alt.go and partition_fm.go.
//
// When the two blocked memory operations access the *same* symbol, no
// partition can help; the symbol is marked for duplication instead, the
// trigger for partial data duplication (§3.2, Figure 6).
//
// The graph is stored flat: one record per undirected edge plus
// per-node incidence lists threaded through half-edge indices, with a
// compressed-sparse-row (CSR) view built once per program for the
// partitioners. No map sits on the construction or partitioning hot
// path.
package core

import (
	"fmt"
	"sort"
	"strings"

	"dualbank/internal/ddg"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// WeightPolicy selects how interference-edge weights are derived.
type WeightPolicy int8

const (
	// WeightStatic uses the loop-nesting-depth heuristic: an edge
	// discovered at nesting depth d gets weight max(existing, d+1).
	WeightStatic WeightPolicy = iota
	// WeightProfiled accumulates the profiled execution count of the
	// block in which each pairing is discovered (the Pr configuration
	// in Figure 8). Blocks must carry ExecCount from a profiling run.
	WeightProfiled
)

func (w WeightPolicy) String() string {
	if w == WeightProfiled {
		return "profiled"
	}
	return "static"
}

// edgeRec is one undirected interference edge (u < v). pairs counts
// distinct discovery events, for diagnostics.
type edgeRec struct {
	u, v  int32
	w     int64
	pairs int
}

// Graph is the interference graph: nodes are data symbols, weighted
// edges are potential parallel accesses. Edges live in a flat record
// slice; each node's incidence is a singly-linked list of half-edges
// (half-edge 2e belongs to edge e's u endpoint, 2e+1 to its v
// endpoint), so edge lookup during construction is O(degree) with no
// map in sight.
type Graph struct {
	Nodes []*ir.Symbol

	index map[*ir.Symbol]int32
	edges []edgeRec
	head  []int32 // per node: first incident half-edge, or -1
	next  []int32 // per half-edge: next half-edge of the same node

	// DupMarks holds symbols flagged for duplication: two simultaneous
	// data-ready accesses hit the same symbol.
	DupMarks map[*ir.Symbol]bool

	// tiePref, when non-nil, replaces the greedy partitioner's
	// node-index tie-break with a canonical preference: on equal move
	// deltas the node with the greater preference migrates. BuildGraph
	// fills it from the order symbols are first referenced in the
	// program body (functions walked in call order from main), which is
	// invariant under top-level declaration permutation and identifier
	// renaming — the node index, being declaration order, is neither.
	// Graphs assembled directly through NewGraph keep the index rule.
	tiePref []int32

	csr *CSR // cached adjacency view, invalidated by edge mutation
}

// NewGraph returns an empty interference graph over the given symbols.
func NewGraph(nodes []*ir.Symbol) *Graph {
	g := &Graph{
		Nodes:    nodes,
		index:    make(map[*ir.Symbol]int32, len(nodes)),
		head:     make([]int32, len(nodes)),
		DupMarks: make(map[*ir.Symbol]bool),
	}
	for i, s := range nodes {
		g.index[s] = int32(i)
		g.head[i] = -1
	}
	return g
}

// findEdge returns the index of edge (i, j) in g.edges, or -1. It
// walks i's incidence list, so cost is O(degree(i)).
func (g *Graph) findEdge(i, j int32) int {
	for h := g.head[i]; h >= 0; h = g.next[h] {
		e := &g.edges[h>>1]
		other := e.v
		if h&1 == 1 {
			other = e.u
		}
		if other == j {
			return int(h >> 1)
		}
	}
	return -1
}

// addEdge appends a fresh zero-weight edge (i, j), i < j, and links
// its two half-edges into the endpoints' incidence lists.
func (g *Graph) addEdge(i, j int32) int {
	id := len(g.edges)
	g.edges = append(g.edges, edgeRec{u: i, v: j})
	g.next = append(g.next, g.head[i], g.head[j])
	g.head[i] = int32(2 * id)
	g.head[j] = int32(2*id + 1)
	return id
}

// edgeBetween returns the edge record for (a, b), creating it if
// needed, with endpoints normalised to u < v.
func (g *Graph) edgeBetween(a, b *ir.Symbol) *edgeRec {
	i, j := g.index[a], g.index[b]
	if i > j {
		i, j = j, i
	}
	id := g.findEdge(i, j)
	if id < 0 {
		id = g.addEdge(i, j)
	}
	return &g.edges[id]
}

// Weight returns the weight of edge (a, b), or 0 if absent.
func (g *Graph) Weight(a, b *ir.Symbol) int64 {
	i, j := g.index[a], g.index[b]
	if i > j {
		i, j = j, i
	}
	if id := g.findEdge(i, j); id >= 0 {
		return g.edges[id].w
	}
	return 0
}

// SetWeight sets the weight of edge (a, b), creating the edge if
// absent. Tests and external graph builders use it to construct graphs
// without going through the block scanner.
func (g *Graph) SetWeight(a, b *ir.Symbol, w int64) {
	if a == b {
		panic("core: SetWeight on a self edge")
	}
	g.edgeBetween(a, b).w = w
	g.csr = nil
}

// PairCount returns the number of distinct discovery events recorded
// for edge (a, b); exposed for diagnostics and tests.
func (g *Graph) PairCount(a, b *ir.Symbol) int {
	i, j := g.index[a], g.index[b]
	if i > j {
		i, j = j, i
	}
	if id := g.findEdge(i, j); id >= 0 {
		return g.edges[id].pairs
	}
	return 0
}

// Edges returns the number of edges in the graph.
func (g *Graph) Edges() int { return len(g.edges) }

// NodeIndex returns s's index in Nodes, or -1 if s is not a node.
func (g *Graph) NodeIndex(s *ir.Symbol) int {
	if i, ok := g.index[s]; ok {
		return int(i)
	}
	return -1
}

// addEvent records one discovery of the pair (a, b) in block blk,
// which ran count times in the profiling run.
func (g *Graph) addEvent(a, b *ir.Symbol, blk *ir.Block, count int64, policy WeightPolicy) {
	if a == b {
		g.DupMarks[a] = true
		return
	}
	e := g.edgeBetween(a, b)
	e.pairs++
	switch policy {
	case WeightStatic:
		if w := int64(blk.LoopDepth + 1); w > e.w {
			e.w = w
		}
	case WeightProfiled:
		e.w += count
	}
	g.csr = nil
}

// sortedEdges returns printable (name, name, weight) triples in
// deterministic name order, shared by String and Dot.
func (g *Graph) sortedEdges() []printEdge {
	edges := make([]printEdge, 0, len(g.edges))
	for _, e := range g.edges {
		edges = append(edges, printEdge{g.Nodes[e.u].Name, g.Nodes[e.v].Name, e.w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return edges
}

type printEdge struct {
	a, b string
	w    int64
}

// String renders the graph's edges, sorted, for tests and the explorer
// example.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, e := range g.sortedEdges() {
		fmt.Fprintf(&sb, "(%s, %s) w=%d\n", e.a, e.b, e.w)
	}
	var dups []string
	for s, ok := range g.DupMarks {
		if ok {
			dups = append(dups, s.Name)
		}
	}
	sort.Strings(dups)
	if len(dups) > 0 {
		fmt.Fprintf(&sb, "dup: %s\n", strings.Join(dups, ", "))
	}
	return sb.String()
}

// Dot renders the interference graph in Graphviz format, with the
// partition (if given) as node colours and duplication marks as
// doubled outlines — the visual counterpart of the paper's Figure 4.
// Node and edge ordering are deterministic (nodes in symbol order,
// edges sorted by endpoint names), so the output is golden-file
// testable.
func (g *Graph) Dot(part *Partition) string {
	var sb strings.Builder
	sb.WriteString("graph interference {\n  node [shape=ellipse, style=filled, fillcolor=white];\n")
	side := map[*ir.Symbol]string{}
	if part != nil {
		for _, s := range part.SetX {
			side[s] = "lightblue"
		}
		for _, s := range part.SetY {
			side[s] = "lightsalmon"
		}
	}
	// Only nodes that participate in an edge or a mark are drawn;
	// whole-program graphs contain many untouched symbols.
	used := make([]bool, len(g.Nodes))
	for _, e := range g.edges {
		used[e.u] = true
		used[e.v] = true
	}
	for i, s := range g.Nodes {
		if !used[i] && !g.DupMarks[s] {
			continue
		}
		attrs := ""
		if c, ok := side[s]; ok {
			attrs = ", fillcolor=" + c
		}
		if g.DupMarks[s] {
			attrs += ", peripheries=2"
		}
		fmt.Fprintf(&sb, "  %q [label=%q%s];\n", s.Name, s.Name, attrs)
	}
	for _, e := range g.sortedEdges() {
		fmt.Fprintf(&sb, "  %q -- %q [label=\"%d\"];\n", e.a, e.b, e.w)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Scanner holds the reusable scratch state for interference-graph
// construction: the dependence-graph builder plus the dry-run
// scheduler's per-block arrays. A Scanner reused across blocks reaches
// a zero-allocation steady state. The zero value is ready to use; a
// Scanner must not be used concurrently.
type Scanner struct {
	ddg       ddg.Builder
	scheduled []bool
	cycleOf   []int
	drs       []int
	recorded  []uint32 // epoch-stamped "pairing already recorded this cycle"
	epoch     uint32
}

// BuildGraph runs the Figure-3 algorithm over every basic block of the
// program and returns the completed interference graph, reusing the
// scanner's scratch storage across blocks. The profiled policy reads
// each block's count from Block.ExecCount.
func (sc *Scanner) BuildGraph(p *ir.Program, policy WeightPolicy) *Graph {
	return sc.build(p, policy, nil)
}

// BuildProfiledGraph is BuildGraph under the profiled policy with the
// block counts passed in, in function then block order, rather than
// read from the blocks. The scan only reads p, so goroutines may build
// graphs of one shared program at once, each with its own Scanner.
func (sc *Scanner) BuildProfiledGraph(p *ir.Program, counts []int64) *Graph {
	return sc.build(p, WeightProfiled, counts)
}

// build scans every block; counts, when non-nil, overrides the blocks'
// ExecCount fields.
func (sc *Scanner) build(p *ir.Program, policy WeightPolicy, counts []int64) *Graph {
	g := NewGraph(p.Symbols())
	g.rankByFirstUse(p)
	i := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			count := b.ExecCount
			if counts != nil {
				count = counts[i]
			}
			g.scanBlock(sc, b, count, policy)
			i++
		}
	}
	return g
}

// rankByFirstUse assigns the canonical tie-break preference: symbols
// referenced earlier in the program body are preferred for migration
// on equal greedy deltas. Functions are walked in call order from
// main (call sites in body order, each function once), so the ranking
// does not depend on the order functions or globals were declared, and
// never on their names. Symbols no operation references keep the
// lowest preferences; they can have no interference edges, so their
// mutual order is immaterial.
func (g *Graph) rankByFirstUse(p *ir.Program) {
	visited := make(map[*ir.Func]bool, len(p.Funcs))
	order := make([]*ir.Func, 0, len(p.Funcs))
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if f == nil || visited[f] {
			return
		}
		visited[f] = true
		order = append(order, f)
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Kind == ir.OpCall {
					visit(p.Func(op.Callee))
				}
			}
		}
	}
	visit(p.Func("main"))
	for _, f := range p.Funcs { // unreachable code, if any, ranks last
		visit(f)
	}

	pref := int32(len(g.Nodes))
	g.tiePref = make([]int32, len(g.Nodes))
	for i := range g.tiePref {
		g.tiePref[i] = -1
	}
	for _, f := range order {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Sym == nil {
					continue
				}
				if i, ok := g.index[op.Sym]; ok && g.tiePref[i] < 0 {
					g.tiePref[i] = pref
					pref--
				}
			}
		}
	}
}

// BuildGraph runs the Figure-3 algorithm over every basic block of the
// program and returns the completed interference graph.
func BuildGraph(p *ir.Program, policy WeightPolicy) *Graph {
	return new(Scanner).BuildGraph(p, policy)
}

// classSlots is the per-instruction functional-unit budget during graph
// construction. The memory budget is 1: data is not yet partitioned, so
// the pass cannot know that two accesses would use different units —
// precisely the situation the interference edge records.
func classSlots() [machine.NumClasses]int {
	var s [machine.NumClasses]int
	s[machine.ClassControl] = 1
	s[machine.ClassMemory] = 1
	s[machine.ClassInteger] = 4
	s[machine.ClassFloat] = 2
	return s
}

// ScanBlock applies the augmented compaction algorithm of Figure 3 to
// one basic block, adding interference edges and duplication marks.
// Operations are not actually packed into instructions here; that
// happens later, in the compaction pass proper.
func (g *Graph) ScanBlock(b *ir.Block, policy WeightPolicy) {
	g.scanBlock(new(Scanner), b, b.ExecCount, policy)
}

func (g *Graph) scanBlock(sc *Scanner, b *ir.Block, count int64, policy WeightPolicy) {
	dg := sc.ddg.Build(b)
	n := len(dg.Ops)
	if n == 0 {
		return
	}
	for len(sc.scheduled) < n {
		sc.scheduled = append(sc.scheduled, false)
		sc.cycleOf = append(sc.cycleOf, 0)
		sc.recorded = append(sc.recorded, 0)
	}
	scheduled := sc.scheduled[:n]
	cycleOf := sc.cycleOf[:n]
	for i := 0; i < n; i++ {
		scheduled[i] = false
		cycleOf[i] = -1
	}
	remaining := n

	drs := sc.drs[:0]
	for cycle := 0; remaining > 0; cycle++ {
		// Form a new long instruction.
		slots := classSlots()
		firstMem := -1
		remBefore := remaining
		// The epoch stamp notes a pairing event already emitted for an
		// op in this cycle, so the in-cycle fixed point below does not
		// count the same blocked pair twice.
		sc.epoch++
		if sc.epoch == 0 {
			clear(sc.recorded)
			sc.epoch = 1
		}

		// Fill the instruction to a fixed point, mirroring the real
		// scheduler: newly anti-dependence-ready operations may join
		// the current instruction.
		for {
			// Calculate the data-ready set: unscheduled ops whose
			// predecessors are all scheduled.
			drs = drs[:0]
			for i := 0; i < n; i++ {
				if scheduled[i] {
					continue
				}
				ready := true
				for _, e := range dg.Pred[i] {
					if !scheduled[e.To] {
						ready = false
						break
					}
				}
				if ready {
					drs = append(drs, i)
				}
			}
			// Sort the DRS by priority (descendant count), ties by
			// program order for determinism.
			ddg.SortByPriority(drs, dg.Priority)

			progress := false
			for _, i := range drs {
				// Data-compatibility: an op may join the current
				// instruction unless a strict predecessor was scheduled
				// in this same cycle (anti-dependences are fine: reads
				// precede writes).
				compatible := true
				for _, e := range dg.Pred[i] {
					if e.Strict && cycleOf[e.To] == cycle {
						compatible = false
						break
					}
				}
				if !compatible {
					continue
				}
				cls := dg.Ops[i].Kind.Class()
				if slots[cls] > 0 {
					slots[cls]--
					scheduled[i] = true
					cycleOf[i] = cycle
					remaining--
					progress = true
					if dg.Ops[i].IsMem() {
						firstMem = i
					}
					continue
				}
				// Function-unit incompatible. For memory operations this
				// is the interesting case: the op is independent of
				// everything scheduled (including the first memory op)
				// but competes for the memory unit. Record the
				// interference, or mark the symbol for duplication when
				// both ops touch the same one. The op stays unscheduled
				// so it re-enters the next DRS.
				if dg.Ops[i].IsMem() && firstMem >= 0 && sc.recorded[i] != sc.epoch {
					sc.recorded[i] = sc.epoch
					g.addEvent(dg.Ops[firstMem].Sym, dg.Ops[i].Sym, b, count, policy)
				}
			}
			if !progress {
				break
			}
		}
		if remaining == remBefore {
			// Defensive: cannot happen with per-class budgets >= 1, but
			// guarantees termination regardless.
			break
		}
	}
	sc.drs = drs[:0]
}
