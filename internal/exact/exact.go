// Package exact is the certified-optimality engine: a branch-and-bound
// exact bipartitioner over the CSR interference graph that answers the
// question the heuristic partitioners (greedy, FM, annealing) cannot —
// how far from optimal is this partition?
//
// The solver decomposes the graph into connected components (their
// bipartitions are independent, so optima add), seeds an incumbent from
// the best existing heuristic, and runs a depth-first branch-and-bound
// per component:
//
//   - Variables are decided in a static order — the spectral embedding
//     for components at or above SpectralMin nodes, weighted degree
//     descending below it — with the first node pinned to bank X
//     (the banks are symmetric, so this halves the tree).
//   - The bound on a partial assignment is the assigned-assigned
//     residual already incurred, plus for every unassigned node the
//     cheaper of its edge weights into the two assigned sides (the
//     max-weight-edge / LP-style relaxation: whichever bank the node
//     eventually picks, it pays at least the min), plus an
//     edge-disjoint triangle packing over the still-unassigned
//     subgraph (any bipartition of a triangle leaves one edge
//     internal, so each packed triangle contributes its minimum edge
//     weight). The three terms cover disjoint edge sets, so they add.
//   - The budget is a node count, not wall-clock, so a run's verdict,
//     bounds, and explored-node count are deterministic on any
//     machine at any parallelism.
//
// The outcome is a three-way verdict. Optimal: the tree was closed and
// the incumbent is provably minimal — the Certificate records the
// proof's size. Bounded: the budget ran out but the open subtrees'
// bounds prove a non-trivial interval [Lower, Upper] containing the
// optimum. Budget: the budget ran out with only the vacuous cost >= 0
// floor. In every case Upper is the cost of a concrete partition that
// started at the best heuristic and only improved, so the exact arm is
// never costlier than any heuristic.
package exact

import (
	"fmt"
	"sort"

	"dualbank/internal/core"
	"dualbank/internal/ir"
)

// DefaultNodeBudget is the branch-and-bound node budget when Options
// leaves it zero. Node counts are deterministic, so this is a
// reproducibility knob, not a timeout.
const DefaultNodeBudget = 2_000_000

// DefaultSpectralMin is the component size at which the spectral
// seed+ordering replaces the weighted-degree ordering.
const DefaultSpectralMin = 24

// triangleMaxNodes bounds the per-component triangle-packing
// precomputation (it builds an n×n edge index); components beyond it
// fall back to the min-side bound alone.
const triangleMaxNodes = 128

// Verdict classifies a Solve outcome.
type Verdict int8

const (
	// Optimal: the search closed; Upper is the proven minimum cost.
	Optimal Verdict = iota
	// Bounded: the node budget ran out, but the abandoned subtrees'
	// bounds prove the optimum lies in [Lower, Upper] with Lower > 0.
	Bounded
	// Budget: the node budget ran out with only the trivial cost >= 0
	// lower bound — the interval [0, Upper] carries no information
	// beyond the incumbent itself.
	Budget
)

func (v Verdict) String() string {
	switch v {
	case Optimal:
		return "optimal"
	case Bounded:
		return "bounded"
	}
	return "budget"
}

// MarshalText renders the verdict by name for JSON reports.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a verdict name produced by MarshalText.
func (v *Verdict) UnmarshalText(text []byte) error {
	switch string(text) {
	case "optimal":
		*v = Optimal
	case "bounded":
		*v = Bounded
	case "budget":
		*v = Budget
	default:
		return fmt.Errorf("exact: unknown verdict %q", text)
	}
	return nil
}

// Options configures a Solve call. The zero value uses the defaults.
type Options struct {
	// NodeBudget caps branch-and-bound nodes expanded across all
	// components (0 = DefaultNodeBudget). Deterministic: equal graphs
	// and budgets always reach the same verdict and bounds.
	NodeBudget int64
	// SpectralMin is the component size at which the spectral
	// seed+ordering engages (0 = DefaultSpectralMin).
	SpectralMin int
}

// annealSeed seeds the annealing arm of the incumbent portfolio.
const annealSeed = 1

func (o Options) withDefaults() Options {
	if o.NodeBudget <= 0 {
		o.NodeBudget = DefaultNodeBudget
	}
	if o.SpectralMin <= 0 {
		o.SpectralMin = DefaultSpectralMin
	}
	return o
}

// Certificate is the proof (or proof attempt) accompanying a solved
// partition.
type Certificate struct {
	Verdict Verdict `json:"verdict"`
	// Lower and Upper bound the optimal residual cost: Upper is the
	// returned partition's cost, Lower the proven floor. Verdict
	// Optimal means Lower == Upper.
	Lower int64 `json:"lower"`
	Upper int64 `json:"upper"`
	// BBNodes is the number of branch-and-bound nodes expanded; with
	// verdict Optimal it is the size of the optimality proof.
	BBNodes int64 `json:"bb_nodes"`
	// Budget echoes the node budget the search ran under.
	Budget int64 `json:"budget"`
	// Components counts the non-trivial connected components solved;
	// Closed counts how many were proven optimal.
	Components int `json:"components"`
	Closed     int `json:"closed"`
	// Spectral reports whether any component engaged the spectral
	// seed+ordering.
	Spectral bool `json:"spectral,omitempty"`
}

// Result pairs the solved partition with its certificate. Part.Cost
// always equals Cert.Upper.
type Result struct {
	Part *core.Partition
	Cert Certificate
}

func init() {
	core.RegisterExactPartitioner(func(g *core.Graph) *core.Partition {
		return Solve(g, Options{}).Part
	})
}

// Solve runs the certified bipartitioner on g.
func Solve(g *core.Graph, opt Options) *Result {
	opt = opt.withDefaults()
	c := g.CSR()
	n := len(g.Nodes)

	// Incumbent portfolio: the heuristics this engine certifies, best
	// first by cost with a fixed preference order on ties. Every seed
	// is a valid partition, so Upper starts at the best heuristic and
	// can only improve.
	idx := make(map[*ir.Symbol]int32, n)
	for i, s := range g.Nodes {
		idx[s] = int32(i)
	}
	seeds := [][]bool{
		sidesOf(idx, n, g.PartitionFM()),
		sidesOf(idx, n, g.Partition()),
		sidesOf(idx, n, g.PartitionAnneal(annealSeed)),
	}

	comps := components(c, n)
	sort.SliceStable(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) < len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})

	best := make([]bool, n) // isolated nodes stay in bank X
	cert := Certificate{Budget: opt.NodeBudget}
	budget := opt.NodeBudget
	closedAll := true
	for _, comp := range comps {
		s := newCompSolver(c, comp, opt)
		if s.spectral {
			cert.Spectral = true
		}
		local := make([]bool, len(comp))
		for _, seed := range seeds {
			for li, v := range comp {
				local[li] = seed[v]
			}
			s.offerLocal(local)
		}
		s.refineIncumbent()
		s.search(&budget)
		cert.Components++
		cert.BBNodes += s.nodes
		lb, closed := s.lowerBound()
		cert.Lower += lb
		cert.Upper += s.ub
		if closed {
			cert.Closed++
		} else {
			closedAll = false
		}
		for li, v := range comp {
			best[v] = s.bestY[li]
		}
	}
	switch {
	case closedAll:
		cert.Verdict = Optimal
	case cert.Lower > 0:
		cert.Verdict = Bounded
	default:
		cert.Verdict = Budget
	}

	part := g.PartitionFromSides(best)
	part.Trace = []int64{c.Total, part.Cost}
	return &Result{Part: part, Cert: cert}
}

// sidesOf converts a Partition back to a side-assignment vector.
func sidesOf(idx map[*ir.Symbol]int32, n int, p *core.Partition) []bool {
	inY := make([]bool, n)
	for _, s := range p.SetY {
		inY[idx[s]] = true
	}
	return inY
}

// components returns the connected components over nodes with at least
// one edge, each as an ascending list of global node indices, in
// discovery (lowest-first-node) order.
func components(c *core.CSR, n int) [][]int32 {
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int32
	for i := 0; i < n; i++ {
		if c.Degree(i) == 0 || comp[i] >= 0 {
			continue
		}
		id := int32(len(out))
		stack := []int32{int32(i)}
		comp[i] = id
		var nodes []int32
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nodes = append(nodes, u)
			for h := c.Start[u]; h < c.Start[u+1]; h++ {
				if v := c.Adj[h]; comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		out = append(out, nodes)
	}
	return out
}

// tri is one packed triangle: cnt counts still-unassigned corners; the
// triangle contributes minw to the bound while all three remain
// unassigned.
type tri struct {
	minw int64
	cnt  int8
}

// compSolver is the branch-and-bound state for one component, over a
// local (remapped, sorted-adjacency) CSR copy.
type compSolver struct {
	n        int
	start    []int32
	adj      []int32
	w        []int64
	order    []int32 // decision order (local ids)
	spectral bool
	seedY    []bool // spectral seed candidate, nil without spectral

	assigned []bool
	inY      []bool
	eX, eY   []int64 // unassigned node's weight into each assigned side
	fixed    int64   // residual cost among assigned nodes
	sumMin   int64   // sum over unassigned of min(eX, eY)

	tris      []tri
	triOf     [][]int32
	triActive int64

	ub      int64
	bestY   []bool
	nodes   int64
	minOpen int64 // min bound among abandoned (budget-cut) subtrees
	seeded  bool
}

const infCost = int64(1)<<62 - 1

// newCompSolver builds the local view of one component. Adjacency rows
// are sorted by neighbour id, so the search is invariant to the order
// edges were inserted into the parent graph.
func newCompSolver(c *core.CSR, comp []int32, opt Options) *compSolver {
	n := len(comp)
	local := make(map[int32]int32, n)
	for li, v := range comp {
		local[v] = int32(li)
	}
	s := &compSolver{
		n:        n,
		start:    make([]int32, n+1),
		assigned: make([]bool, n),
		inY:      make([]bool, n),
		eX:       make([]int64, n),
		eY:       make([]int64, n),
		bestY:    make([]bool, n),
		ub:       infCost,
		minOpen:  infCost,
	}
	type half struct {
		to int32
		w  int64
	}
	rows := make([][]half, n)
	for li, v := range comp {
		for h := c.Start[v]; h < c.Start[v+1]; h++ {
			rows[li] = append(rows[li], half{local[c.Adj[h]], c.W[h]})
		}
		sort.Slice(rows[li], func(a, b int) bool { return rows[li][a].to < rows[li][b].to })
	}
	for li, row := range rows {
		s.start[li+1] = s.start[li] + int32(len(row))
		for _, h := range row {
			s.adj = append(s.adj, h.to)
			s.w = append(s.w, h.w)
		}
	}

	s.order = s.ordering(opt)
	if n <= triangleMaxNodes {
		s.packTriangles()
	}
	return s
}

// ordering picks the static decision order: the spectral embedding's
// most-polarised nodes first for large components, weighted degree
// descending otherwise, ties to the lower local id.
func (s *compSolver) ordering(opt Options) []int32 {
	order := make([]int32, s.n)
	for i := range order {
		order[i] = int32(i)
	}
	if s.n >= opt.SpectralMin {
		if v := spectralVector(s.n, s.start, s.adj, s.w); v != nil {
			s.spectral = true
			s.seedY = make([]bool, s.n)
			for i := range s.seedY {
				s.seedY[i] = v[i] < 0
			}
			sort.SliceStable(order, func(a, b int) bool {
				va, vb := abs64(v[order[a]]), abs64(v[order[b]])
				if va != vb {
					return va > vb
				}
				return order[a] < order[b]
			})
			return order
		}
	}
	deg := make([]int64, s.n)
	for i := 0; i < s.n; i++ {
		for h := s.start[i]; h < s.start[i+1]; h++ {
			deg[i] += s.w[h]
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// packTriangles greedily packs edge-disjoint triangles in (lowest
// corner, lowest edge) order; each contributes its minimum edge weight
// to the bound while all three corners are unassigned.
func (s *compSolver) packTriangles() {
	n := s.n
	// Dense edge index: eid[a*n+b] is the half-edge position of (a, b)
	// in a's row, or -1.
	eid := make([]int32, n*n)
	for i := range eid {
		eid[i] = -1
	}
	for a := 0; a < n; a++ {
		for h := s.start[a]; h < s.start[a+1]; h++ {
			eid[a*n+int(s.adj[h])] = h
		}
	}
	used := make([]bool, len(s.adj)) // by half-edge of the lower endpoint
	edgeUsed := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		return used[eid[int(a)*n+int(b)]]
	}
	markUsed := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		used[eid[int(a)*n+int(b)]] = true
	}
	weight := func(a, b int32) int64 {
		return s.w[eid[int(a)*n+int(b)]]
	}
	s.triOf = make([][]int32, n)
	for u := int32(0); u < int32(n); u++ {
		for h := s.start[u]; h < s.start[u+1]; h++ {
			v := s.adj[h]
			if v <= u || edgeUsed(u, v) {
				continue
			}
			for h2 := s.start[v]; h2 < s.start[v+1]; h2++ {
				t := s.adj[h2]
				if t <= v || eid[int(u)*n+int(t)] < 0 {
					continue
				}
				if edgeUsed(u, v) || edgeUsed(v, t) || edgeUsed(u, t) {
					continue
				}
				minw := weight(u, v)
				if w := weight(v, t); w < minw {
					minw = w
				}
				if w := weight(u, t); w < minw {
					minw = w
				}
				markUsed(u, v)
				markUsed(v, t)
				markUsed(u, t)
				id := int32(len(s.tris))
				s.tris = append(s.tris, tri{minw: minw, cnt: 3})
				s.triOf[u] = append(s.triOf[u], id)
				s.triOf[v] = append(s.triOf[v], id)
				s.triOf[t] = append(s.triOf[t], id)
				s.triActive += minw
				break // the (u,v) edge is now used; move to the next
			}
		}
	}
	if s.triOf == nil {
		s.triOf = make([][]int32, n)
	}
}

// offerLocal proposes a local side assignment as an incumbent; the
// solver keeps it if it beats the current one.
func (s *compSolver) offerLocal(inY []bool) {
	cost := s.cutCost(inY)
	if cost < s.ub {
		s.ub = cost
		copy(s.bestY, inY)
		s.seeded = true
	}
}

// cutCost is the residual (same-side) cost of a full local assignment.
func (s *compSolver) cutCost(inY []bool) int64 {
	var cost int64
	for a := int32(0); a < int32(s.n); a++ {
		for h := s.start[a]; h < s.start[a+1]; h++ {
			if b := s.adj[h]; b > a && inY[b] == inY[a] {
				cost += s.w[h]
			}
		}
	}
	return cost
}

// refineIncumbent hill-climbs the incumbent with single-node flips
// (best strict improvement, ties to the lower id) until it is locally
// optimal — a cheap polish that tightens the initial Upper bound.
func (s *compSolver) refineIncumbent() {
	if !s.seeded {
		return
	}
	cur := append([]bool(nil), s.bestY...)
	cost := s.ub
	for {
		best, bestGain := int32(-1), int64(0)
		for i := int32(0); i < int32(s.n); i++ {
			var same, cross int64
			for h := s.start[i]; h < s.start[i+1]; h++ {
				if cur[s.adj[h]] == cur[i] {
					same += s.w[h]
				} else {
					cross += s.w[h]
				}
			}
			if gain := same - cross; gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		cur[best] = !cur[best]
		cost -= bestGain
	}
	if cost < s.ub {
		s.ub = cost
		copy(s.bestY, cur)
	}
}

// search runs the depth-first branch-and-bound under the shared budget.
func (s *compSolver) search(budget *int64) {
	if s.spectral && s.seedY != nil {
		s.offerLocal(s.seedY)
		s.refineIncumbent()
	}
	s.dfs(0, budget)
}

func (s *compSolver) bound() int64 {
	return s.fixed + s.sumMin + s.triActive
}

func (s *compSolver) dfs(k int, budget *int64) {
	b := s.bound()
	if b >= s.ub {
		return // this subtree cannot strictly improve the incumbent
	}
	if k == s.n {
		s.ub = s.fixed
		copy(s.bestY, s.inY)
		return
	}
	if *budget <= 0 {
		// Abandoned, not pruned: its bound caps what the subtree could
		// still prove, so it joins the residual lower bound.
		if b < s.minOpen {
			s.minOpen = b
		}
		return
	}
	*budget--
	s.nodes++

	v := s.order[k]
	firstY := s.eY[v] < s.eX[v] // cheaper side first
	for pass := 0; pass < 2; pass++ {
		toY := firstY == (pass == 0)
		if k == 0 && toY {
			continue // symmetry: the first node is pinned to bank X
		}
		s.assign(v, toY)
		s.dfs(k+1, budget)
		s.unassign(v, toY)
	}
}

func (s *compSolver) assign(v int32, toY bool) {
	s.assigned[v] = true
	s.inY[v] = toY
	s.sumMin -= min64(s.eX[v], s.eY[v])
	if toY {
		s.fixed += s.eY[v]
	} else {
		s.fixed += s.eX[v]
	}
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := min64(s.eX[u], s.eY[u])
		if toY {
			s.eY[u] += s.w[h]
		} else {
			s.eX[u] += s.w[h]
		}
		s.sumMin += min64(s.eX[u], s.eY[u]) - old
	}
	for _, t := range s.triOf[v] {
		tr := &s.tris[t]
		tr.cnt--
		if tr.cnt == 2 {
			s.triActive -= tr.minw
		}
	}
}

func (s *compSolver) unassign(v int32, toY bool) {
	for _, t := range s.triOf[v] {
		tr := &s.tris[t]
		if tr.cnt == 2 {
			s.triActive += tr.minw
		}
		tr.cnt++
	}
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := min64(s.eX[u], s.eY[u])
		if toY {
			s.eY[u] -= s.w[h]
		} else {
			s.eX[u] -= s.w[h]
		}
		s.sumMin += min64(s.eX[u], s.eY[u]) - old
	}
	if toY {
		s.fixed -= s.eY[v]
	} else {
		s.fixed -= s.eX[v]
	}
	s.sumMin += min64(s.eX[v], s.eY[v])
	s.assigned[v] = false
}

// lowerBound returns the component's proven floor and whether the
// search closed (proved its incumbent optimal). A budget cut whose
// abandoned bounds all reached the incumbent still closes the search.
func (s *compSolver) lowerBound() (int64, bool) {
	if s.minOpen >= s.ub {
		return s.ub, true
	}
	return s.minOpen, false
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
