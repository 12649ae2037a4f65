package exact

import "dualbank/internal/core"

// This file generalizes the certified two-bank search to k-way
// partitioning for machines with more than two banks. The k-way tree
// is far bushier (branching factor k instead of 2), so the solver uses
// a smaller default budget and a weaker bound — the triangle-packing
// term is dropped, because a triangle splits residual-free across
// three banks — and therefore falls back to Bounded verdicts sooner,
// which is the documented contract. Symmetry is broken k-ary: along
// any root-to-node path a node may only enter a bank index at most one
// past the highest index already used, so each set-partition is
// enumerated once rather than k! times.

// DefaultNodeBudgetK is the branch-and-bound node budget for the k-way
// solver when Options leaves it zero: a quarter of the 2-way budget,
// reflecting the bushier tree.
const DefaultNodeBudgetK = DefaultNodeBudget / 4

// compSolverK is the k-ary branch-and-bound state for one component;
// its decision order is weighted degree descending.
type compSolverK struct {
	component
	k     int
	order []int32

	assigned []bool
	side     []int32
	e        [][]int64 // e[v][b]: v's edge weight into assigned bank b
	fixed    int64
	sumMin   int64  // sum over unassigned of min_b e[v][b]
	tried    []bool // tried[d*k+b]: the node at depth d has tried bank b
}

func newCompSolverK(c *core.CSR, comp []int32, k int) *compSolverK {
	n := len(comp)
	s := &compSolverK{
		component: newComponent(c, comp),
		k:         k,
		assigned:  make([]bool, n),
		side:      make([]int32, n),
		e:         make([][]int64, n),
		tried:     make([]bool, n*k),
	}
	for i := range s.e {
		s.e[i] = make([]int64, k)
	}
	s.order = s.byDegree()
	return s
}

// search starts at the root with no bank used, so the first node
// decided enters bank 0 alone.
func (s *compSolverK) search(budget *int64) { s.dfs(0, -1, budget) }

func (s *compSolverK) minE(v int32) int64 {
	m := s.e[v][0]
	for b := 1; b < s.k; b++ {
		if s.e[v][b] < m {
			m = s.e[v][b]
		}
	}
	return m
}

// dfs expands the decision at depth d. maxUsed is the highest bank
// index assigned along the current path (-1 at the root); the k-ary
// symmetry pin only allows banks 0..maxUsed+1, so relabelings of the
// same set-partition are never explored twice.
func (s *compSolverK) dfs(d int, maxUsed int, budget *int64) {
	bound := s.fixed + s.sumMin
	if bound >= s.ub {
		return
	}
	if d == s.n {
		s.ub = s.fixed
		copy(s.best, s.side)
		return
	}
	if *budget <= 0 {
		if bound < s.minOpen {
			s.minOpen = bound
		}
		return
	}
	*budget--
	s.nodes++

	v := s.order[d]
	limit := maxUsed + 1
	if limit >= s.k {
		limit = s.k - 1
	}
	// Cheapest bank first among the permitted prefix; ties to the lower
	// bank index keep the search deterministic.
	tried := s.tried[d*s.k : d*s.k+limit+1]
	clear(tried)
	for range tried {
		bb, bw := -1, infCost
		for b := 0; b <= limit; b++ {
			if !tried[b] && s.e[v][b] < bw {
				bb, bw = b, s.e[v][b]
			}
		}
		tried[bb] = true
		s.assign(v, int32(bb))
		mu := maxUsed
		if bb > mu {
			mu = bb
		}
		s.dfs(d+1, mu, budget)
		s.unassign(v, int32(bb))
	}
}

func (s *compSolverK) assign(v int32, b int32) {
	s.assigned[v] = true
	s.side[v] = b
	s.sumMin -= s.minE(v)
	s.fixed += s.e[v][b]
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := s.minE(u)
		s.e[u][b] += s.w[h]
		s.sumMin += s.minE(u) - old
	}
}

func (s *compSolverK) unassign(v int32, b int32) {
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := s.minE(u)
		s.e[u][b] -= s.w[h]
		s.sumMin += s.minE(u) - old
	}
	s.fixed -= s.e[v][b]
	s.sumMin += s.minE(v)
	s.assigned[v] = false
}
