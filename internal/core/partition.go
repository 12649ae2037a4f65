package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// KPartition is the result of partitioning the interference graph over
// K banks: Side[i] is node i's bank, and Sets[b] holds the symbols
// assigned to bank b, in node order. Cost is the residual cost — the
// summed weight of edges whose endpoints share a bank, i.e. the
// parallel-access opportunities the partition could not satisfy.
type KPartition struct {
	K    int
	Sets [][]*ir.Symbol
	Side []int32
	Cost int64
	// Trace records the cost after each committed greedy move,
	// starting with the initial all-in-bank-0 cost; exposed so tests
	// can check the Figure 5 walk (7 -> 3 -> 2).
	Trace []int64
}

// String renders the partition for diagnostics, one line per bank
// named as the machine names it (X, Y, B2, …).
func (p *KPartition) String() string {
	var sb strings.Builder
	for b, set := range p.Sets {
		ns := make([]string, len(set))
		for i, s := range set {
			ns[i] = s.Name
		}
		fmt.Fprintf(&sb, "%v: {%s}\n", machine.BankAt(b), strings.Join(ns, ", "))
	}
	fmt.Fprintf(&sb, "cost: %d", p.Cost)
	return sb.String()
}

// exactPartition is the registered certified-exact backend. It lives
// in internal/exact (which imports this package), so dispatch goes
// through a function value rather than a direct call.
var exactPartition func(*Graph, int) *KPartition

// RegisterExactPartitioner installs the MethodExact backend. Called
// from internal/exact's init; last registration wins.
func RegisterExactPartitioner(f func(*Graph, int) *KPartition) { exactPartition = f }

// PartitionK partitions the graph's nodes over k banks with the chosen
// method. fmPasses bounds FM's refinement passes: fmPasses < 0 means
// the library default, and the bound only matters under MethodFM (the
// other methods fix their own refinement policy).
//
// Where an algorithm's two-bank form differs from its k-way form, the
// dispatch picks by k: greedy is the paper's walk at k = 2, FM replays
// that walk on an indexed gain heap, and the exact backend runs its
// 2-way search. KL refines the greedy result at every k, as FM does
// beyond two banks.
func (g *Graph) PartitionK(k int, m Method, fmPasses int) *KPartition {
	if k < 2 {
		panic(fmt.Sprintf("core: PartitionK with k = %d", k))
	}
	switch m {
	case MethodKL:
		return g.refine(g.greedy(k), fmMaxPasses)
	case MethodAnneal:
		return g.anneal(k, 1)
	case MethodFM:
		if fmPasses < 0 {
			fmPasses = fmMaxPasses
		}
		if k == 2 {
			return g.fm(fmPasses)
		}
		return g.refine(g.greedyK(k), fmPasses)
	case MethodExact:
		if exactPartition == nil {
			panic("core: exact partitioner not linked (import dualbank/internal/exact)")
		}
		return exactPartition(g, k)
	default:
		return g.greedy(k)
	}
}

// KPartitionFromSides materialises a KPartition from an explicit bank
// assignment (side[i] is node i's bank), computing the residual cost
// from the CSR view. The partition keeps side as its Side, so the
// caller hands the slice over. The exact backend and tests use it.
func (g *Graph) KPartitionFromSides(k int, side []int32) *KPartition {
	p := &KPartition{K: k, Sets: make([][]*ir.Symbol, k), Side: side, Cost: g.CSR().cutCostK(side)}
	for i, s := range g.Nodes {
		p.Sets[side[i]] = append(p.Sets[side[i]], s)
	}
	return p
}

// cutCostK returns the summed weight of edges whose endpoints share a
// bank under the given assignment.
func (c *CSR) cutCostK(side []int32) int64 {
	var cost int64
	for i := range side {
		for h := c.Start[i]; h < c.Start[i+1]; h++ {
			if j := c.Adj[h]; int(j) > i && side[j] == side[i] {
				cost += c.W[h]
			}
		}
	}
	return cost
}

// bankWeights fills into[b] with node i's edge weight into bank b, in
// one pass over its edges. Moving i from its bank to dest lowers the
// cost by into[side[i]] - into[dest].
func (c *CSR) bankWeights(side []int32, i int, into []int64) {
	clear(into)
	for h := c.Start[i]; h < c.Start[i+1]; h++ {
		into[side[c.Adj[h]]] += c.W[h]
	}
}

// pref is node i's tie-break preference: the canonical first-reference
// rank on scanner-built graphs, the node index otherwise.
func (g *Graph) pref(i int) int32 {
	if g.tiePref != nil {
		return g.tiePref[i]
	}
	return int32(i)
}

// greedy is the greedy partition over k banks: the paper's walk on two
// banks, its k-way generalization beyond.
func (g *Graph) greedy(k int) *KPartition {
	if k == 2 {
		return g.walk()
	}
	return g.greedyK(k)
}

// walk bipartitions the graph's nodes with the paper's greedy
// algorithm (Figure 5):
//
//	Start with every node in set 1 and set 2 empty; the cost is the
//	total weight of edges inside set 1. Repeatedly move the node whose
//	transfer to set 2 yields the greatest net decrease in cost — the
//	weight of its edges into set 1 minus the weight of its edges into
//	set 2 — stopping as soon as no move decreases the cost.
//
// Ties are broken in favour of the preferred node. Hand-assembled
// graphs use the node-index rule ("later node wins"), which reproduces
// the published walk on the Figure 5 example. Graphs built by the
// program scanner carry the canonical first-reference ranking
// (Graph.tiePref) instead, which keeps the walk independent of
// declaration order and naming: ties go to the earliest-referenced
// symbol, except on a total tie — every eligible move equally good,
// the cost model blind — where the walk prefers the candidate
// referenced farthest (in first-use order) from the symbols already
// migrated, because operands of a single expression are natural
// pairing partners and migrating them all together would forfeit
// exactly the parallelism the partition exists to expose. The walk is
// O(v²) and, as the paper reports, achieves near-ideal partitions in
// practice; FM (partition_fm.go) replays it move for move on a gain
// heap in O((V + E) log V), and the tests hold FM to this walk as the
// reference.
func (g *Graph) walk() *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	side := make([]int32, n)

	// dist[i] is the first-use distance from node i to the nearest node
	// already moved to set 2; "infinite" while set 2 is empty. Only
	// meaningful on scanner-built graphs (tiePref ranks are first-use
	// positions); hand-assembled graphs skip the diversity criterion.
	const farAway = int32(1) << 30
	var dist []int32
	if g.tiePref != nil {
		dist = make([]int32, n)
		for i := range dist {
			dist[i] = farAway
		}
	}
	deltas := make([]int64, n)
	cost := c.Total
	trace := []int64{cost}
	for {
		// Pass 1: compute every node's net decrease — edges into set 1
		// minus edges into set 2 — and whether the cost model offers any
		// signal (some eligible move strictly better than another).
		bestDelta, signal := int64(0), false
		for i := 0; i < n; i++ {
			deltas[i] = 0
			if side[i] != 0 {
				continue
			}
			var delta int64
			for h := c.Start[i]; h < c.Start[i+1]; h++ {
				if side[c.Adj[h]] != 0 {
					delta -= c.W[h]
				} else {
					delta += c.W[h]
				}
			}
			if delta <= 0 {
				continue
			}
			deltas[i] = delta
			if bestDelta != 0 && delta != bestDelta {
				signal = true
			}
			if delta > bestDelta {
				bestDelta = delta
			}
		}
		if bestDelta == 0 {
			break
		}
		// Pass 2: pick among the best moves. The diversity criterion
		// applies only on a total tie — every eligible move equally
		// good — where the model is blind and clustering is the risk.
		best := -1
		for i := 0; i < n; i++ {
			if deltas[i] != bestDelta {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if dist != nil && !signal && dist[i] != dist[best] {
				if dist[i] > dist[best] {
					best = i
				}
			} else if g.pref(i) > g.pref(best) {
				best = i
			}
		}
		side[best] = 1
		cost -= bestDelta
		trace = append(trace, cost)
		if dist != nil {
			for i := 0; i < n; i++ {
				if d := g.tiePref[i] - g.tiePref[best]; d < 0 && -d < dist[i] {
					dist[i] = -d
				} else if d >= 0 && d < dist[i] {
					dist[i] = d
				}
			}
		}
	}

	p := g.KPartitionFromSides(2, side)
	p.Trace = trace
	return p
}

// greedyK generalizes the paper's Figure 5 walk to k banks: every node
// starts in bank 0 and the walk repeatedly commits the (node,
// destination) move with the greatest net cost decrease, stopping when
// no move strictly decreases the cost. Ties break towards the
// preferred node and, between destinations of one node, towards the
// lowest bank index, which keeps the walk deterministic and makes bank
// indexes canonical (a fresh bank is only opened when no used bank
// does as well). Unlike the two-bank walk it may move a node back to
// bank 0, and it has no total-tie diversity rule.
func (g *Graph) greedyK(k int) *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	side := make([]int32, n)
	into := make([]int64, k)
	cost := c.Total
	trace := []int64{cost}
	for {
		bestI, bestDest, bestDelta := -1, int32(0), int64(0)
		for i := 0; i < n; i++ {
			c.bankWeights(side, i, into)
			for dest := int32(0); dest < int32(k); dest++ {
				if dest == side[i] {
					continue
				}
				delta := into[side[i]] - into[dest]
				if delta <= 0 {
					continue
				}
				better := delta > bestDelta
				if delta == bestDelta && bestI >= 0 {
					if p, bp := g.pref(i), g.pref(bestI); p > bp || (p == bp && dest < bestDest) {
						better = true
					}
				}
				if better {
					bestI, bestDest, bestDelta = i, dest, delta
				}
			}
		}
		if bestI < 0 {
			break
		}
		side[bestI] = bestDest
		cost -= bestDelta
		trace = append(trace, cost)
	}

	p := g.KPartitionFromSides(k, side)
	p.Trace = trace
	return p
}

// refine improves a partition with Kernighan–Lin/FM-style passes: each
// pass tentatively moves every node once to its best other bank in
// best-gain order (negative gains allowed, so a pass can climb out of
// a local optimum; strictly higher gain wins, ties to the lowest node,
// then the lowest bank), keeps the best prefix of moves, and passes
// repeat until one fails to strictly improve the cut. It only commits
// strict improvements, so it is never worse than its start, and it
// keeps the start's Trace. It takes over start's Side.
func (g *Graph) refine(start *KPartition, passes int) *KPartition {
	k := start.K
	n := len(g.Nodes)
	c := g.CSR()
	side := start.Side
	cost := start.Cost

	type move struct{ i, to int32 }
	state := make([]int32, n)
	locked := make([]bool, n)
	into := make([]int64, k)
	moves := make([]move, 0, n)
	for pass := 0; pass < passes; pass++ {
		copy(state, side)
		clear(locked)
		cur, best, bestPrefix := cost, cost, 0
		moves = moves[:0]
		for step := 0; step < n; step++ {
			bi, bdest, bg := -1, int32(0), int64(math.MinInt64)
			for i := 0; i < n; i++ {
				if locked[i] {
					continue
				}
				c.bankWeights(state, i, into)
				for dest := int32(0); dest < int32(k); dest++ {
					if dest == state[i] {
						continue
					}
					if gn := into[state[i]] - into[dest]; gn > bg {
						bi, bdest, bg = i, dest, gn
					}
				}
			}
			if bi < 0 {
				break
			}
			moves = append(moves, move{int32(bi), bdest})
			state[bi] = bdest
			locked[bi] = true
			cur -= bg
			if cur < best {
				best, bestPrefix = cur, len(moves)
			}
		}
		if best >= cost {
			break
		}
		for _, mv := range moves[:bestPrefix] {
			side[mv.i] = mv.to
		}
		cost = best
	}

	p := g.KPartitionFromSides(k, side)
	p.Trace = start.Trace
	return p
}

// anneal partitions by simulated annealing with a geometric cooling
// schedule, in the spirit of Sudarsanam & Malik's constraint-graph
// labelling: a move is a random node and, beyond two banks, a random
// other bank. On two banks the other bank is the only move, and no
// destination is drawn. The seed makes it deterministic.
func (g *Graph) anneal(k int, seed int64) *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	total := c.Total
	rng := rand.New(rand.NewSource(seed))
	side := make([]int32, n)
	bestSide := make([]int32, n)
	into := make([]int64, k)
	cost := total
	best := cost

	if n > 0 && total > 0 {
		temp := float64(total)
		const cooling = 0.95
		for ; temp > 0.01; temp *= cooling {
			for step := 0; step < 4*n; step++ {
				i := rng.Intn(n)
				dest := 1 - side[i]
				if k > 2 {
					dest = int32(rng.Intn(k - 1))
					if dest >= side[i] {
						dest++
					}
				}
				c.bankWeights(side, i, into)
				gain := into[side[i]] - into[dest]
				if gain >= 0 || rng.Float64() < math.Exp(float64(gain)/temp) {
					side[i] = dest
					cost -= gain
					if cost < best {
						best = cost
						copy(bestSide, side)
					}
				}
			}
		}
	}
	p := g.KPartitionFromSides(k, bestSide)
	p.Trace = []int64{total, p.Cost}
	return p
}
