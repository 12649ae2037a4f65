package core

// fmMaxPasses is FM's default refinement-pass bound, and KL's.
const fmMaxPasses = 8

// fm is the fast compile path's two-bank partitioner: a
// Fiduccia–Mattheyses-style bipartitioner over an indexed gain heap.
//
// Phase 1 replays the paper's greedy walk (Figure 5) exactly — same
// moves, same tie-breaks, same trace — but with incremental gain
// maintenance: instead of recomputing every node's move delta from
// scratch each round (the O(v²) inner loop of Graph.walk), node gains
// live in a max-heap that knows each node's position, with O(log v)
// extraction and O(degree · log v) updates per move, making the walk
// O((V + E) log V) apart from the total ties of scanner-built graphs,
// whose tied cohort it walks as Graph.walk does.
//
// Phase 2 runs classic FM refinement passes: every node is tentatively
// flipped once in best-gain order (negative gains allowed, so the pass
// can climb out of the greedy walk's local optimum), the best prefix
// of flips is kept, and passes repeat until one fails to strictly
// improve the cut. Because phase 1 reproduces greedy exactly and
// phase 2 only ever commits strict improvements, FM is never worse
// than greedy, and produces the *identical* bank image whenever it
// cannot improve on it — the property the differential tests pin.
//
// passes == 0 stops after the greedy-equivalent phase 1 (the cheapest
// configuration, identical to the paper's walk); larger values allow
// up to that many phase-2 passes. The pass loop still exits early as
// soon as a pass fails to strictly improve the cut, so raising the
// bound beyond the point of convergence changes nothing. The
// design-space explorer enumerates this knob.
func (g *Graph) fm(passes int) *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	side := make([]int32, n)
	var q gainQueue
	q.init(n)

	// Phase 1: the greedy walk with incremental gains. A node's gain
	// starts as its weighted degree (everything is on side X), and
	// moving b to Y lowers each still-X neighbour's gain by 2w. The
	// walk must replay Graph.walk move for move, so extraction uses
	// the same tie-breaks: canonical first-use ranks on scanner-built
	// graphs (with the total-tie diversity rule — see walk), the
	// node-index rule otherwise.
	q.reset(g.tiePref)
	for i := 0; i < n; i++ {
		q.insert(int32(i), c.weightedDegree(i))
	}
	cost := c.Total
	trace := []int64{cost}
	var moved []int32
	for {
		b, ok := q.popGreedy(moved)
		if !ok {
			break
		}
		side[b] = 1
		cost -= q.gain[b]
		trace = append(trace, cost)
		if q.rank != nil {
			moved = append(moved, q.rank[b])
		}
		for h := c.Start[b]; h < c.Start[b+1]; h++ {
			a := c.Adj[h]
			q.update(a, q.gain[a]-2*c.W[h])
		}
	}

	// Phase 2: FM refinement passes over the phase-1 partition. A node
	// leaves the queue when it flips, which locks it for the pass.
	state := make([]int32, n)
	flips := make([]int32, 0, n)
	var into [2]int64
	for pass := 0; pass < passes; pass++ {
		copy(state, side)
		q.reset(nil)
		for i := 0; i < n; i++ {
			c.bankWeights(state, i, into[:])
			q.insert(int32(i), into[state[i]]-into[1-state[i]])
		}
		cur, best, bestPrefix := cost, cost, 0
		flips = flips[:0]
		for {
			b, ok := q.pop()
			if !ok {
				break
			}
			state[b] = 1 - state[b]
			cur -= q.gain[b]
			flips = append(flips, b)
			if cur < best {
				best, bestPrefix = cur, len(flips)
			}
			for h := c.Start[b]; h < c.Start[b+1]; h++ {
				a := c.Adj[h]
				if state[a] == state[b] {
					q.update(a, q.gain[a]+2*c.W[h])
				} else {
					q.update(a, q.gain[a]-2*c.W[h])
				}
			}
		}
		if best >= cost {
			break
		}
		for _, i := range flips[:bestPrefix] {
			side[i] = 1 - side[i]
		}
		cost = best
	}

	p := g.KPartitionFromSides(2, side)
	p.Trace = trace
	return p
}

// gainQueue is FM's gain structure: a binary max-heap of node indexes
// that records each node's heap position, so a gain change sifts the
// node in place and no stale entry is left behind. It orders nodes by
// gain, then by a tie key: the higher key wins, and the key is a rank
// (rank non-nil) or the node index. Both are total orders on the nodes
// that can move, so the pop order does not depend on the heap's
// layout. Its storage does not depend on the edge weights.
type gainQueue struct {
	heap []int32 // node indexes in heap order
	pos  []int32 // each node's heap position, -1 once it leaves
	gain []int64 // each node's gain, kept after it leaves
	rank []int32 // tie key by node; nil means the node index
}

func (q *gainQueue) init(n int) {
	q.heap = make([]int32, 0, n)
	q.pos = make([]int32, n)
	q.gain = make([]int64, n)
	for i := range q.pos {
		q.pos[i] = -1
	}
}

// reset empties the queue and sets its tie key.
func (q *gainQueue) reset(rank []int32) {
	for _, i := range q.heap {
		q.pos[i] = -1
	}
	q.heap = q.heap[:0]
	q.rank = rank
}

// above reports whether node a orders before node b.
func (q *gainQueue) above(a, b int32) bool {
	if q.gain[a] != q.gain[b] {
		return q.gain[a] > q.gain[b]
	}
	if q.rank != nil {
		return q.rank[a] > q.rank[b]
	}
	return a > b
}

func (q *gainQueue) insert(i int32, g int64) {
	q.gain[i] = g
	q.heap = append(q.heap, i)
	q.up(len(q.heap)-1, i)
}

// update sets node i's gain and sifts it in place; a no-op once i has
// left the queue.
func (q *gainQueue) update(i int32, g int64) {
	p := q.pos[i]
	if p < 0 {
		return
	}
	old := q.gain[i]
	q.gain[i] = g
	if g > old {
		q.up(int(p), i)
	} else {
		q.down(int(p), i)
	}
}

// pop takes the top node out of the queue.
func (q *gainQueue) pop() (int32, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	i := q.heap[0]
	q.remove(i)
	return i, true
}

// remove takes queued node i out of the queue: the last entry fills
// its place and sifts from there.
func (q *gainQueue) remove(i int32) {
	p := int(q.pos[i])
	q.pos[i] = -1
	last := len(q.heap) - 1
	j := q.heap[last]
	q.heap = q.heap[:last]
	if p < last {
		q.up(p, j)
		q.down(int(q.pos[j]), j)
	}
}

// up places node i at heap position p, or above it while i orders
// before its parent.
func (q *gainQueue) up(p int, i int32) {
	for p > 0 {
		parent := (p - 1) / 2
		j := q.heap[parent]
		if !q.above(i, j) {
			break
		}
		q.heap[p] = j
		q.pos[j] = int32(p)
		p = parent
	}
	q.heap[p] = i
	q.pos[i] = int32(p)
}

// down places node i at heap position p, or below it while a child
// orders before i.
func (q *gainQueue) down(p int, i int32) {
	n := len(q.heap)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && q.above(q.heap[c+1], q.heap[c]) {
			c++
		}
		j := q.heap[c]
		if !q.above(j, i) {
			break
		}
		q.heap[p] = j
		q.pos[j] = int32(p)
		p = c
	}
	q.heap[p] = i
	q.pos[i] = int32(p)
}

// popGreedy is pop for the phase-1 replay of the greedy walk. It keeps
// a top whose gain is not positive — the walk's stopping rule. With
// first-use ranks it also applies the walk's total-tie rule: when every
// queued node with positive gain ties the top's gain, the one whose
// rank lies farthest from the moved nodes' ranks wins, then the higher
// rank. Nodes tying the top form the subtree at the root whose gain
// equals the top's.
func (q *gainQueue) popGreedy(moved []int32) (int32, bool) {
	if len(q.heap) == 0 || q.gain[q.heap[0]] <= 0 {
		return 0, false
	}
	best := q.heap[0]
	if top := q.gain[best]; q.rank != nil && q.onlyTies(0, top) {
		best, _ = q.farthest(0, top, moved, best, prefDist(q.rank[best], moved))
	}
	q.remove(best)
	return best, true
}

// onlyTies reports whether the subtree at heap position p holds no
// positive gain other than g: below a node of another gain, every gain
// is at most that node's.
func (q *gainQueue) onlyTies(p int, g int64) bool {
	if p >= len(q.heap) {
		return true
	}
	if gi := q.gain[q.heap[p]]; gi != g {
		return gi <= 0
	}
	return q.onlyTies(2*p+1, g) && q.onlyTies(2*p+2, g)
}

// farthest returns, of best and the tied nodes at and below heap
// position p, the one whose rank lies farthest from moved, ties to the
// higher rank, with its distance; bd is best's distance.
func (q *gainQueue) farthest(p int, g int64, moved []int32, best, bd int32) (int32, int32) {
	if p >= len(q.heap) || q.gain[q.heap[p]] != g {
		return best, bd
	}
	i := q.heap[p]
	if d := prefDist(q.rank[i], moved); d > bd || (d == bd && q.rank[i] > q.rank[best]) {
		best, bd = i, d
	}
	best, bd = q.farthest(2*p+1, g, moved, best, bd)
	return q.farthest(2*p+2, g, moved, best, bd)
}

// prefDist is the first-use distance from rank p to the nearest moved
// node's rank; "infinite" while nothing has moved.
func prefDist(p int32, moved []int32) int32 {
	d := int32(1) << 30
	for _, m := range moved {
		dd := p - m
		if dd < 0 {
			dd = -dd
		}
		if dd < d {
			d = dd
		}
	}
	return d
}
