package core

// fmMaxPasses is FM's default refinement-pass bound, and KL's.
const fmMaxPasses = 8

// fm is the fast compile path's two-bank partitioner: a
// Fiduccia–Mattheyses-style gain-bucket bipartitioner.
//
// Phase 1 replays the paper's greedy walk (Figure 5) exactly — same
// moves, same tie-breaks, same trace — but with incremental gain
// maintenance: instead of recomputing every node's move delta from
// scratch each round (the O(v²) inner loop of Graph.walk), node gains
// live in a gain-bucket structure with O(1) best-move extraction and
// O(degree) updates per move, making the walk O(V + E + moves·deg).
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
	gain := make([]int64, n)

	var pmax int64
	for i := 0; i < n; i++ {
		if d := c.weightedDegree(i); d > pmax {
			pmax = d
		}
	}
	var q gainQueue
	q.init(n, pmax)

	// Phase 1: the greedy walk with incremental gains. A node's gain
	// starts as its weighted degree (everything is on side X), and
	// moving b to Y lowers each still-X neighbour's gain by 2w. The
	// walk must replay Graph.walk move for move, so extraction uses
	// the same tie-breaks: canonical first-reference ranks on
	// scanner-built graphs (with the total-tie diversity rule — see
	// walk), the node-index rule otherwise.
	cost := c.Total
	var trace []int64
	if q.useHeap && g.tiePref != nil {
		// Wide-range profiled graph with canonical ranks: the lazy
		// heap cannot see the whole tied cohort at once, so replay the
		// reference walk directly instead of teaching it the diversity
		// rule. This path keeps phase 1 exact on the rare fallback;
		// phase 2 below is unaffected.
		seed := g.walk()
		side = seed.Side
		cost = seed.Cost
		trace = seed.Trace
	} else {
		trace = append(trace, cost)
		var moved []int32
		for i := 0; i < n; i++ {
			gain[i] = c.weightedDegree(i)
			q.insert(int32(i), gain[i])
		}
		for {
			b, ok := q.popGreedy(g.tiePref, moved)
			if !ok {
				break
			}
			side[b] = 1
			cost -= gain[b]
			trace = append(trace, cost)
			if g.tiePref != nil {
				moved = append(moved, g.tiePref[b])
			}
			for h := c.Start[b]; h < c.Start[b+1]; h++ {
				a := c.Adj[h]
				if side[a] != 0 {
					continue
				}
				gain[a] -= 2 * c.W[h]
				q.update(a, gain[a])
			}
		}
	}

	// Phase 2: FM refinement passes over the phase-1 partition.
	state := make([]int32, n)
	locked := make([]bool, n)
	flips := make([]int32, 0, n)
	var into [2]int64
	for pass := 0; pass < passes; pass++ {
		copy(state, side)
		clear(locked)
		q.reset()
		for i := 0; i < n; i++ {
			c.bankWeights(state, i, into[:])
			gain[i] = into[state[i]] - into[1-state[i]]
			q.insert(int32(i), gain[i])
		}
		cur, best, bestPrefix := cost, cost, 0
		flips = flips[:0]
		for {
			b, ok := q.popMax(false)
			if !ok {
				break
			}
			state[b] = 1 - state[b]
			locked[b] = true
			cur -= gain[b]
			flips = append(flips, b)
			if cur < best {
				best, bestPrefix = cur, len(flips)
			}
			for h := c.Start[b]; h < c.Start[b+1]; h++ {
				a := c.Adj[h]
				if locked[a] {
					continue
				}
				if state[a] == state[b] {
					gain[a] += 2 * c.W[h]
				} else {
					gain[a] -= 2 * c.W[h]
				}
				q.update(a, gain[a])
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

// gainQueue is the FM gain structure: a bucket array indexed by gain
// (offset by the maximum weighted degree) holding intrusive
// doubly-linked lists of nodes, with a monotone-repair pointer to the
// highest occupied bucket. Extraction finds the best bucket in
// amortised O(1); ties inside a bucket are broken towards the highest
// node index (matching the greedy walk's published tie-break) by a
// scan of that bucket.
//
// Profile-weighted graphs can have gain ranges far too wide for a
// bucket per distinct gain; past bucketRangeLimit the queue degrades
// to a lazy binary max-heap with the same ordering (O(log n)
// extraction), keeping behaviour identical.
type gainQueue struct {
	n   int
	off int64 // bucket index = gain + off

	// Bucket mode. sizes and posCount track the top-bucket population
	// and the number of queued nodes with strictly positive gain, so
	// the greedy replay can recognise a total tie (every eligible move
	// equally good) in O(1).
	buckets    []int32 // head node of each gain bucket, -1 if empty
	prev, next []int32
	sizes      []int32
	posCount   int
	maxB       int

	// Heap fallback for very wide gain ranges.
	useHeap bool
	heap    []heapEnt

	inQ  []bool
	gain []int64 // the queue's view of each node's current gain
}

type heapEnt struct {
	g int64
	i int32
}

// bucketRangeLimit caps the bucket array at 2M entries (8 MiB of
// heads); gain ranges beyond this use the heap fallback.
const bucketRangeLimit = 1 << 21

func (q *gainQueue) init(n int, pmax int64) {
	q.n = n
	q.off = pmax
	q.inQ = make([]bool, n)
	q.gain = make([]int64, n)
	if r := 2*pmax + 1; r <= bucketRangeLimit {
		q.buckets = make([]int32, r)
		for i := range q.buckets {
			q.buckets[i] = -1
		}
		q.prev = make([]int32, n)
		q.next = make([]int32, n)
		q.sizes = make([]int32, r)
		q.posCount = 0
		q.maxB = -1
	} else {
		q.useHeap = true
		q.heap = make([]heapEnt, 0, n)
	}
}

// reset empties the queue for reuse.
func (q *gainQueue) reset() {
	for i := range q.inQ {
		q.inQ[i] = false
	}
	if q.useHeap {
		q.heap = q.heap[:0]
		return
	}
	for i := range q.buckets {
		q.buckets[i] = -1
	}
	for i := range q.sizes {
		q.sizes[i] = 0
	}
	q.posCount = 0
	q.maxB = -1
}

func (q *gainQueue) insert(i int32, g int64) {
	q.inQ[i] = true
	q.gain[i] = g
	if q.useHeap {
		q.push(heapEnt{g, i})
		return
	}
	b := int(g + q.off)
	q.prev[i] = -1
	q.next[i] = q.buckets[b]
	if q.next[i] >= 0 {
		q.prev[q.next[i]] = i
	}
	q.buckets[b] = i
	q.sizes[b]++
	if g > 0 {
		q.posCount++
	}
	if b > q.maxB {
		q.maxB = b
	}
}

// update moves node i to its new gain bucket; a no-op if i has already
// been extracted.
func (q *gainQueue) update(i int32, g int64) {
	if !q.inQ[i] {
		return
	}
	if q.useHeap {
		q.gain[i] = g
		q.push(heapEnt{g, i}) // lazy: stale entries are skipped on pop
		return
	}
	q.unlink(i)
	q.insert(i, g)
}

func (q *gainQueue) unlink(i int32) {
	if q.prev[i] >= 0 {
		q.next[q.prev[i]] = q.next[i]
	} else {
		q.buckets[q.gain[i]+q.off] = q.next[i]
	}
	if q.next[i] >= 0 {
		q.prev[q.next[i]] = q.prev[i]
	}
	q.sizes[q.gain[i]+q.off]--
	if q.gain[i] > 0 {
		q.posCount--
	}
}

// popMax extracts the node with the highest gain, ties towards the
// highest node index. With positiveOnly it refuses (and keeps) a best
// node whose gain is not strictly positive — the greedy walk's
// stopping rule.
func (q *gainQueue) popMax(positiveOnly bool) (int32, bool) {
	if q.useHeap {
		return q.heapPop(positiveOnly)
	}
	for q.maxB >= 0 && q.buckets[q.maxB] < 0 {
		q.maxB--
	}
	if q.maxB < 0 || (positiveOnly && int64(q.maxB)-q.off <= 0) {
		return 0, false
	}
	best := q.buckets[q.maxB]
	for i := q.next[best]; i >= 0; i = q.next[i] {
		if i > best {
			best = i
		}
	}
	q.unlink(best)
	q.inQ[best] = false
	return best, true
}

// popGreedy is popMax for the phase-1 replay of the canonical greedy
// walk: with first-reference ranks (pref non-nil, bucket mode) ties go
// to the highest rank, except on a total tie — every queued node with
// positive gain sits in the top bucket — where the candidate whose
// rank lies farthest from the already-moved nodes wins, exactly as in
// Graph.walk. Without ranks it degrades to popMax.
func (q *gainQueue) popGreedy(pref []int32, moved []int32) (int32, bool) {
	if q.useHeap || pref == nil {
		return q.popMax(true)
	}
	for q.maxB >= 0 && q.buckets[q.maxB] < 0 {
		q.maxB--
	}
	if q.maxB < 0 || int64(q.maxB)-q.off <= 0 {
		return 0, false
	}
	best := q.buckets[q.maxB]
	if q.sizes[q.maxB] == int32(q.posCount) {
		bd := prefDist(pref[best], moved)
		for i := q.next[best]; i >= 0; i = q.next[i] {
			if d := prefDist(pref[i], moved); d > bd || (d == bd && pref[i] > pref[best]) {
				best, bd = i, d
			}
		}
	} else {
		for i := q.next[best]; i >= 0; i = q.next[i] {
			if pref[i] > pref[best] {
				best = i
			}
		}
	}
	q.unlink(best)
	q.inQ[best] = false
	return best, true
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

// Heap fallback: a binary max-heap ordered by (gain, index) with lazy
// deletion — update pushes a fresh entry and pop discards entries
// whose recorded gain no longer matches the node's current gain.
func (q *gainQueue) push(e heapEnt) {
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(q.heap[p], q.heap[i]) {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func entLess(a, b heapEnt) bool {
	if a.g != b.g {
		return a.g < b.g
	}
	return a.i < b.i
}

func (q *gainQueue) heapPop(positiveOnly bool) (int32, bool) {
	for len(q.heap) > 0 {
		top := q.heap[0]
		if !q.inQ[top.i] || q.gain[top.i] != top.g {
			q.discardTop() // stale
			continue
		}
		if positiveOnly && top.g <= 0 {
			return 0, false
		}
		q.discardTop()
		q.inQ[top.i] = false
		return top.i, true
	}
	return 0, false
}

func (q *gainQueue) discardTop() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l <= last-1 && entLess(q.heap[big], q.heap[l]) {
			big = l
		}
		if r <= last-1 && entLess(q.heap[big], q.heap[r]) {
			big = r
		}
		if big == i {
			break
		}
		q.heap[i], q.heap[big] = q.heap[big], q.heap[i]
		i = big
	}
}
