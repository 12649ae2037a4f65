package core

// CSR is the compressed-sparse-row adjacency view of an interference
// graph: node i's incident half-edges occupy Adj[Start[i]:Start[i+1]]
// (neighbour node indices) with parallel weights in W. It is built
// once per program from the flat edge store and shared by every
// partitioner, replacing the per-partitioner adjacency rebuilds (and
// the map-keyed edge lookups) of the original implementation.
type CSR struct {
	Start []int32 // len(Nodes)+1 row offsets
	Adj   []int32 // neighbour indices, 2×Edges entries
	W     []int64 // weight of the edge to Adj[h]
	Total int64   // summed weight of all edges
}

// Degree returns the number of edges incident to node i.
func (c *CSR) Degree(i int) int { return int(c.Start[i+1] - c.Start[i]) }

// weightedDegree returns the summed weight of node i's incident edges
// — the gain of moving i while every node shares its bank.
func (c *CSR) weightedDegree(i int) int64 {
	var d int64
	for h := c.Start[i]; h < c.Start[i+1]; h++ {
		d += c.W[h]
	}
	return d
}

// CSR returns the graph's adjacency in compressed-sparse-row form,
// building it on first use and caching it until the edge set changes.
// Within a row, neighbours appear in edge-insertion order, so the view
// is deterministic.
func (g *Graph) CSR() *CSR {
	if g.csr != nil {
		return g.csr
	}
	n := len(g.Nodes)
	c := &CSR{
		Start: make([]int32, n+1),
		Adj:   make([]int32, 2*len(g.edges)),
		W:     make([]int64, 2*len(g.edges)),
	}
	for _, e := range g.edges {
		c.Start[e.u+1]++
		c.Start[e.v+1]++
		c.Total += e.w
	}
	for i := 0; i < n; i++ {
		c.Start[i+1] += c.Start[i]
	}
	// Fill using Start as a moving cursor, then shift it back: after
	// the loop Start[i] has advanced to the old Start[i+1].
	for _, e := range g.edges {
		c.Adj[c.Start[e.u]] = e.v
		c.W[c.Start[e.u]] = e.w
		c.Start[e.u]++
		c.Adj[c.Start[e.v]] = e.u
		c.W[c.Start[e.v]] = e.w
		c.Start[e.v]++
	}
	for i := n; i > 0; i-- {
		c.Start[i] = c.Start[i-1]
	}
	c.Start[0] = 0
	g.csr = c
	return c
}
