package cluster

import (
	"dualbank/internal/bench"
	"dualbank/internal/explore/store"
)

// l2Prefix namespaces the serving tier's result records inside the
// shared store so they can never collide with the explorer's
// checkpoint keys living in the same directory.
const l2Prefix = "l2run|"

// StoreCache adapts the explorer's content-addressed checkpoint store
// into the harness's L2 result cache. Gets fall through the in-memory
// index to disk, so records another node published after this one
// opened the store are visible; Puts are atomic write-throughs. Only
// successful measurements are stored, and timings are deliberately
// dropped: a cached result's compile/sim seconds describe some other
// node's past, not this request.
type StoreCache struct {
	s *store.Store
}

// NewStoreCache wraps a store as a shared L2 result cache.
func NewStoreCache(s *store.Store) *StoreCache { return &StoreCache{s: s} }

var _ bench.ResultCache = (*StoreCache)(nil)

// Get loads the result stored under key, if any node has published it.
func (c *StoreCache) Get(key string) (bench.Result, bool) {
	rec, ok := c.s.GetOrLoad(l2Prefix + key)
	if !ok || rec.Err != "" {
		return bench.Result{}, false
	}
	return bench.Result{
		Cycles:     rec.Cycles,
		Mem:        rec.Mem(),
		DupStores:  rec.DupStores,
		Duplicated: rec.Duplicated,
	}, true
}

// Put publishes one computed result under key. Write failures are
// swallowed: the L2 is a cache, and a node that cannot reach the
// shared disk must keep serving from its own memory.
func (c *StoreCache) Put(key string, r bench.Result) {
	rec := store.Record{
		Bench:      r.Bench,
		Cycles:     r.Cycles,
		DupStores:  r.DupStores,
		Duplicated: r.Duplicated,
	}
	rec.SetMem(r.Mem)
	c.s.Put(l2Prefix+key, rec)
}
