package cluster_test

import (
	"reflect"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/cluster"
	"dualbank/internal/explore/store"
)

// TestStoreCacheRoundTrip: a result published through the cache comes
// back field-for-field (timings deliberately excluded), every memory
// term of a multi-bank result included, is namespaced away from raw
// explorer keys in the same store, and is visible to a second store
// handle over the same directory — the cross-node path.
func TestStoreCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewStoreCache(s)

	classic := bench.Result{
		Bench:          "fir_32_1",
		Cycles:         1234,
		DupStores:      3,
		Duplicated:     []string{"x", "h"},
		CompileSeconds: 0.5,
		SimSeconds:     0.25,
	}
	classic.Mem.XData = 10
	classic.Mem.YData = 11
	classic.Mem.Stack = 12
	classic.Mem.Instr = 13
	multi := classic
	multi.Bench = "fft_1024"
	multi.Mem.Extra = []int{14, 15}
	multi.Mem.NBanks = 4
	for _, tc := range []struct {
		key string
		in  bench.Result
	}{
		{"run|fir_32_1|mode=Dup|part=fm|fmp=0|prof=false|dup=|engine=compiled|cfg", classic},
		{"run|fft_1024|mode=Dup|part=fm|fmp=0|prof=false|dup=|engine=compiled|cfg4", multi},
	} {
		key, in := tc.key, tc.in
		c.Put(key, in)
		out, ok := c.Get(key)
		if !ok {
			t.Fatal("published result not found")
		}
		want := in
		want.Bench = "" // the harness restores identity fields itself
		want.CompileSeconds, want.SimSeconds = 0, 0
		if !reflect.DeepEqual(out, want) {
			t.Errorf("round trip:\ngot  %+v\nwant %+v", out, want)
		}

		// The record lives under the l2 namespace, not the raw key: an
		// explorer checkpoint under the same raw key cannot collide.
		if _, ok := s.Get(key); ok {
			t.Error("L2 record stored under the raw key — namespace collision with explorer checkpoints")
		}
		if _, ok := s.Get("l2run|" + key); !ok {
			t.Error("L2 record absent from the l2run| namespace")
		}

		// A second handle over the same directory — another node — reads
		// the same result from disk.
		peer, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := cluster.NewStoreCache(peer).Get(key); !ok {
			t.Error("peer store handle cannot see the published result")
		} else if !reflect.DeepEqual(out, want) {
			t.Errorf("round trip through a peer:\ngot  %+v\nwant %+v", out, want)
		}
	}

	// Records the explorer marked infeasible never serve as results.
	s.Put("l2run|bad", store.Record{Err: "infeasible"})
	if _, ok := c.Get("bad"); ok {
		t.Error("infeasible record served as a cached result")
	}
	if _, ok := c.Get("never-written"); ok {
		t.Error("phantom hit for an unwritten key")
	}
}
