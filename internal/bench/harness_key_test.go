package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
)

// TestRunKeyDistinctConfigs holds the memo cache to the explorer's
// contract: every knob RunOptions exposes — mode, partitioner, FM pass
// bound, profile weighting, duplication set — must appear in the cache
// key, so two configurations that can produce different measurements
// never alias onto one entry.
func TestRunKeyDistinctConfigs(t *testing.T) {
	p := Program{Name: "fir_32_1"}
	type req struct {
		mode alloc.Mode
		ro   RunOptions
	}
	distinct := []req{
		{alloc.SingleBank, RunOptions{}},
		{alloc.CB, RunOptions{}},
		{alloc.CBProfiled, RunOptions{}},
		{alloc.CB, RunOptions{Profiled: true}},
		{alloc.CB, RunOptions{Partitioner: core.MethodFM}},
		{alloc.CB, RunOptions{Partitioner: core.MethodFM, FMPasses: 1}},
		{alloc.CB, RunOptions{Partitioner: core.MethodFM, FMPasses: -1}},
		{alloc.CB, RunOptions{Partitioner: core.MethodKL}},
		{alloc.CBDup, RunOptions{}},
		{alloc.CBDup, RunOptions{DupOnly: []string{}}},
		{alloc.CBDup, RunOptions{DupOnly: []string{"x"}}},
		{alloc.CBDup, RunOptions{DupOnly: []string{"x", "y"}}},
		{alloc.CBDup, RunOptions{Profiled: true, DupOnly: []string{"x", "y"}}},
		{alloc.CBDup, RunOptions{Partitioner: core.MethodFM, DupOnly: []string{"x", "y"}}},
		{alloc.CB, RunOptions{Engine: EngineMachine}},
	}
	seen := make(map[runKey]int)
	for i, r := range distinct {
		k := newRunKey(p, r.mode, r.ro)
		if j, ok := seen[k]; ok {
			t.Errorf("configs %d and %d alias onto one key %+v", j, i, k)
		}
		seen[k] = i
	}

	// Requests that provably measure the same thing must share a key:
	// duplication-set order and repeats, the FM pass bound without the
	// FM partitioner, and profile weighting on a mode that never
	// builds the interference graph.
	same := [][2]req{
		{{alloc.CBDup, RunOptions{DupOnly: []string{"y", "x"}}},
			{alloc.CBDup, RunOptions{DupOnly: []string{"x", "y", "x"}}}},
		{{alloc.CB, RunOptions{FMPasses: 3}}, {alloc.CB, RunOptions{}}},
		{{alloc.SingleBank, RunOptions{Profiled: true}}, {alloc.SingleBank, RunOptions{}}},
		{{alloc.CB, RunOptions{DupOnly: []string{"x"}}}, {alloc.CB, RunOptions{}}},
	}
	for i, pair := range same {
		a := newRunKey(p, pair[0].mode, pair[0].ro)
		b := newRunKey(p, pair[1].mode, pair[1].ro)
		if a != b {
			t.Errorf("pair %d: equivalent requests got distinct keys\n%+v\n%+v", i, a, b)
		}
	}
}

// TestHarnessDistinctConfigsMiss runs distinct configurations of one
// benchmark through a harness and checks each one executes (a cache
// miss), while a repeat of any of them hits.
func TestHarnessDistinctConfigsMiss(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	h := NewHarness(1)
	ros := []RunOptions{
		{},
		{Partitioner: core.MethodFM},
		{Partitioner: core.MethodFM, FMPasses: -1},
		{Profiled: true},
		{DupOnly: []string{}},
		{DupOnly: []string{"h"}},
	}
	for i, ro := range ros {
		mode := alloc.CBDup
		if _, err := h.Run(p, alloc.SingleBank); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.RunCtx(context.Background(), p, mode, ro); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
	st := h.Stats()
	if want := int64(len(ros)) + 1; st.Misses != want {
		t.Errorf("misses = %d, want %d (one per distinct config + baseline)", st.Misses, want)
	}
	if _, _, err := h.RunCtx(context.Background(), p, alloc.CBDup, RunOptions{DupOnly: []string{"h"}}); err != nil {
		t.Fatal(err)
	}
	if st2 := h.Stats(); st2.Misses != st.Misses {
		t.Errorf("repeat config re-executed: misses %d -> %d", st.Misses, st2.Misses)
	}
}

// TestHarnessBatchedKeysShared pins that a batched request and a
// single request for one configuration share one memo entry, whichever
// comes first: the first request misses and every later one hits, with
// the same measurement.
func TestHarnessBatchedKeysShared(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	h := NewHarness(1)
	ctx := context.Background()
	single, cached, err := h.RunCtx(ctx, p, alloc.CBDup, RunOptions{})
	if err != nil || cached {
		t.Fatalf("first single CBDup request: cached %v, err %v", cached, err)
	}
	for round := 0; round < 2; round++ {
		for i, o := range h.RunBatchCtx(ctx, p, []BatchItem{{Mode: alloc.CBDup}, {Mode: alloc.CBDup}}) {
			if o.Err != nil || !o.Cached {
				t.Fatalf("round %d, batch item %d: cached %v, err %v", round, i, o.Cached, o.Err)
			}
			if o.Res.Cycles != single.Cycles {
				t.Errorf("round %d, batch item %d: %d cycles, single request %d", round, i, o.Res.Cycles, single.Cycles)
			}
		}
	}

	first := h.RunBatchCtx(ctx, p, []BatchItem{{Mode: alloc.CB}})[0]
	if first.Err != nil || first.Cached {
		t.Fatalf("first batched CB request: cached %v, err %v", first.Cached, first.Err)
	}
	res, cached, err := h.RunCtx(ctx, p, alloc.CB, RunOptions{})
	if err != nil || !cached {
		t.Fatalf("single CB request after the batched one: cached %v, err %v", cached, err)
	}
	if res.Cycles != first.Res.Cycles {
		t.Errorf("single CB request: %d cycles, batched %d", res.Cycles, first.Res.Cycles)
	}
	if st := h.Stats(); st.Misses != 2 || st.Hits != 5 {
		t.Errorf("misses %d, hits %d; want 2 (one per configuration) and 5", st.Misses, st.Hits)
	}
}

// TestWarmHitAllocFree: a request the result memo already holds builds
// its key without formatting anything, so serving it allocates
// nothing, on the classic machine and on a wider one.
func TestWarmHitAllocFree(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	h := NewHarness(1)
	ctx := context.Background()
	for _, ro := range []RunOptions{{}, {Banks: 3}} {
		if _, _, err := h.RunCtx(ctx, p, alloc.CB, ro); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, cached, err := h.RunCtx(ctx, p, alloc.CB, ro); err != nil || !cached {
				t.Fatalf("warm request: cached %v, err %v", cached, err)
			}
		})
		if allocs != 0 {
			t.Errorf("banks %d: a warm hit makes %.0f allocations, want 0", ro.Banks, allocs)
		}
	}
}
