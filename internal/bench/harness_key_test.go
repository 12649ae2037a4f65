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

// TestHarnessBatchedKeysDistinct extends the aliasing contract to
// batched dispatches: a batched measurement must not alias a
// single-run entry for the same configuration (their timings reflect
// different amortization), while repeated batched requests for the
// same configuration must hit.
func TestHarnessBatchedKeysDistinct(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	h := NewHarness(1)
	single, _, err := h.RunCtx(context.Background(), p, alloc.CBDup, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Mode: alloc.CBDup},
		{Mode: alloc.CB},
	}
	first := h.RunBatchCtx(context.Background(), p, items)
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("batch item %d: %v", i, o.Err)
		}
	}
	st := h.Stats()
	// One single-run miss, then two batched misses: the CBDup batch
	// entry must not have aliased the single-run one.
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (single CBDup + batched CBDup + batched CB)", st.Misses)
	}
	if first[0].Res.Cycles != single.Cycles {
		t.Errorf("batched CBDup cycles %d != single-run %d", first[0].Res.Cycles, single.Cycles)
	}
	second := h.RunBatchCtx(context.Background(), p, items)
	for i, o := range second {
		if o.Err != nil {
			t.Fatalf("repeat batch item %d: %v", i, o.Err)
		}
	}
	if st2 := h.Stats(); st2.Misses != st.Misses {
		t.Errorf("repeat batch re-executed: misses %d -> %d", st.Misses, st2.Misses)
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
