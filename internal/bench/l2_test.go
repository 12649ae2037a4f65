package bench

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
)

// fakeL2 is an in-memory ResultCache recording its traffic.
type fakeL2 struct {
	mu   sync.Mutex
	m    map[string]Result
	gets int
	puts int
}

func newFakeL2() *fakeL2 { return &fakeL2{m: make(map[string]Result)} }

func (f *fakeL2) Get(key string) (Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeL2) Put(key string, r Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.m[key] = r
}

// TestCacheKeyMirrorsRunKey holds the exported string key to the same
// aliasing contract as the in-memory struct key: distinct
// configurations get distinct strings, provably-equivalent requests
// share one, and the engine is part of the identity.
func TestCacheKeyMirrorsRunKey(t *testing.T) {
	p := Program{Name: "fir_32_1"}
	type req struct {
		mode alloc.Mode
		ro   RunOptions
	}
	distinct := []req{
		{alloc.SingleBank, RunOptions{}},
		{alloc.CB, RunOptions{}},
		{alloc.CB, RunOptions{Profiled: true}},
		{alloc.CB, RunOptions{Partitioner: core.MethodFM}},
		{alloc.CB, RunOptions{Partitioner: core.MethodFM, FMPasses: 2}},
		{alloc.CBDup, RunOptions{}},
		{alloc.CBDup, RunOptions{DupOnly: []string{}}},
		{alloc.CBDup, RunOptions{DupOnly: []string{"x", "y"}}},
		{alloc.CB, RunOptions{Engine: EngineMachine}},
		{alloc.Ideal, RunOptions{}},
	}
	seen := make(map[string]int)
	for i, r := range distinct {
		k := CacheKey(p, r.mode, r.ro)
		if !strings.HasPrefix(k, "run|fir_32_1|") {
			t.Errorf("key %q lacks the run|bench prefix", k)
		}
		if j, ok := seen[k]; ok {
			t.Errorf("configs %d and %d alias onto one string key %q", j, i, k)
		}
		seen[k] = i
	}
	same := [][2]req{
		{{alloc.CBDup, RunOptions{DupOnly: []string{"y", "x"}}},
			{alloc.CBDup, RunOptions{DupOnly: []string{"x", "y", "x"}}}},
		{{alloc.CB, RunOptions{FMPasses: 3}}, {alloc.CB, RunOptions{}}},
		{{alloc.SingleBank, RunOptions{Profiled: true}}, {alloc.SingleBank, RunOptions{}}},
	}
	for i, pair := range same {
		a := CacheKey(p, pair[0].mode, pair[0].ro)
		b := CacheKey(p, pair[1].mode, pair[1].ro)
		if a != b {
			t.Errorf("pair %d: equivalent requests got distinct keys %q / %q", i, a, b)
		}
	}
	// Different benchmarks never collide.
	if CacheKey(Program{Name: "fft_256"}, alloc.CB, RunOptions{}) == CacheKey(p, alloc.CB, RunOptions{}) {
		t.Error("distinct benchmarks share a key")
	}
}

// TestHarnessL2WriteThroughAndHit proves the L2 protocol: a cold miss
// computes and writes through; a fresh harness over the same L2 serves
// the key without computing and reports it cached; accounting lands in
// L2Hits, not Hits or Misses.
func TestHarnessL2WriteThroughAndHit(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	l2 := newFakeL2()
	h1 := NewHarness(1)
	h1.L2 = l2
	want, cached, err := h1.RunCtx(context.Background(), p, alloc.CB, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("cold computation reported cached")
	}
	if l2.puts != 1 {
		t.Fatalf("cold computation made %d L2 puts, want 1", l2.puts)
	}
	if st := h1.Stats(); st.Misses != 1 || st.L2Hits != 0 {
		t.Fatalf("cold stats %+v, want 1 miss, 0 l2 hits", st)
	}

	// A second harness — another node in the fleet — finds the result.
	h2 := NewHarness(1)
	h2.L2 = l2
	got, cached, err := h2.RunCtx(context.Background(), p, alloc.CB, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("L2-served measurement not reported cached")
	}
	if got.Cycles != want.Cycles || got.Bench != want.Bench || got.Mode != want.Mode {
		t.Errorf("L2 result %+v differs from computed %+v", got, want)
	}
	st := h2.Stats()
	if st.Misses != 0 || st.L2Hits != 1 {
		t.Fatalf("warm stats %+v, want 0 misses, 1 l2 hit", st)
	}
	if l2.puts != 1 {
		t.Errorf("L2 hit wrote back (%d puts)", l2.puts)
	}

	// The L2 hit seeded the in-memory cache: a repeat is a plain hit
	// with no further L2 traffic.
	gets := l2.gets
	if _, cached, err = h2.RunCtx(context.Background(), p, alloc.CB, RunOptions{}); err != nil || !cached {
		t.Fatalf("repeat after L2 hit: cached=%v err=%v", cached, err)
	}
	if l2.gets != gets {
		t.Errorf("in-memory hit still consulted the L2 (%d -> %d gets)", gets, l2.gets)
	}
	if st := h2.Stats(); st.Hits != 1 {
		t.Errorf("repeat stats %+v, want 1 hit", st)
	}
}

// TestHarnessCachedProbe exercises the non-blocking availability probe.
func TestHarnessCachedProbe(t *testing.T) {
	p, ok := ByName("fir_32_1")
	if !ok {
		t.Fatal("fir_32_1 missing")
	}
	h := NewHarness(1)
	if h.Cached(p, alloc.CB, RunOptions{}) {
		t.Error("empty harness claims a cached entry")
	}
	if _, _, err := h.RunCtx(context.Background(), p, alloc.CB, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !h.Cached(p, alloc.CB, RunOptions{}) {
		t.Error("completed entry not visible to Cached")
	}
	if h.Cached(p, alloc.CBDup, RunOptions{}) {
		t.Error("distinct mode aliased by Cached")
	}
	// A failing computation must not register as available.
	bad := Program{Name: "broken", Source: "not minic"}
	if _, _, err := h.RunCtx(context.Background(), bad, alloc.CB, RunOptions{}); err == nil {
		t.Fatal("broken source compiled")
	}
	if h.Cached(bad, alloc.CB, RunOptions{}) {
		t.Error("failed entry reported available")
	}
}
