package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dualbank/internal/alloc"
)

// TestByNameResolvesGenerated: canonical generated keys resolve through
// ByName, run end to end under CB with a passing output check, and hit
// the harness memo cache like any suite benchmark.
func TestByNameResolvesGenerated(t *testing.T) {
	p, ok := ByName("gen_window_12")
	if !ok {
		t.Fatal("ByName rejected canonical generated key gen_window_12")
	}
	if p.Name != "gen_window_12" || p.Check == nil {
		t.Fatalf("malformed generated program: %+v", p.Name)
	}
	again, ok := ByName("gen_window_12")
	if !ok || again.Source != p.Source {
		t.Fatal("second resolution differs — generation is not deterministic")
	}

	h := NewHarness(1)
	if _, err := h.Run(p, alloc.CB); err != nil {
		t.Fatalf("generated benchmark failed under CB: %v", err)
	}
	if _, err := h.Run(p, alloc.CB); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("generated key did not memo-cache: %+v", s)
	}
}

// TestByNameRejectsNonCanonical: near-miss names fall through to a
// plain miss, not a generated program, and Known agrees with ByName.
func TestByNameRejectsNonCanonical(t *testing.T) {
	for _, name := range []string{"gen_window_012", "gen_cube_5", "gen_window", "fir_9999_1"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName accepted non-canonical name %q", name)
		}
		if Known(name) {
			t.Errorf("Known accepted non-canonical name %q", name)
		}
	}
	for _, name := range []string{"gen_window_12", "gen_pair_0", "fir_32_1", "lpc"} {
		if !Known(name) {
			t.Errorf("Known rejected %q", name)
		}
	}
}

// namedWant is the measurement of a name-only program the harness must
// reproduce: RunCtx on the program ByName builds, timings zeroed.
func namedWant(t *testing.T, name string, mode alloc.Mode) Result {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("ByName rejected %q", name)
	}
	want, err := RunCtx(context.Background(), p, mode, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want.CompileSeconds, want.SimSeconds = 0, 0
	return want
}

// TestNamedProgramCoalesces sends eight concurrent requests for one
// generated name as a name-only Program. They share one miss, which
// builds the program before Intercept sees it, and every answer equals
// RunCtx on ByName's program apart from timings.
func TestNamedProgramCoalesces(t *testing.T) {
	const name, mode = "gen_chain_4242", alloc.CBDup
	want := namedWant(t, name, mode)
	h := NewHarness(1)
	var intercepts atomic.Int64
	h.Intercept = func(_ context.Context, p Program, _ alloc.Mode) error {
		intercepts.Add(1)
		if p.Source == "" || p.Check == nil {
			t.Errorf("Intercept saw %q unbuilt", p.Name)
		}
		return nil
	}
	const n = 8
	results := make([]Result, n)
	cached := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], cached[i], errs[i] = h.RunCtx(context.Background(), Program{Name: name}, mode, RunOptions{})
		}(i)
	}
	wg.Wait()
	hits := 0
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if cached[i] {
			hits++
		}
		got.CompileSeconds, got.SimSeconds = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: %+v, want %+v", i, got, want)
		}
	}
	if st := h.Stats(); st.Misses != 1 || st.Hits != n-1 || hits != n-1 || intercepts.Load() != 1 {
		t.Errorf("stats %+v, %d cached answers, %d intercepts; want 1 miss, %d hits, 1 intercept", st, hits, intercepts.Load(), n-1)
	}
}

// TestNamedProgramCancelledMiss cancels a name-only miss mid-flight.
// It must store nothing, and the next request must compute afresh.
func TestNamedProgramCancelledMiss(t *testing.T) {
	const name, mode = "gen_pair_77", alloc.CB
	want := namedWant(t, name, mode)
	h := NewHarness(1)
	ctx, cancel := context.WithCancel(context.Background())
	h.Intercept = func(ctx context.Context, _ Program, _ alloc.Mode) error {
		cancel()
		return ctx.Err()
	}
	named := Program{Name: name}
	if _, _, err := h.RunCtx(ctx, named, mode, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled miss returned %v, want context.Canceled", err)
	}
	if h.Cached(named, mode, RunOptions{}) {
		t.Fatal("cancelled miss left an entry behind")
	}
	h.Intercept = nil
	got, cached, err := h.RunCtx(context.Background(), named, mode, RunOptions{})
	if err != nil || cached {
		t.Fatalf("request after cancellation: cached=%v err=%v", cached, err)
	}
	got.CompileSeconds, got.SimSeconds = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after cancellation %+v, want %+v", got, want)
	}
	if st := h.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats %+v, want 2 misses and no hits", st)
	}
}
