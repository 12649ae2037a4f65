package bench

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
)

// len returns the number of entries, the computations in flight
// included.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// flight is a computation the LRU model test leaves in flight; finish
// hands it the value and error it returns.
type flight struct {
	cancel   context.CancelFunc
	finish   chan flightEnd
	returned chan struct{}
}

type flightEnd struct {
	v   int
	err error
}

// TestMemoMatchesLRUModel drives memos with random requests, some left
// in flight and then finished with a value, an error or a cancelled
// context, against a reference model: a slice of the kept keys ordered
// by last use. After every step exactly the model's kept keys that hold
// a value, and the keys in flight, are ready; the table holds the kept
// keys plus those in flight; hits return the kept value; and the
// eviction hook sees exactly the model's evictions. FIFO or CLOCK
// eviction fails it.
func TestMemoMatchesLRUModel(t *testing.T) {
	const keys, max = 12, 4
	errFail := errors.New("deterministic failure")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var evicted []int
		m := &memo[int, int]{
			max: max, keepErr: seed%2 == 0,
			evicted: func(v int) { evicted = append(evicted, v) },
			name:    strconv.Itoa,
		}
		var (
			model    []int // kept keys, most recently used first
			values   = map[int]int{}
			failed   = map[int]bool{} // kept keys holding an error
			flights  = map[int]*flight{}
			modelOut []int // values the model evicted, in order
		)
		keep := func(k, v int, fail bool) {
			model = append([]int{k}, model...)
			values[k], failed[k] = v, fail
			for len(model) > max {
				old := model[len(model)-1]
				model = model[:len(model)-1]
				modelOut = append(modelOut, values[old])
				delete(values, old)
				delete(failed, old)
			}
		}
		for step := 1; step <= 400; step++ {
			k := rng.Intn(keys)
			kept := slices.Index(model, k)
			switch f := flights[k]; {
			case f != nil:
				delete(flights, k)
				switch rng.Intn(3) {
				case 0:
					f.finish <- flightEnd{v: step}
					<-f.returned
					keep(k, step, false)
				case 1:
					f.finish <- flightEnd{v: step, err: errFail}
					<-f.returned
					if m.keepErr {
						keep(k, step, true)
					}
				default:
					f.cancel()
					f.finish <- flightEnd{v: step, err: context.Canceled}
					<-f.returned
				}
			case kept < 0 && rng.Intn(3) == 0:
				ctx, cancel := context.WithCancel(context.Background())
				f := &flight{cancel: cancel, finish: make(chan flightEnd), returned: make(chan struct{})}
				flights[k] = f
				started := make(chan struct{})
				go func() {
					defer close(f.returned)
					m.do(ctx, k, func() (int, error) {
						close(started)
						end := <-f.finish
						return end.v, end.err
					})
				}()
				<-started
			default:
				computed := false
				v, shared, err := m.do(context.Background(), k, func() (int, error) {
					computed = true
					return step, nil
				})
				if kept >= 0 {
					model = append(model[:kept], model[kept+1:]...)
					model = append([]int{k}, model...)
					want := error(nil)
					if failed[k] {
						want = errFail
					}
					if computed || !shared || v != values[k] || err != want {
						t.Fatalf("seed %d step %d: hit on %d = (%d, %v, %v), computed %v; want (%d, true, %v)",
							seed, step, k, v, shared, err, computed, values[k], want)
					}
				} else {
					if !computed || shared || err != nil {
						t.Fatalf("seed %d step %d: miss on %d: shared %v, err %v, computed %v", seed, step, k, shared, err, computed)
					}
					keep(k, step, false)
				}
			}
			for key := 0; key < keys; key++ {
				want := flights[key] != nil || (slices.Contains(model, key) && !failed[key])
				if got := m.ready(key); got != want {
					t.Fatalf("seed %d step %d: ready(%d) = %v, want %v (model %v, in flight %v)", seed, step, key, got, want, model, flights[key] != nil)
				}
			}
			if got, want := m.len(), len(model)+len(flights); got != want {
				t.Fatalf("seed %d step %d: %d entries, want %d", seed, step, got, want)
			}
			if !slices.Equal(evicted, modelOut) {
				t.Fatalf("seed %d step %d: evicted %v, want %v", seed, step, evicted, modelOut)
			}
		}
		for _, f := range flights {
			f.finish <- flightEnd{}
			<-f.returned
		}
	}
}

// sameResult compares two measurements apart from their timings.
func sameResult(a, b Result) bool {
	a.CompileSeconds, a.SimSeconds = 0, 0
	b.CompileSeconds, b.SimSeconds = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestHarnessEvictsLeastRecentlyUsed shrinks the harness's bounds. The
// least recently used measurement is dropped, a hit having refreshed
// the other; the dropped key's Cached probe reads false, and asking for
// it again recomputes the unstaged answer. A dropped front end's graphs
// stay counted.
func TestHarnessEvictsLeastRecentlyUsed(t *testing.T) {
	ctx := context.Background()
	h := NewHarness(1)
	h.results.max, h.fronts.max = 2, 1
	p := FIR(8, 4)
	for _, mode := range []alloc.Mode{alloc.CB, alloc.CBDup, alloc.CB, alloc.SingleBank} {
		if _, _, err := h.RunCtx(ctx, p, mode, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for mode, want := range map[alloc.Mode]bool{alloc.CB: true, alloc.CBDup: false, alloc.SingleBank: true} {
		if got := h.Cached(p, mode, RunOptions{}); got != want {
			t.Errorf("Cached(%v) = %v, want %v", mode, got, want)
		}
	}
	if st := h.Stats(); st.Hits != 1 || st.Misses != 3 || h.results.len() != 2 || len(h.Timings()) != 2 {
		t.Fatalf("stats %+v, %d entries, %d timings; want 1 hit, 3 misses, 2 entries, 2 timings", st, h.results.len(), len(h.Timings()))
	}
	got, cached, err := h.RunCtx(ctx, p, alloc.CBDup, RunOptions{})
	if err != nil || cached {
		t.Fatalf("evicted key: cached=%v err=%v, want a fresh computation", cached, err)
	}
	want, err := RunCtx(ctx, p, alloc.CBDup, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatalf("recomputed %+v, unstaged %+v", got, want)
	}
	if h.Cached(p, alloc.CB, RunOptions{}) || !h.Cached(p, alloc.SingleBank, RunOptions{}) {
		t.Fatal("recomputing the evicted key did not evict the least recently used one")
	}

	// FIR(8, 4) built one graph; dropping its front end for another
	// program keeps it counted.
	if _, _, err := h.RunCtx(ctx, FIR(9, 4), alloc.CB, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Prepares != 2 || st.Graphs != 2 || h.fronts.len() != 1 {
		t.Fatalf("stats %+v with %d front ends, want 2 prepares, 2 graphs, 1 front end", st, h.fronts.len())
	}
}

// TestHarnessSoakBounded pushes 64 times the result bound in distinct
// keys through a harness with small bounds from four workers, with
// repeats of recent keys (in flight or kept) and requests cancelled at
// random points. The tables never exceed their bounds by more than the
// requests in flight, the retained heap stays flat once the bound has
// filled, and sampled answers equal the unstaged measurement.
func TestHarnessSoakBounded(t *testing.T) {
	const (
		workers = 4
		bound   = 64
		keys    = 64 * bound
	)
	ctx := context.Background()
	h := NewHarness(workers)
	h.results.max, h.fronts.max = bound, 2
	progs := []Program{FIR(8, 1), FIR(9, 1), FIR(10, 1), FIR(11, 1)}
	// Key i is one program, in runs of 32 keys, under CB with FM pass
	// bound i: distinct requests that mostly share one plan.
	request := func(i int) (Program, RunOptions) {
		return progs[i/32%len(progs)], RunOptions{Partitioner: core.MethodFM, FMPasses: i + 1}
	}
	checkBounds := func() {
		if n := h.results.len(); n > bound+workers {
			t.Errorf("result memo holds %d entries, bound %d", n, bound)
		}
		if n := h.fronts.len(); n > h.fronts.max+workers {
			t.Errorf("front-end memo holds %d entries, bound %d", n, h.fronts.max)
		}
		h.fronts.each(func(e *prepEntry) {
			if n := e.backs.len(); n > backEndMemoSize+workers {
				t.Errorf("back-end memo holds %d entries, bound %d", n, backEndMemoSize)
			}
		})
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// one requests key i. One request in sixteen arrives cancelled and
	// one in sixteen has a deadline of up to half a millisecond.
	one := func(rng *rand.Rand, i int) {
		p, ro := request(i)
		rctx, cancel := ctx, context.CancelFunc(func() {})
		switch rng.Intn(16) {
		case 0:
			rctx, cancel = context.WithCancel(ctx)
			cancel()
		case 1:
			rctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500))*time.Microsecond)
		}
		got, _, err := h.RunCtx(rctx, p, alloc.CB, ro)
		cancel()
		switch {
		case err != nil && rctx == ctx:
			t.Errorf("key %d: %v", i, err)
		case err != nil && !errors.Is(err, rctx.Err()):
			t.Errorf("key %d: cancelled request returned %v", i, err)
		case err == nil && i%64 == 0:
			want, werr := RunCtx(ctx, p, alloc.CB, ro)
			if werr != nil || !sameResult(got, want) {
				t.Errorf("key %d: harness %+v, unstaged %+v (%v)", i, got, want, werr)
			}
		}
		checkBounds()
	}
	var next atomic.Int64
	run := func(limit int64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := next.Add(1) - 1; i < limit; i = next.Add(1) - 1 {
					one(rng, int(i))
					if rng.Intn(2) == 0 && i > 0 {
						// A recent key: in flight, kept or dropped.
						one(rng, int(i)-1-rng.Intn(int(min(i, 8))))
					}
				}
			}(int64(w) + limit)
		}
		wg.Wait()
	}
	run(keys / 4)
	filled := heap()
	run(keys)
	checkBounds()
	if grown := int64(heap()) - int64(filled); grown > 256<<10 {
		t.Errorf("retained heap grew by %d bytes over %d more distinct keys after the bound filled", grown, keys*3/4)
	}
	if st := h.Stats(); st.Misses < keys {
		t.Errorf("stats %+v: fewer misses than distinct keys", st)
	}
}
