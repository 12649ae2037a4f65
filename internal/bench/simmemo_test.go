package bench

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
	"dualbank/internal/faultinject"
	"dualbank/internal/genmc"
	"dualbank/internal/pipeline"
)

// memoCell is one measurement request.
type memoCell struct {
	p    Program
	mode alloc.Mode
	ro   RunOptions
}

// checkMemoSound measures cells through one harness from four workers,
// so up to four back ends finish a program's Prepared at once, and
// compares every result with the unstaged RunCtx measurement of the
// same cell: both fail, or both succeed with equal results apart from
// timings. It returns the harness's counters and the number of cells
// that succeeded.
func checkMemoSound(t *testing.T, cells []memoCell) (st CacheStats, ok int64) {
	t.Helper()
	ctx := context.Background()
	h := NewHarness(1)
	got := make([]Result, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := new(pipeline.Compiler)
			for i := range next {
				ro := cells[i].ro
				ro.Compiler = cc
				got[i], _, errs[i] = h.RunCtx(ctx, cells[i].p, cells[i].mode, ro)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, c := range cells {
		want, err := RunCtx(ctx, c.p, c.mode, c.ro)
		if (err == nil) != (errs[i] == nil) {
			t.Errorf("%s/%v %+v: harness error %v, unstaged error %v", c.p.Name, c.mode, c.ro, errs[i], err)
			continue
		}
		if err != nil {
			continue
		}
		ok++
		got[i].CompileSeconds, got[i].SimSeconds = 0, 0
		want.CompileSeconds, want.SimSeconds = 0, 0
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s/%v %+v: harness %+v, unstaged %+v", c.p.Name, c.mode, c.ro, got[i], want)
		}
	}
	return h.Stats(), ok
}

// allModes is the seven-mode matrix.
var allModes = []alloc.Mode{
	alloc.SingleBank, alloc.CB, alloc.CBProfiled,
	alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
}

// TestSimMemoMatrixSound runs the 23 × 7 matrix at 2x1 and at 4x2
// (where Ideal and LowOrder must fail as they do unstaged) and a
// 50-program generated sample through the simulation memo. Every
// result, memo hits included, must match the unstaged measurement.
func TestSimMemoMatrixSound(t *testing.T) {
	if testing.Short() {
		t.Skip("memo matrix in short mode")
	}
	var cells []memoCell
	for _, p := range append(Kernels(), Applications()...) {
		for _, ro := range []RunOptions{{}, {Banks: 4, Ports: 2}} {
			for _, mode := range allModes {
				cells = append(cells, memoCell{p, mode, ro})
			}
		}
	}
	st, ok := checkMemoSound(t, cells)
	if st.Sims >= ok {
		t.Errorf("matrix: %d simulations for %d measurements, want memo hits", st.Sims, ok)
	}

	cells = cells[:0]
	for _, k := range genmc.Population(50, 1) {
		p, ok := ByName(genmc.Generate(k).Name)
		if !ok {
			t.Fatalf("generated program %v does not resolve", k)
		}
		for _, mode := range allModes {
			cells = append(cells, memoCell{p, mode, RunOptions{}})
		}
	}
	st, ok = checkMemoSound(t, cells)
	if st.Sims >= ok {
		t.Errorf("generated: %d simulations for %d measurements, want memo hits", st.Sims, ok)
	}
}

// memoEntries returns how many measurements p's simulation memo holds.
func memoEntries(h *Harness, p Program) int {
	h.mu.Lock()
	e := h.prepared[prepKey{name: p.Name, source: p.Source}]
	h.mu.Unlock()
	if e == nil {
		return 0
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	return len(e.memo.cycles)
}

// wantSims checks the harness's simulation count and p's memo size.
func wantSims(t *testing.T, h *Harness, p Program, sims int64, entries int) {
	t.Helper()
	if st := h.Stats(); st.Sims != sims {
		t.Fatalf("%d simulations, want %d (stats %+v)", st.Sims, sims, st)
	}
	if n := memoEntries(h, p); n != entries {
		t.Fatalf("simulation memo holds %d entries, want %d", n, entries)
	}
}

// TestSimMemoCancelledNotStored cancels a simulation mid-run. It must
// store nothing, so the next request for the same image simulates.
func TestSimMemoCancelledNotStored(t *testing.T) {
	h := NewHarness(1)
	p := FIR(256, 64)
	checkLive(t, h, p, alloc.SingleBank)
	wantSims(t, h, p, 1, 1)

	// The request asks for Done twice: waiting on the memoized front
	// end (call 1) and as the simulation starts (call 2). Tripping on
	// the second cancels the run at its first poll.
	ctx := newTripCtx("Done", 2)
	_, _, err := h.RunCtx(ctx, p, alloc.CB, RunOptions{})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "(CB): sim: main: context canceled") {
		t.Fatalf("cancelled request returned %v, want a cancelled simulation", err)
	}
	wantSims(t, h, p, 2, 1)
	checkLive(t, h, p, alloc.CB)
	wantSims(t, h, p, 3, 2)
}

// TestSimMemoFailedCheckNotStored fails a measurement's output check.
// It must store nothing: the next request for the same image, under a
// run-cache key of its own, simulates and checks again, and only then
// does a third request hit.
func TestSimMemoFailedCheckNotStored(t *testing.T) {
	h := NewHarness(1)
	p := FIR(32, 1)
	bad := p
	bad.Check = func(Reader) error { return errors.New("injected mismatch") }
	_, _, err := h.RunCtx(context.Background(), bad, alloc.SingleBank, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "output check: injected mismatch") {
		t.Fatalf("failing check returned %v", err)
	}
	wantSims(t, h, p, 1, 0)

	// The partitioner is part of the run-cache key but cannot change a
	// single-bank schedule, so these requests share one image.
	for _, method := range []core.Method{core.MethodFM, core.MethodAnneal} {
		res, cached, err := h.RunCtx(context.Background(), p, alloc.SingleBank, RunOptions{Partitioner: method})
		if err != nil || cached {
			t.Fatalf("%v: cached=%v err=%v", method, cached, err)
		}
		want, err := RunCtx(context.Background(), p, alloc.SingleBank, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != want.Cycles {
			t.Fatalf("%v: %d cycles, want %d", method, res.Cycles, want.Cycles)
		}
		wantSims(t, h, p, 2, 1)
	}
}

// TestSimMemoTransientFaultNotStored injects a transient fault into the
// first request for a fresh image. It stores nothing, and the live
// request that follows simulates.
func TestSimMemoTransientFaultNotStored(t *testing.T) {
	h := NewHarness(1)
	inj := faultinject.New(faultinject.Profile{ComputeError: 1})
	var armed atomic.Bool
	h.Intercept = func(ctx context.Context, p Program, mode alloc.Mode) error {
		if armed.Load() {
			return inj.Compute("measure")
		}
		return nil
	}
	p := LMSFIR(8, 1)
	checkLive(t, h, p, alloc.SingleBank)
	wantSims(t, h, p, 1, 1)
	armed.Store(true)
	if _, _, err := h.RunCtx(context.Background(), p, alloc.CB, RunOptions{}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted request returned %v", err)
	}
	armed.Store(false)
	wantSims(t, h, p, 1, 1)
	checkLive(t, h, p, alloc.CB)
	wantSims(t, h, p, 2, 2)
}

// TestSimMemoEngineSeparate checks that a measurement on one engine
// never stands in for the other: the same image simulates once per
// engine, and then hits on each.
func TestSimMemoEngineSeparate(t *testing.T) {
	h := NewHarness(1)
	p := IIR(4, 64)
	for _, tc := range []struct {
		ro   RunOptions
		sims int64
	}{
		{RunOptions{Engine: EngineCompiled}, 1},
		{RunOptions{Engine: EngineMachine}, 2},
		{RunOptions{Engine: EngineMachine, Partitioner: core.MethodFM}, 2},
		{RunOptions{Engine: EngineCompiled, Partitioner: core.MethodFM}, 2},
	} {
		if _, cached, err := h.RunCtx(context.Background(), p, alloc.SingleBank, tc.ro); err != nil || cached {
			t.Fatalf("%+v: cached=%v err=%v", tc.ro, cached, err)
		}
		wantSims(t, h, p, tc.sims, int(tc.sims))
	}
}
