package bench

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/faultinject"
	"dualbank/internal/genmc"
	"dualbank/internal/ir"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// irFingerprint hashes everything a back end could write into a shared
// IR: the printed program, every block's profile count, and every
// symbol's allocation fields and initializer words.
func irFingerprint(p *ir.Program) [32]byte {
	var b strings.Builder
	b.WriteString(p.String())
	for _, s := range p.Symbols() {
		fmt.Fprintf(&b, "%s %v %d %v %x\n", s.Name, s.Bank, s.Addr, s.Duplicated, s.Init)
	}
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s %d %d\n", blk, blk.ExecCount, len(blk.Ops))
		}
	}
	return sha256.Sum256([]byte(b.String()))
}

// stagedCell is one configuration finished from a shared Prepared.
type stagedCell struct {
	mode alloc.Mode
	ro   RunOptions
}

// checkStaged prepares p once, then finishes every cell from four
// goroutines sharing that Prepared. The Prepared's fingerprint must not
// move, and every result must equal the unstaged RunCtx measurement.
func checkStaged(t *testing.T, p Program, cells []stagedCell) {
	t.Helper()
	ctx := context.Background()
	want := make([]Result, len(cells))
	for i, c := range cells {
		res, err := RunCtx(ctx, p, c.mode, c.ro)
		if err != nil {
			t.Fatalf("%s/%v: unstaged: %v", p.Name, c.mode, err)
		}
		res.CompileSeconds, res.SimSeconds = 0, 0
		want[i] = res
	}
	prep, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
	if err != nil {
		t.Fatalf("%s: prepare: %v", p.Name, err)
	}
	before := irFingerprint(prep.IR())

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
				got[i], errs[i] = runPrepared(ctx, p, prep, cells[i].mode, ro, nil, nil)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	if irFingerprint(prep.IR()) != before {
		t.Fatalf("%s: finishing changed the shared prepared IR", p.Name)
	}
	for i, c := range cells {
		if errs[i] != nil {
			t.Errorf("%s/%v %+v: staged: %v", p.Name, c.mode, c.ro, errs[i])
			continue
		}
		got[i].CompileSeconds, got[i].SimSeconds = 0, 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s/%v %+v: staged %+v, unstaged %+v", p.Name, c.mode, c.ro, got[i], want[i])
		}
	}
}

// TestStagedFinishNoAliasing is the aliasing wall for the staged
// compile: concurrent back ends sharing one front end must neither
// disturb it nor each other. It covers all 23 benchmarks under all
// seven modes on the classic machine, the placement-steered modes on a
// 4-bank 2-port machine, and a 50-program generated sample.
func TestStagedFinishNoAliasing(t *testing.T) {
	if testing.Short() {
		t.Skip("aliasing matrix in short mode")
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	var classic, steered []stagedCell
	for _, mode := range modes {
		classic = append(classic, stagedCell{mode: mode})
		if mode.Partitioned() {
			steered = append(steered, stagedCell{mode: mode, ro: RunOptions{Banks: 4, Ports: 2}})
		}
	}
	for _, p := range append(Kernels(), Applications()...) {
		checkStaged(t, p, append(append([]stagedCell(nil), classic...), steered...))
	}
	for _, k := range genmc.Population(50, 1) {
		p, ok := ByName(genmc.Generate(k).Name)
		if !ok {
			t.Fatalf("generated program %v does not resolve", k)
		}
		checkStaged(t, p, classic)
	}
}

// tripCtx cancels itself on the n-th call of one of its methods
// ("Err" or "Done"), so a test can cut a computation off at a chosen
// check without timing races.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	method string
	n      int64
	calls  atomic.Int64
}

func newTripCtx(method string, n int64) *tripCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &tripCtx{Context: ctx, cancel: cancel, method: method, n: n}
}

func (c *tripCtx) trip(method string) {
	if method == c.method && c.calls.Add(1) == c.n {
		c.cancel()
	}
}

func (c *tripCtx) Err() error {
	c.trip("Err")
	return c.Context.Err()
}

func (c *tripCtx) Done() <-chan struct{} {
	c.trip("Done")
	return c.Context.Done()
}

// checkLive runs one live request through h and compares it with the
// unstaged measurement.
func checkLive(t *testing.T, h *Harness, p Program, mode alloc.Mode) {
	t.Helper()
	got, cached, err := h.RunCtx(context.Background(), p, mode, RunOptions{})
	if err != nil || cached {
		t.Fatalf("%s/%v: live request after failure: cached=%v err=%v", p.Name, mode, cached, err)
	}
	want, err := RunCtx(context.Background(), p, mode, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got.CompileSeconds, got.SimSeconds = 0, 0
	want.CompileSeconds, want.SimSeconds = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%v: after failure %+v, unstaged %+v", p.Name, mode, got, want)
	}
}

// TestCancelMidPrepareNotCached cancels a request between two front-end
// passes. The half-built front end must not be kept: the next live
// request runs the front end again.
func TestCancelMidPrepareNotCached(t *testing.T) {
	h := NewHarness(1)
	p := FIR(32, 1)
	// Prepare checks its context before parsing (call 1) and again after
	// lowering (call 2); nothing on the harness's compute path checks
	// Err before it.
	ctx := newTripCtx("Err", 2)
	_, _, err := h.RunCtx(ctx, p, alloc.CB, RunOptions{})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "compile: context canceled") {
		t.Fatalf("cancelled request returned %v, want a front-end cancellation", err)
	}
	if st := h.Stats(); st.Prepares != 1 || h.fronts.len() != 0 {
		t.Fatalf("after a cancelled front end: stats %+v, %d memo entries; want 1 prepare, 0 entries", st, h.fronts.len())
	}
	checkLive(t, h, p, alloc.CB)
	if st := h.Stats(); st.Prepares != 2 {
		t.Fatalf("live request ran %d front ends in total, want 2", st.Prepares)
	}
}

// TestCancelMidProfileNotCached cancels the first profiled request
// during its profiling run, after the front end is memoized. The
// profile must not be kept, and the front end must be: the next live
// request profiles again but does not prepare again.
func TestCancelMidProfileNotCached(t *testing.T) {
	h := NewHarness(1)
	p := FIR(256, 64)
	checkLive(t, h, p, alloc.CB)

	// The request asks for Done three times: waiting on the memoized
	// front end (call 1), waiting for the profiling slot (call 2), and
	// as the profiling run starts (call 3). Tripping on the third lands
	// the cancel inside the run, which polls it every 256 blocks; the
	// interpreter's name in the error proves it.
	ctx := newTripCtx("Done", 3)
	_, _, err := h.RunCtx(ctx, p, alloc.CBProfiled, RunOptions{})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "profiling run: interp") {
		t.Fatalf("cancelled request returned %v, want a cancellation inside the profiling run", err)
	}
	var prep *pipeline.Prepared
	h.fronts.each(func(e *prepEntry) { prep = e.prep })
	if prep == nil {
		t.Fatal("front end not memoized")
	}
	checkLive(t, h, p, alloc.CBProfiled)
	if st := h.Stats(); st.Prepares != 1 {
		t.Fatalf("%d front ends for one program, want 1", st.Prepares)
	}
	for _, f := range prep.IR().Funcs {
		for _, b := range f.Blocks {
			if b.ExecCount != 0 {
				t.Fatalf("%s %s: profile count written into the shared IR", f.Name, b)
			}
		}
	}
}

// TestTransientFaultNotCachedStaged injects a transient compute fault
// into the first request for each of two modes, one before the program
// was ever prepared and one after. Neither failure may leave anything
// behind, and the live requests that follow must match the unstaged
// measurement.
func TestTransientFaultNotCachedStaged(t *testing.T) {
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
	for _, mode := range []alloc.Mode{alloc.CB, alloc.CBProfiled} {
		armed.Store(true)
		if _, _, err := h.RunCtx(context.Background(), p, mode, RunOptions{}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%v: faulted request returned %v", mode, err)
		}
		armed.Store(false)
		checkLive(t, h, p, mode)
	}
	if st := h.Stats(); st.Prepares != 1 || st.Misses != 4 {
		t.Fatalf("stats %+v, want 1 prepare over 4 misses", st)
	}
}

// TestPrepareMemoBounded fills the front-end memo past its bound and
// checks the oldest programs are dropped while every measurement still
// matches.
func TestPrepareMemoBounded(t *testing.T) {
	h := NewHarness(1)
	n := prepMemoSize + 3
	for i := 0; i < n; i++ {
		if _, _, err := h.RunCtx(context.Background(), FIR(4+i, 1), alloc.SingleBank, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.fronts.len(); n != prepMemoSize {
		t.Fatalf("memo holds %d entries, want %d", n, prepMemoSize)
	}
	// The newest program is still memoized; the oldest was dropped.
	checkLive(t, h, FIR(4+n-1, 1), alloc.CB)
	if st := h.Stats(); st.Prepares != int64(n) {
		t.Fatalf("%d front ends, want %d (newest program memoized)", st.Prepares, n)
	}
	checkLive(t, h, FIR(4, 1), alloc.CB)
	if st := h.Stats(); st.Prepares != int64(n+1) {
		t.Fatalf("%d front ends, want %d (oldest program dropped)", st.Prepares, n+1)
	}
}
