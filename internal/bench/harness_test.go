package bench

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/genmc"
)

// TestHarnessParallelDeterminism runs the Figure 7 and Figure 8
// experiments serially and at eight workers and requires identical
// rows — gains, cycle counts, duplicated-symbol lists — and identical
// rendered text. Run under -race this also proves the pool and the
// single-flight cache are data-race-free.
func TestHarnessParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	serial := NewHarness(1)
	parallel := NewHarness(8)

	type figure struct {
		name  string
		run   func(*Harness) ([]FigureRow, error)
		modes []alloc.Mode
		title string
	}
	figures := []figure{
		{"figure7", (*Harness).Figure7, Figure7Modes, "Figure 7"},
		{"figure8", (*Harness).Figure8, Figure8Modes, "Figure 8"},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			want, err := fig.run(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			got, err := fig.run(parallel)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rows diverge between -parallel 1 and -parallel 8:\nserial:   %+v\nparallel: %+v", want, got)
			}
			ws := RenderFigure(fig.title, want, fig.modes)
			gs := RenderFigure(fig.title, got, fig.modes)
			if ws != gs {
				t.Errorf("rendered text diverges:\nserial:\n%s\nparallel:\n%s", ws, gs)
			}
		})
	}
}

// TestHarnessCacheMemoizes checks the single-flight cache: repeating
// an experiment on the same harness recomputes nothing, and the
// results stay identical.
func TestHarnessCacheMemoizes(t *testing.T) {
	h := NewHarness(4)
	first, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	// 12 kernels × (baseline + CB + Ideal), all distinct.
	if want := int64(36); st.Misses != want {
		t.Errorf("after first Figure7: %d misses, want %d", st.Misses, want)
	}
	second, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	st2 := h.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("second Figure7 recomputed: misses %d -> %d", st.Misses, st2.Misses)
	}
	if st2.Hits-st.Hits != 36 {
		t.Errorf("second Figure7: %d hits, want 36", st2.Hits-st.Hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached rows differ from computed rows")
	}
}

// TestHarnessSharesBaselineAcrossExperiments checks the cross-figure
// deduplication the cache exists for: after Figure 7, the kernel
// baselines and the CB and Ideal arms of the organisation study are
// all served from cache.
func TestHarnessSharesBaselineAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	h := NewHarness(2)
	if _, err := h.Figure7(); err != nil {
		t.Fatal(err)
	}
	before := h.Stats()
	if _, err := h.Organizations(); err != nil {
		t.Fatal(err)
	}
	after := h.Stats()
	// Kernel rows of the organisation study share baseline, CB and
	// Ideal with Figure 7: 12 kernels × 3 cached arms.
	if hits := after.Hits - before.Hits; hits < 36 {
		t.Errorf("organisation study hit cache %d times, want >= 36", hits)
	}
}

// TestRunFigureSerialEquivalence pins a serial harness's rows to a
// pooled one's.
func TestRunFigureSerialEquivalence(t *testing.T) {
	progs := []Program{FIR(8, 4), IIR(1, 1)}
	modes := []alloc.Mode{alloc.CB, alloc.Ideal}
	direct, err := NewHarness(1).RunFigure(progs, modes)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewHarness(3).RunFigure(progs, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, pooled) {
		t.Errorf("serial and pooled rows diverge:\n%+v\n%+v", direct, pooled)
	}
}

// TestLentCompilersDoNotAlias runs misses without a compiler of their
// own on four goroutines through one harness, mode-major over the suite
// and a generated sample, so lent compilers pass between goroutines and
// between programs of very different sizes. Every program is new to the
// harness, so each front end runs on a lent compiler, and the memo
// holds them all, so each is prepared once and then finished by other
// compilers while its own prepares the rest. Every result must equal a
// fresh bench.RunCtx measurement of its cell, timings aside.
func TestLentCompilersDoNotAlias(t *testing.T) {
	progs := append(Kernels(), Applications()...)
	for _, k := range genmc.Population(24, 1) {
		progs = append(progs, Program{Name: genmc.Generate(k).Name})
	}
	type cell struct {
		p    Program
		mode alloc.Mode
	}
	var cells []cell
	for _, mode := range []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup} {
		for _, p := range progs {
			cells = append(cells, cell{p, mode})
		}
	}
	ctx := context.Background()
	h := NewHarness(1)
	h.fronts.max = len(progs)
	got := make([]Result, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				got[i], _, errs[i] = h.RunCtx(ctx, cells[i].p, cells[i].mode, RunOptions{})
			}
		}()
	}
	wg.Wait()
	if st := h.Stats(); st.Misses != int64(len(cells)) || st.Prepares != int64(len(progs)) || st.Sims == 0 {
		t.Fatalf("%d misses, %d prepares and %d simulations for %d cells of %d programs",
			st.Misses, st.Prepares, st.Sims, len(cells), len(progs))
	}
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s/%v: %v", c.p.Name, c.mode, errs[i])
		}
		p := c.p
		if p.Source == "" {
			p, _ = ByName(p.Name)
		}
		want, err := RunCtx(ctx, p, c.mode, RunOptions{})
		if err != nil {
			t.Fatalf("%s/%v: fresh run: %v", c.p.Name, c.mode, err)
		}
		got[i].CompileSeconds, got[i].SimSeconds = 0, 0
		want.CompileSeconds, want.SimSeconds = 0, 0
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s/%v: harness %+v, fresh %+v", c.p.Name, c.mode, got[i], want)
		}
	}
}
