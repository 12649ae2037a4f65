package explore

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/machine"
)

// sweepProgs and sweepSpecs are one design-space sweep's inputs: the
// six programs `dspexplore -bench-report` explores and the 2x1…4x2
// geometry grid of `-hw-report`.
func sweepProgs(t *testing.T) []bench.Program {
	var progs []bench.Program
	for _, name := range []string{"fir_32_1", "iir_1_1", "mult_4_4", "fft_256", "adpcm", "histogram"} {
		progs = append(progs, prog(t, name))
	}
	return progs
}

var sweepSpecs = []machine.BankSpec{
	{Banks: 2, PortsPerBank: 1}, {Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
	{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
}

// TestSweepPreparesOncePerProgram runs one design-space sweep — the
// default-budget exploration of the six-program baseline suite, then
// the hardware sweep over every 2x1…4x2 geometry — through one harness
// and counts its front-end runs: one per program, however many
// configurations each program is measured under. It also counts the
// simulations: most configurations compile to a schedule already
// simulated, so 465 back ends need only 125 simulations.
func TestSweepPreparesOncePerProgram(t *testing.T) {
	progs := sweepProgs(t)
	h := bench.NewHarness(1)
	if _, err := Explore(context.Background(), progs, Options{Harness: h}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreHW(context.Background(), progs, sweepSpecs, Options{Harness: h}); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Misses != 465 || st.Prepares != int64(len(progs)) {
		t.Fatalf("sweep ran %d front ends for %d measurements, want %d for 465", st.Prepares, st.Misses, len(progs))
	}
	if st.Sims != 125 {
		t.Fatalf("sweep ran %d simulations for 465 measurements, want 125", st.Sims)
	}
}

// TestSweepMemoSound runs one sweep's measurements through one harness
// with four batches in flight per program: the exploration on four
// workers, then every geometry's arms four geometries at a time. Every
// outcome, simulation-memo hits included, must match the unstaged
// bench.RunCtx measurement of its cell, apart from timings.
func TestSweepMemoSound(t *testing.T) {
	ctx := context.Background()
	progs := sweepProgs(t)
	h := bench.NewHarness(1)
	type cell struct {
		p   bench.Program
		it  bench.BatchItem
		out bench.BatchOutcome
	}
	var mu sync.Mutex
	var cells []cell
	record := func(ctx context.Context, p bench.Program, items []bench.BatchItem) []bench.BatchOutcome {
		outs := h.RunBatchCtx(ctx, p, items)
		mu.Lock()
		defer mu.Unlock()
		for i, it := range items {
			cells = append(cells, cell{p, it, outs[i]})
		}
		return outs
	}
	if _, err := Explore(ctx, progs, Options{Workers: 4, EvaluateBatch: record}); err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		sem := make(chan struct{}, 4)
		var wg sync.WaitGroup
		for _, s := range sweepSpecs {
			var items []bench.BatchItem
			for _, c := range hwArms() {
				c.Banks, c.Ports = s.Banks, s.PortsPerBank
				items = append(items, bench.BatchItem{Mode: c.Mode(), Opts: c.RunOptions()})
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				record(ctx, p, items)
				<-sem
			}()
		}
		wg.Wait()
	}
	st := h.Stats()
	if st.Sims >= st.Misses {
		t.Fatalf("%d simulations for %d measurements, want memo hits", st.Sims, st.Misses)
	}
	for _, c := range cells {
		want, err := bench.RunCtx(ctx, c.p, c.it.Mode, c.it.Opts)
		got := c.out.Res
		if (err == nil) != (c.out.Err == nil) {
			t.Errorf("%s/%v %+v: harness error %v, unstaged error %v", c.p.Name, c.it.Mode, c.it.Opts, c.out.Err, err)
			continue
		}
		got.CompileSeconds, got.SimSeconds = 0, 0
		want.CompileSeconds, want.SimSeconds = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%v %+v: harness %+v, unstaged %+v", c.p.Name, c.it.Mode, c.it.Opts, got, want)
		}
	}
}
