package explore

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/genmc"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
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

// sweepPass runs one design-space sweep through h: the
// default-budget exploration of the six-program baseline suite, then
// the hardware sweep over every 2x1…4x2 geometry.
func sweepPass(progs []bench.Program, h *bench.Harness) error {
	if _, err := Explore(context.Background(), progs, Options{Harness: h}); err != nil {
		return err
	}
	_, err := ExploreHW(context.Background(), progs, sweepSpecs, Options{Harness: h})
	return err
}

// TestSweepPreparesOncePerProgram runs one design-space sweep through
// one harness and counts its front-end runs: one per program, however
// many configurations each program is measured under. It counts the
// interference graphs, at most one per program and weight policy, and
// the simulations: most configurations reach an allocation already
// measured, so 465 back ends need only 125 simulations.
func TestSweepPreparesOncePerProgram(t *testing.T) {
	progs := sweepProgs(t)
	h := bench.NewHarness(1)
	if err := sweepPass(progs, h); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Misses != 465 || st.Prepares != int64(len(progs)) {
		t.Fatalf("sweep ran %d front ends for %d measurements, want %d for 465", st.Prepares, st.Misses, len(progs))
	}
	if st.Graphs > int64(2*len(progs)) {
		t.Fatalf("sweep built %d interference graphs, want at most %d", st.Graphs, 2*len(progs))
	}
	if st.Sims != 125 {
		t.Fatalf("sweep ran %d simulations for 465 measurements, want 125", st.Sims)
	}
}

// BenchmarkSweepPass times one sweep pass through a fresh harness, as
// the explore-sweep workload runs it.
func BenchmarkSweepPass(b *testing.B) {
	var progs []bench.Program
	for _, name := range []string{"fir_32_1", "iir_1_1", "mult_4_4", "fft_256", "adpcm", "histogram"} {
		p, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("no %s benchmark", name)
		}
		progs = append(progs, p)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sweepPass(progs, bench.NewHarness(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDupCandidatesMatchCompile pins DupCandidates, which reads the
// prepared program's static graph, to the duplication candidates of a
// full CBDup compile over the suite and a generated sample.
func TestDupCandidatesMatchCompile(t *testing.T) {
	progs := append(bench.Kernels(), bench.Applications()...)
	for _, k := range genmc.Population(50, 1) {
		p, ok := bench.ByName(genmc.Generate(k).Name)
		if !ok {
			t.Fatalf("generated program %v does not resolve", k)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CBDup})
		if err != nil {
			t.Fatal(err)
		}
		var wantMarked, rest []string
		for _, s := range c.Alloc.Graph.Nodes {
			if !s.IsArray() {
				continue
			}
			if c.Alloc.Graph.DupMarks[s] {
				wantMarked = append(wantMarked, s.Name)
			} else {
				rest = append(rest, s.Name)
			}
		}
		sort.Strings(wantMarked)
		sort.Strings(rest)
		wantArrays := append(append([]string(nil), wantMarked...), rest...)
		marked, arrays, err := DupCandidates(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(marked, wantMarked) || !slices.Equal(arrays, wantArrays) {
			t.Errorf("%s: DupCandidates (%v, %v), compile (%v, %v)", p.Name, marked, arrays, wantMarked, wantArrays)
		}
	}
}

// TestSweepMemoSound runs one sweep's measurements through one harness
// with four batches in flight per program: the exploration on four
// workers, then every geometry's arms four geometries at a time. It
// runs the sweep again through a second harness with the default
// evaluator, Explore and ExploreHW each on four workers. Every
// outcome, back-end memo hits included, must match the unstaged
// bench.RunCtx measurement of its cell, apart from timings, and the
// second harness must hold every cell.
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

	dflt := bench.NewHarness(1)
	if _, err := Explore(ctx, progs, Options{Workers: 4, Harness: dflt}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreHW(ctx, progs, sweepSpecs, Options{Workers: 4, Harness: dflt}); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want, err := bench.RunCtx(ctx, c.p, c.it.Mode, c.it.Opts)
		want.CompileSeconds, want.SimSeconds = 0, 0
		got2, cached, err2 := dflt.RunCtx(ctx, c.p, c.it.Mode, c.it.Opts)
		if !cached {
			t.Errorf("%s/%v %+v: the default evaluator never measured it", c.p.Name, c.it.Mode, c.it.Opts)
		}
		for _, o := range []bench.BatchOutcome{c.out, {Res: got2, Err: err2}} {
			got := o.Res
			if (err == nil) != (o.Err == nil) {
				t.Errorf("%s/%v %+v: harness error %v, unstaged error %v", c.p.Name, c.it.Mode, c.it.Opts, o.Err, err)
				continue
			}
			got.CompileSeconds, got.SimSeconds = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v %+v: harness %+v, unstaged %+v", c.p.Name, c.it.Mode, c.it.Opts, got, want)
			}
		}
	}
}
