package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/asm"
	"dualbank/internal/core"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
)

// TestFinishMatchesCompile pins the two-stage compile to the one-shot
// one: for every mode, on the classic and a 4-bank 2-port machine,
// finishing a shared Prepared yields the same allocated IR, schedule
// and simulated cycles as compiling from source.
func TestFinishMatchesCompile(t *testing.T) {
	src, _ := firSource(32)
	prep, err := Prepare(context.Background(), src, "fir", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc := new(Compiler)
	for _, spec := range []machine.BankSpec{{}, {Banks: 4, PortsPerBank: 2}} {
		for _, mode := range allModes {
			if !spec.IsDefault() && !mode.Partitioned() {
				continue
			}
			o := Options{Mode: mode, Spec: spec}
			want, err := Compile(src, "fir", o)
			if err != nil {
				t.Fatalf("%v %v: compile: %v", spec, mode, err)
			}
			got, err := cc.Finish(context.Background(), prep, o)
			if err != nil {
				t.Fatalf("%v %v: finish: %v", spec, mode, err)
			}
			if got.IR.String() != want.IR.String() {
				t.Errorf("%v %v: finished IR differs from compiled IR", spec, mode)
			}
			if got.Sched.StaticStats() != want.Sched.StaticStats() {
				t.Errorf("%v %v: schedule %+v, want %+v", spec, mode, got.Sched.StaticStats(), want.Sched.StaticStats())
			}
			gm, err := got.Run()
			if err != nil {
				t.Fatal(err)
			}
			wm, err := want.Run()
			if err != nil {
				t.Fatal(err)
			}
			if gm.Cycles != wm.Cycles {
				t.Errorf("%v %v: %d cycles, want %d", spec, mode, gm.Cycles, wm.Cycles)
			}
		}
	}
}

// TestProfileComputedOnce checks the Pr profile runs once per
// Prepared: the profiled graph is built by the first profiled Finish,
// kept beside the shared IR rather than written into it, reused by
// every later profiled Finish, and weighs edges exactly as a one-shot
// compile's does.
func TestProfileComputedOnce(t *testing.T) {
	src, _ := firSource(32)
	prep, err := Prepare(context.Background(), src, "fir", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(src, "fir", Options{Mode: alloc.CBProfiled})
	if err != nil {
		t.Fatal(err)
	}
	cc := new(Compiler)
	if _, err := cc.Finish(context.Background(), prep, Options{Mode: alloc.CB}); err != nil {
		t.Fatal(err)
	}
	if prep.graphs[core.WeightProfiled].Load() != nil {
		t.Fatal("an unprofiled Finish ran the profile")
	}
	var first *core.Graph
	for i := 0; i < 2; i++ {
		got, err := cc.Finish(context.Background(), prep, Options{Mode: alloc.CBProfiled})
		if err != nil {
			t.Fatal(err)
		}
		g := prep.graphs[core.WeightProfiled].Load()
		if g == nil {
			t.Fatal("profiled Finish left no graph")
		}
		if i == 0 {
			first = g
		} else if g != first {
			t.Fatal("second profiled Finish profiled again")
		}
		if got.Alloc.Graph != g {
			t.Fatal("profiled Finish partitioned a graph other than the cached one")
		}
		if g.String() != want.Alloc.Graph.String() {
			t.Fatalf("cached profiled graph:\n%s\none-shot compile's:\n%s", g, want.Alloc.Graph)
		}
	}
	for _, f := range prep.IR().Funcs {
		for _, b := range f.Blocks {
			if b.ExecCount != 0 {
				t.Fatalf("%s %s: count written into the shared IR", f.Name, b)
			}
		}
	}
}

// TestOneGraphPerPolicy finishes one Prepared under every mode, on the
// classic machine, permuted, and on every 2x1…4x2 geometry, from four
// goroutines at once: the whole run builds one graph per weight
// policy, and every result matches the one-shot compile.
func TestOneGraphPerPolicy(t *testing.T) {
	src, _ := firSource(32)
	prep, err := Prepare(context.Background(), src, "fir", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		o    Options
		want string
	}
	var cells []cell
	for _, spec := range []machine.BankSpec{
		{}, {Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
		{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
	} {
		for _, mode := range allModes {
			if !spec.IsDefault() && (mode == alloc.Ideal || mode == alloc.LowOrder) {
				continue
			}
			for _, o := range []Options{
				{Mode: mode, Spec: spec},
				{Mode: mode, Spec: spec, Profiled: true, BankPerm: reversed(spec.Norm().Banks)},
			} {
				c, err := Compile(src, "fir", o)
				if err != nil {
					t.Fatalf("%+v: compile: %v", o, err)
				}
				cells = append(cells, cell{o, c.IR.String() + asm.Print(c.Sched)})
			}
		}
	}
	got := make([]string, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := new(Compiler)
			for i := range next {
				c, err := cc.Finish(context.Background(), prep, cells[i].o)
				if err == nil {
					got[i] = c.IR.String() + asm.Print(c.Sched)
				}
				errs[i] = err
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Errorf("%+v: %v", c.o, errs[i])
		} else if got[i] != c.want {
			t.Errorf("%+v: finished program differs from the one-shot compile", c.o)
		}
	}
	if n := prep.Graphs(); n != 2 {
		t.Errorf("%d finishes built %d graphs, want one per weight policy", len(cells), n)
	}
}

// reversed returns the permutation mapping bank i to bank k-1-i.
func reversed(k int) []int {
	perm := make([]int, k)
	for i := range perm {
		perm[i] = k - 1 - i
	}
	return perm
}

// TestFailedProfileNotKept: a profile that fails — its caller cancelled
// while waiting for a concurrent profiler, or the run faulting —
// records nothing, so the next caller runs it afresh. Cancellation
// inside the run is covered through the harness in package bench.
func TestFailedProfileNotKept(t *testing.T) {
	src, _ := firSource(32)
	prep, err := Prepare(context.Background(), src, "fir", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the graph-building slot, as a concurrent profiler would, and
	// cancel a Finish waiting for it.
	ctx, cancel := context.WithCancel(context.Background())
	prep.building <- struct{}{}
	done := make(chan error, 1)
	go func() {
		_, err := new(Compiler).Finish(ctx, prep, Options{Mode: alloc.CBProfiled})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Finish returned %v", err)
	}
	<-prep.building
	if prep.Graphs() != 0 {
		t.Fatal("a cancelled profiling run left a graph behind")
	}
	if _, err := new(Compiler).Finish(context.Background(), prep, Options{Mode: alloc.CBProfiled}); err != nil {
		t.Fatal(err)
	}
	if prep.graphs[core.WeightProfiled].Load() == nil {
		t.Fatal("live profiled Finish left no graph")
	}

	const divide = "int z;\nint r;\nvoid main() { r = 7 / z; }\n"
	bad, err := Prepare(context.Background(), divide, "div", opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := new(Compiler).Finish(context.Background(), bad, Options{Mode: alloc.CBProfiled})
		if err == nil || !strings.Contains(err.Error(), "profiling run") {
			t.Fatalf("faulting profile returned %v", err)
		}
		if bad.Graphs() != 0 {
			t.Fatal("a faulting profiling run left a graph behind")
		}
	}
}
