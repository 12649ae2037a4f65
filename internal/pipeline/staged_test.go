package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dualbank/internal/alloc"
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

// TestProfileComputedOnce checks the Pr profile's counts are taken
// once, kept beside the shared IR rather than in it, and stamped on
// every later profiled Finish exactly as an in-place compile has them.
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
	if prep.counts.Load() != nil {
		t.Fatal("an unprofiled Finish ran the profile")
	}
	var first *[]int64
	for i := 0; i < 2; i++ {
		got, err := cc.Finish(context.Background(), prep, Options{Mode: alloc.CBProfiled})
		if err != nil {
			t.Fatal(err)
		}
		c := prep.counts.Load()
		if c == nil {
			t.Fatal("profiled Finish left no counts")
		}
		if i == 0 {
			first = c
		} else if c != first {
			t.Fatal("second profiled Finish profiled again")
		}
		for fi, f := range got.IR.Funcs {
			for bi, b := range f.Blocks {
				if w := want.IR.Funcs[fi].Blocks[bi].ExecCount; b.ExecCount != w {
					t.Fatalf("%s %s: count %d, in-place compile has %d", f.Name, b, b.ExecCount, w)
				}
			}
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
	// Hold the profiling slot, as a concurrent profiler would, and
	// cancel a Finish waiting for it.
	ctx, cancel := context.WithCancel(context.Background())
	prep.profiling <- struct{}{}
	done := make(chan error, 1)
	go func() {
		_, err := new(Compiler).Finish(ctx, prep, Options{Mode: alloc.CBProfiled})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Finish returned %v", err)
	}
	<-prep.profiling
	if prep.counts.Load() != nil {
		t.Fatal("a cancelled profiling run left counts behind")
	}
	if _, err := new(Compiler).Finish(context.Background(), prep, Options{Mode: alloc.CBProfiled}); err != nil {
		t.Fatal(err)
	}
	if prep.counts.Load() == nil {
		t.Fatal("live profiled Finish left no counts")
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
		if bad.counts.Load() != nil {
			t.Fatal("a faulting profiling run left counts behind")
		}
	}
}
