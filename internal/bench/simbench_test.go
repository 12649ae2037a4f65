package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSimBenchSmoke runs the micro-benchmark on one tiny kernel with a
// short budget and checks the row invariants: one row per engine,
// cycle counts identical across engines, positive throughput numbers,
// and zero steady-state allocations on the compiled engine.
func TestSimBenchSmoke(t *testing.T) {
	rows, err := SimBench([]string{"iir_1_1"}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	engines := map[string]SimBenchRow{}
	for _, r := range rows {
		engines[r.Engine] = r
		if r.Bench != "iir_1_1" {
			t.Errorf("row bench = %q", r.Bench)
		}
		if r.Cycles != rows[0].Cycles {
			t.Errorf("engine %s cycles %d != %d", r.Engine, r.Cycles, rows[0].Cycles)
		}
		if r.NsPerRun <= 0 || r.NsPerCycle <= 0 || r.Runs < 3 {
			t.Errorf("engine %s: degenerate measurement %+v", r.Engine, r)
		}
	}
	for _, e := range []string{"machine", "compiled"} {
		if _, ok := engines[e]; !ok {
			t.Errorf("missing engine %q", e)
		}
	}
	if a := engines["compiled"].AllocsPerRun; a != 0 {
		t.Errorf("compiled engine allocates %.1f per run, want 0", a)
	}
	if engines["compiled"].SetupNs <= 0 {
		t.Error("compiled engine reports no lowering cost")
	}
	out := RenderSimBench(rows)
	if !strings.Contains(out, "iir_1_1") || !strings.Contains(out, "vs machine") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestSimBenchUnknownBenchmark(t *testing.T) {
	if _, err := SimBench([]string{"nope"}, time.Millisecond); err == nil {
		t.Fatal("want error for unknown benchmark")
	}
}

// row is a shorthand for speedup-math tests.
func row(bench, engine string, nsPerRun float64) SimBenchRow {
	return SimBenchRow{Bench: bench, Engine: engine, NsPerRun: nsPerRun}
}

func TestSimSpeedups(t *testing.T) {
	rows := []SimBenchRow{
		row("a", "machine", 1000), row("a", "compiled", 10),
		row("b", "machine", 300), row("b", "compiled", 100),
		row("c", "compiled", 5), // no machine row: skipped
	}
	s := SimSpeedups(rows)
	if len(s) != 2 || s["a"] != 100 || s["b"] != 3 {
		t.Fatalf("speedups = %v", s)
	}
}

func TestSimCheck(t *testing.T) {
	base := []SimBenchRow{
		row("kern", "machine", 10000), row("kern", "compiled", 100), // 100x
		row("app", "machine", 300), row("app", "compiled", 100), // 3x
	}
	ok := func(name string, cur []SimBenchRow) {
		t.Helper()
		if fails := SimCheck(cur, base, 0.10); len(fails) != 0 {
			t.Errorf("%s: unexpected failures %v", name, fails)
		}
	}
	bad := func(name string, cur []SimBenchRow, wantSub string) {
		t.Helper()
		fails := SimCheck(cur, base, 0.10)
		if len(fails) != 1 || !strings.Contains(fails[0], wantSub) {
			t.Errorf("%s: failures = %v, want one mentioning %q", name, fails, wantSub)
		}
	}
	// Identical measurements pass.
	ok("identical", base)
	// A kernel dropping from 100x to 40x stays above the 10x floor.
	ok("noisy kernel", []SimBenchRow{
		row("kern", "machine", 4000), row("kern", "compiled", 100),
		row("app", "machine", 300), row("app", "compiled", 100),
	})
	// A kernel crashing to 8x regresses.
	bad("kernel regression", []SimBenchRow{
		row("kern", "machine", 800), row("kern", "compiled", 100),
		row("app", "machine", 300), row("app", "compiled", 100),
	}, "kern")
	// A sub-floor baseline is held to the tolerance band alone.
	bad("app regression", []SimBenchRow{
		row("kern", "machine", 10000), row("kern", "compiled", 100),
		row("app", "machine", 250), row("app", "compiled", 100), // 2.5x < 3x*0.9
	}, "app")
	// Benchmarks missing from the current rows are skipped.
	ok("missing bench", []SimBenchRow{
		row("kern", "machine", 10000), row("kern", "compiled", 100),
	})
}

// TestReportSimBenchRoundTrip pins the BENCH_sim.json contract:
// WriteFile/ReadReport preserve the simbench rows.
func TestReportSimBenchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	in := &Report{SimBench: []SimBenchRow{
		{Bench: "fir_32_1", Engine: "compiled", Cycles: 75, Runs: 10,
			NsPerRun: 1100, NsPerCycle: 14.6, SetupNs: 50000},
	}}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SimBench) != 1 || out.SimBench[0] != in.SimBench[0] {
		t.Fatalf("round trip mangled rows: %+v", out.SimBench)
	}
}
