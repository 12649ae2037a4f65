package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// This file is the simulator micro-benchmark: per-engine throughput
// (ns/run, ns/cycle) and allocation rates over a fixed benchmark
// suite, reported by `dspbench -simbench` and regression-checked in CI
// against the committed BENCH_sim.json baseline via -simcheck.
//
// Each engine is measured on its production dispatch path:
//
//   - machine:  sim.NewMachine + Run per run (the reference
//     interpreter allocates full banks every time),
//   - compiled: sim.Compile once, then Batch.Run per run — the
//     steady-state the harness and explorer reach, where lowering and
//     arenas amortize across a batch. The one-time lowering cost is
//     reported separately as SetupNs.

// SimBenchSuite is the default micro-benchmark suite: the satellite
// kernels the paper's figures lean on hardest (small, hot loops where
// per-run setup dominates) plus two larger programs (fft_256, lpc)
// where execution dominates.
var SimBenchSuite = []string{
	"fir_32_1", "iir_1_1", "lmsfir_8_1", "mult_4_4", "fft_256", "lpc",
}

// SimBenchRow is one (benchmark, engine) throughput measurement.
type SimBenchRow struct {
	Bench  string `json:"bench"`
	Engine string `json:"engine"`
	// Cycles is the simulated cycle count (identical across engines by
	// the differential pinning).
	Cycles int64 `json:"cycles"`
	// Runs is how many runs the timed loop executed.
	Runs int `json:"runs"`
	// NsPerRun is wall-clock nanoseconds per simulation on the engine's
	// production path; NsPerCycle divides it by the simulated cycles.
	NsPerRun   float64 `json:"ns_per_run"`
	NsPerCycle float64 `json:"ns_per_cycle"`
	// AllocsPerRun is the heap-allocation count per run (Mallocs delta
	// over the timed loop).
	AllocsPerRun float64 `json:"allocs_per_run"`
	// SetupNs is one-time per-benchmark engine setup that the timed
	// loop amortizes away (threaded-code lowering for the compiled
	// engine); zero for engines whose setup is per-run by construction.
	SetupNs float64 `json:"setup_ns,omitempty"`
}

// SimBench measures every engine on every named benchmark, running
// each timed loop for at least minTime (and at least three runs).
// Rows come back grouped by benchmark in input order, engines in
// machine, compiled order.
func SimBench(names []string, minTime time.Duration) ([]SimBenchRow, error) {
	if minTime <= 0 {
		minTime = 100 * time.Millisecond
	}
	var rows []SimBenchRow
	cc := new(pipeline.Compiler)
	for _, name := range names {
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("simbench: unknown benchmark %q", name)
		}
		c, err := cc.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB})
		if err != nil {
			return nil, fmt.Errorf("simbench: %s: %w", name, err)
		}
		sched := c.Sched

		// One compiled run up front pins the cycle count for the whole
		// row group.
		cp, err := sim.Compile(sched)
		if err != nil {
			return nil, fmt.Errorf("simbench: %s: %w", name, err)
		}
		ref := cp.NewMachine()
		if err := ref.Run(); err != nil {
			return nil, fmt.Errorf("simbench: %s: %w", name, err)
		}
		cycles := ref.CycleCount()

		engines := []struct {
			engine string
			setup  func() (func() error, float64, error)
		}{
			{EngineMachine.String(), func() (func() error, float64, error) {
				return func() error { return sim.NewMachine(sched).Run() }, 0, nil
			}},
			{EngineCompiled.String(), func() (func() error, float64, error) {
				lowerStart := time.Now()
				cp, err := sim.Compile(sched)
				if err != nil {
					return nil, 0, err
				}
				setupNs := float64(time.Since(lowerStart).Nanoseconds())
				var b sim.Batch
				ctx := context.Background()
				return func() error {
					_, err := b.Run(ctx, cp)
					return err
				}, setupNs, nil
			}},
		}
		for _, e := range engines {
			run, setupNs, err := e.setup()
			if err != nil {
				return nil, fmt.Errorf("simbench: %s/%s: %w", name, e.engine, err)
			}
			row, err := timeLoop(run, minTime)
			if err != nil {
				return nil, fmt.Errorf("simbench: %s/%s: %w", name, e.engine, err)
			}
			row.Bench = name
			row.Engine = e.engine
			row.Cycles = cycles
			row.NsPerCycle = row.NsPerRun / float64(cycles)
			row.SetupNs = setupNs
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// timeLoop runs fn for at least minTime (and three runs) after one
// warm-up, returning the timing and allocation fields of a row.
func timeLoop(fn func() error, minTime time.Duration) (SimBenchRow, error) {
	if err := fn(); err != nil {
		return SimBenchRow{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	runs := 0
	start := time.Now()
	for runs < 3 || time.Since(start) < minTime {
		if err := fn(); err != nil {
			return SimBenchRow{}, err
		}
		runs++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return SimBenchRow{
		Runs:         runs,
		NsPerRun:     float64(elapsed.Nanoseconds()) / float64(runs),
		AllocsPerRun: float64(ms1.Mallocs-ms0.Mallocs) / float64(runs),
	}, nil
}

// SimSpeedups returns each benchmark's compiled-over-machine
// throughput ratio (machine ns/run divided by compiled ns/run; higher
// is better).
// The ratio is measured within one process on one machine, so unlike
// raw ns/run it transfers across hosts — the CI regression check
// compares ratios, not nanoseconds.
func SimSpeedups(rows []SimBenchRow) map[string]float64 {
	ns := make(map[string]map[string]float64)
	for _, r := range rows {
		if ns[r.Bench] == nil {
			ns[r.Bench] = make(map[string]float64)
		}
		ns[r.Bench][r.Engine] = r.NsPerRun
	}
	out := make(map[string]float64, len(ns))
	for b, m := range ns {
		if m["machine"] > 0 && m["compiled"] > 0 {
			out[b] = m["machine"] / m["compiled"]
		}
	}
	return out
}

// simCheckFloor is the contracted compiled-engine speedup on hot
// kernels: a measurement above it is never a regression, however far
// it sits below a (noisy) triple-digit baseline ratio.
const simCheckFloor = 10.0

// SimCheck compares current measurements against a committed baseline:
// a benchmark regresses when its compiled-over-machine speedup falls
// more than tolerance (a fraction, e.g. 0.10) below the baseline's AND
// below the 10x kernel contract. The floor keeps the check meaningful
// across hosts — small kernels measure in the hundreds-of-x range
// where run-to-run ratios swing freely, but any real regression
// (losing the amortization or re-introducing per-run work) crashes
// straight through 10x. Baselines already under the floor (the large
// programs) are held to the tolerance band alone. Returns one line per
// regression, sorted by benchmark; benchmarks present in only one row
// set are skipped.
func SimCheck(current, baseline []SimBenchRow, tolerance float64) []string {
	cur, base := SimSpeedups(current), SimSpeedups(baseline)
	var fails []string
	for b, want := range base {
		got, ok := cur[b]
		if !ok {
			continue
		}
		floor := simCheckFloor
		if want < floor {
			floor = want
		}
		if got < want*(1-tolerance) && got < floor {
			fails = append(fails, fmt.Sprintf(
				"%s: compiled/machine speedup %.2fx fell below baseline %.2fx - %.0f%% tolerance",
				b, got, want, tolerance*100))
		}
	}
	sort.Strings(fails)
	return fails
}

// RenderSimBench formats rows as an aligned text table with per-bench
// compiled-over-machine speedups.
func RenderSimBench(rows []SimBenchRow) string {
	var sb strings.Builder
	speedups := SimSpeedups(rows)
	sb.WriteString("Simulator throughput by engine (production dispatch paths)\n")
	fmt.Fprintf(&sb, "%-12s %-9s %10s %8s %12s %10s %10s\n",
		"bench", "engine", "cycles", "runs", "ns/run", "ns/cycle", "allocs/run")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-9s %10d %8d %12.0f %10.2f %10.1f",
			r.Bench, r.Engine, r.Cycles, r.Runs, r.NsPerRun, r.NsPerCycle, r.AllocsPerRun)
		if r.Engine == "compiled" {
			if s, ok := speedups[r.Bench]; ok {
				fmt.Fprintf(&sb, "  (%.1fx vs machine)", s)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
