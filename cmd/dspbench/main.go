// Command dspbench regenerates the paper's evaluation: Figure 7
// (kernel gains under CB partitioning vs the dual-ported Ideal),
// Figure 8 (application gains under CB, profiled weights, partial
// duplication, and Ideal), and Table 3 (performance/cost trade-offs).
//
// The experiments run through a shared worker pool and a memoized
// compile/run cache, so the single-bank baseline and arms shared
// between figures are measured exactly once per invocation. -parallel
// bounds the pool (1 reproduces the serial harness; the printed
// figures and tables are byte-identical at any width), -timing reports
// per-section wall clock and cache traffic on stderr, and -json writes
// the full results with timings to a machine-readable file.
//
// Usage:
//
//	dspbench [-fig7] [-fig8] [-table3] [-all] [-bench name]
//	         [-parallel N] [-timing] [-json path]
//	         [-cpuprofile path] [-memprofile path]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a failure that exits 2, like a bad flag, rather than 1.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is main with injectable arguments and streams, returning the
// exit code, so tests can drive the whole harness in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig7 := fs.Bool("fig7", false, "run the kernel experiment (Figure 7)")
	fig8 := fs.Bool("fig8", false, "run the application experiment (Figure 8)")
	table3 := fs.Bool("table3", false, "run the performance/cost table (Table 3)")
	orgs := fs.Bool("organizations", false, "compare memory organisations (low-order vs high-order vs dual-ported)")
	tables := fs.Bool("tables", false, "print the benchmark inventories (Tables 1 and 2)")
	sweep := fs.Bool("sweep", false, "sweep FIR filter order vs CB gain")
	all := fs.Bool("all", false, "run everything")
	one := fs.String("bench", "", "run a single benchmark across all modes")
	selective := fs.String("selective", "", "run PCR-driven selective duplication on one benchmark")
	list := fs.Bool("list", false, "list benchmark names")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool width for the experiment harness")
	timing := fs.Bool("timing", false, "report per-section wall clock, per-run compile/simulate split, and cache traffic on stderr")
	partitioner := fs.String("partitioner", "greedy", "graph partitioner for -bench runs: greedy, kl, anneal, fm, or exact")
	engineName := fs.String("engine", "compiled", "simulation engine: "+bench.EngineNames())
	simbench := fs.Bool("simbench", false, "measure per-engine simulator throughput (not part of -all)")
	simcheck := fs.String("simcheck", "", "re-measure simulator throughput and fail if the compiled/machine speedup regressed >10% vs this baseline JSON")
	jsonPath := fs.String("json", "", "write harness results and timings to this JSON file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dspbench:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}

	engine, err := bench.ParseEngine(*engineName)
	if err != nil {
		return fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *selective != "" {
		if err := runSelective(stdout, *selective); err != nil {
			return fail(err)
		}
		return 0
	}
	if *one != "" {
		if err := runOne(stdout, *one, *partitioner, engine); err != nil {
			return fail(err)
		}
		return 0
	}
	if *simbench || *simcheck != "" {
		if err := runSimBench(stdout, stderr, *simcheck, *jsonPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if !*fig7 && !*fig8 && !*table3 && !*orgs && !*tables && !*sweep {
		*all = true
	}

	h := bench.NewHarness(*parallel)
	h.Engine = engine
	report := &bench.Report{GOMAXPROCS: runtime.GOMAXPROCS(0), Parallel: h.Parallel}
	start := time.Now()

	// section runs one experiment, prints its text (stdout stays
	// byte-identical to the serial harness), and records rows and
	// wall-clock in the JSON report.
	section := func(name string, run func() (bench.Section, string, error)) error {
		s0 := time.Now()
		sec, text, err := run()
		if err != nil {
			return err
		}
		sec.Name = name
		sec.Seconds = time.Since(s0).Seconds()
		fmt.Fprintln(stdout, text)
		if *timing {
			st := h.Stats()
			fmt.Fprintf(stderr, "dspbench: %-14s %8.3fs  cache %d hits / %d misses / %d prepares / %d sims\n",
				name, sec.Seconds, st.Hits, st.Misses, st.Prepares, st.Sims)
		}
		report.AddSection(sec)
		return nil
	}

	if *tables || *all {
		fmt.Fprintln(stdout, bench.RenderTables())
	}
	sections := []struct {
		on   bool
		name string
		run  func() (bench.Section, string, error)
	}{
		{*fig7, "figure7", func() (bench.Section, string, error) {
			rows, err := h.Figure7()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 7: Performance Gain for DSP Kernels (over single-bank baseline)",
				rows, bench.Figure7Modes), err
		}},
		{*fig8, "figure8", func() (bench.Section, string, error) {
			rows, err := h.Figure8()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 8: Performance Gain for DSP Applications (over single-bank baseline)",
				rows, bench.Figure8Modes), err
		}},
		{*table3, "table3", func() (bench.Section, string, error) {
			rows, err := h.Table3()
			return bench.Section{Table3: rows}, bench.RenderTable3(rows), err
		}},
		{*orgs, "organizations", func() (bench.Section, string, error) {
			rows, err := h.Organizations()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Memory organisations: low-order interleaved (hardware conflict stalls) vs high-order banked (CB/Dup) vs dual-ported",
				rows, bench.OrganizationModes), err
		}},
		{*sweep, "sweep_fir", func() (bench.Section, string, error) {
			rows, err := h.SweepFIR([]int{8, 16, 32, 64, 128, 256}, 16)
			return bench.Section{Sweep: rows}, bench.RenderSweep(
				"FIR order sensitivity: CB gain vs filter length (16 samples)", rows), err
		}},
	}
	for _, s := range sections {
		if s.on || *all {
			if err := section(s.name, s.run); err != nil {
				return fail(err)
			}
		}
	}

	report.Cache = h.Stats()
	report.Runs = h.Timings()
	report.TotalSeconds = time.Since(start).Seconds()
	if *timing {
		var compileSum, simSum float64
		for _, rt := range report.Runs {
			compileSum += rt.CompileSeconds
			simSum += rt.SimSeconds
			fmt.Fprintf(stderr, "dspbench: run %-14s %-12v compile %7.3fs  sim %8.3fs\n",
				rt.Bench, rt.Mode, rt.CompileSeconds, rt.SimSeconds)
		}
		fmt.Fprintf(stderr, "dspbench: phase totals   compile %7.3fs  sim %8.3fs over %d runs\n",
			compileSum, simSum, len(report.Runs))
		fmt.Fprintf(stderr, "dspbench: total          %8.3fs  cache %d hits / %d misses / %d prepares / %d sims (parallel=%d)\n",
			report.TotalSeconds, report.Cache.Hits, report.Cache.Misses, report.Cache.Prepares, report.Cache.Sims, h.Parallel)
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			return fail(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return 0
}

// lookup finds a benchmark by name; an unknown name is a usage error.
func lookup(name string) (bench.Program, error) {
	p, ok := bench.ByName(name)
	if !ok {
		return bench.Program{}, usageError(fmt.Sprintf("unknown benchmark %q (use -list)", name))
	}
	return p, nil
}

func runOne(stdout io.Writer, name, partitioner string, engine bench.Engine) error {
	p, err := lookup(name)
	if err != nil {
		return err
	}
	method, err := core.ParseMethod(partitioner)
	if err != nil {
		return err
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal,
	}
	cc := new(pipeline.Compiler)
	var base bench.Result
	for _, m := range modes {
		res, err := bench.RunWith(p, m, bench.RunOptions{Partitioner: method, Compiler: cc, Engine: engine})
		if err != nil {
			return err
		}
		if m == alloc.SingleBank {
			base = res
			fmt.Fprintf(stdout, "%-12s cycles=%-10d cost=%d\n", m, res.Cycles, res.Mem.Total())
			continue
		}
		fmt.Fprintf(stdout, "%-12s cycles=%-10d gain=%+6.1f%% cost=%-8d dupStores=%d dup=%v\n",
			m, res.Cycles, bench.Gain(base, res), res.Mem.Total(), res.DupStores, res.Duplicated)
	}
	return nil
}

// runSimBench measures per-engine simulator throughput over the
// standard suite, optionally writing a BENCH_sim.json-style report and
// optionally gating on a committed baseline: with a non-empty
// checkPath the run fails if any benchmark's compiled-over-machine
// speedup fell more than 10% below the baseline's. The speedup ratio —
// not raw ns/run — is what's compared, so the check transfers across
// host speeds.
func runSimBench(stdout, stderr io.Writer, checkPath, jsonPath string) error {
	rows, err := bench.SimBench(bench.SimBenchSuite, 100*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.RenderSimBench(rows))
	if jsonPath != "" {
		report := &bench.Report{GOMAXPROCS: runtime.GOMAXPROCS(0), SimBench: rows}
		if err := report.WriteFile(jsonPath); err != nil {
			return err
		}
	}
	if checkPath == "" {
		return nil
	}
	baseline, err := bench.ReadReport(checkPath)
	if err != nil {
		return err
	}
	if len(baseline.SimBench) == 0 {
		return fmt.Errorf("%s carries no simbench rows", checkPath)
	}
	if fails := bench.SimCheck(rows, baseline.SimBench, 0.10); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "dspbench: REGRESSION:", f)
		}
		return fmt.Errorf("compiled-engine regression vs %s", checkPath)
	}
	fmt.Fprintf(stdout, "simcheck: no compiled-engine regression vs %s\n", checkPath)
	return nil
}

// runSelective demonstrates the paper's §5 refinement: duplicate only
// the arrays whose performance gain justifies their memory cost.
func runSelective(stdout io.Writer, name string) error {
	p, err := lookup(name)
	if err != nil {
		return err
	}
	res, err := pipeline.CompileSelective(p.Source, p.Name, pipeline.SelectiveOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "selective duplication for %s\n", p.Name)
	fmt.Fprintf(stdout, "plain CB: %d cycles, PCR %.3f\n", res.BaseCycles, res.BasePCR)
	fmt.Fprintf(stdout, "candidates: %v\n", res.Candidates)
	for _, tr := range res.Trials {
		verdict := "rejected"
		if tr.Kept {
			verdict = "kept"
		}
		fmt.Fprintf(stdout, "  %-10s %-8s cycles=%-8d PG=%.2f CI=%.2f PCR=%.3f  (%s)\n",
			tr.Symbol, verdict, tr.Cycles, tr.PG, tr.CI, tr.PCR, tr.Reason)
	}
	fmt.Fprintf(stdout, "chosen: %v\n", res.Chosen)
	return nil
}
