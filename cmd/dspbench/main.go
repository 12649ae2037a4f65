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
	"flag"
	"fmt"
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
	fig7 := flag.Bool("fig7", false, "run the kernel experiment (Figure 7)")
	fig8 := flag.Bool("fig8", false, "run the application experiment (Figure 8)")
	table3 := flag.Bool("table3", false, "run the performance/cost table (Table 3)")
	orgs := flag.Bool("organizations", false, "compare memory organisations (low-order vs high-order vs dual-ported)")
	tables := flag.Bool("tables", false, "print the benchmark inventories (Tables 1 and 2)")
	sweep := flag.Bool("sweep", false, "sweep FIR filter order vs CB gain")
	all := flag.Bool("all", false, "run everything")
	one := flag.String("bench", "", "run a single benchmark across all modes")
	selective := flag.String("selective", "", "run PCR-driven selective duplication on one benchmark")
	list := flag.Bool("list", false, "list benchmark names")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool width for the experiment harness")
	timing := flag.Bool("timing", false, "report per-section wall clock, per-run compile/simulate split, and cache traffic on stderr")
	partitioner := flag.String("partitioner", "greedy", "graph partitioner for -bench runs: greedy, kl, anneal, fm, or exact")
	engineName := flag.String("engine", "compiled", "simulation engine: "+bench.EngineNames())
	simbench := flag.Bool("simbench", false, "measure per-engine simulator throughput (not part of -all)")
	simcheck := flag.String("simcheck", "", "re-measure simulator throughput and fail if the compiled/machine speedup regressed >10% vs this baseline JSON")
	jsonPath := flag.String("json", "", "write harness results and timings to this JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	engine, err := bench.ParseEngine(*engineName)
	check(err)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	if *selective != "" {
		runSelective(*selective)
		return
	}
	if *one != "" {
		runOne(*one, *partitioner, engine)
		return
	}
	if *simbench || *simcheck != "" {
		runSimBench(*simcheck, *jsonPath)
		return
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
	section := func(name string, run func() (bench.Section, string, error)) {
		s0 := time.Now()
		sec, text, err := run()
		check(err)
		sec.Name = name
		sec.Seconds = time.Since(s0).Seconds()
		fmt.Println(text)
		if *timing {
			st := h.Stats()
			fmt.Fprintf(os.Stderr, "dspbench: %-14s %8.3fs  cache %d hits / %d misses / %d prepares\n",
				name, sec.Seconds, st.Hits, st.Misses, st.Prepares)
		}
		report.AddSection(sec)
	}

	if *tables || *all {
		fmt.Println(bench.RenderTables())
	}
	if *fig7 || *all {
		section("figure7", func() (bench.Section, string, error) {
			rows, err := h.Figure7()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 7: Performance Gain for DSP Kernels (over single-bank baseline)",
				rows, bench.Figure7Modes), err
		})
	}
	if *fig8 || *all {
		section("figure8", func() (bench.Section, string, error) {
			rows, err := h.Figure8()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 8: Performance Gain for DSP Applications (over single-bank baseline)",
				rows, bench.Figure8Modes), err
		})
	}
	if *table3 || *all {
		section("table3", func() (bench.Section, string, error) {
			rows, err := h.Table3()
			return bench.Section{Table3: rows}, bench.RenderTable3(rows), err
		})
	}
	if *orgs || *all {
		section("organizations", func() (bench.Section, string, error) {
			rows, err := h.Organizations()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Memory organisations: low-order interleaved (hardware conflict stalls) vs high-order banked (CB/Dup) vs dual-ported",
				rows, bench.OrganizationModes), err
		})
	}
	if *sweep || *all {
		section("sweep_fir", func() (bench.Section, string, error) {
			rows, err := h.SweepFIR([]int{8, 16, 32, 64, 128, 256}, 16)
			return bench.Section{Sweep: rows}, bench.RenderSweep(
				"FIR order sensitivity: CB gain vs filter length (16 samples)", rows), err
		})
	}

	report.Cache = h.Stats()
	report.Runs = h.Timings()
	report.TotalSeconds = time.Since(start).Seconds()
	if *timing {
		var compileSum, simSum float64
		for _, rt := range report.Runs {
			compileSum += rt.CompileSeconds
			simSum += rt.SimSeconds
			fmt.Fprintf(os.Stderr, "dspbench: run %-14s %-12v compile %7.3fs  sim %8.3fs\n",
				rt.Bench, rt.Mode, rt.CompileSeconds, rt.SimSeconds)
		}
		fmt.Fprintf(os.Stderr, "dspbench: phase totals   compile %7.3fs  sim %8.3fs over %d runs\n",
			compileSum, simSum, len(report.Runs))
		fmt.Fprintf(os.Stderr, "dspbench: total          %8.3fs  cache %d hits / %d misses / %d prepares (parallel=%d)\n",
			report.TotalSeconds, report.Cache.Hits, report.Cache.Misses, report.Cache.Prepares, h.Parallel)
	}
	if *jsonPath != "" {
		check(report.WriteFile(*jsonPath))
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		f.Close()
	}
}

func runOne(name, partitioner string, engine bench.Engine) {
	p, ok := bench.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dspbench: unknown benchmark %q (use -list)\n", name)
		os.Exit(2)
	}
	method, err := core.ParseMethod(partitioner)
	check(err)
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal,
	}
	cc := new(pipeline.Compiler)
	var base bench.Result
	for _, m := range modes {
		res, err := bench.RunWith(p, m, bench.RunOptions{Partitioner: method, Compiler: cc, Engine: engine})
		check(err)
		if m == alloc.SingleBank {
			base = res
			fmt.Printf("%-12s cycles=%-10d cost=%d\n", m, res.Cycles, res.Mem.Total())
			continue
		}
		fmt.Printf("%-12s cycles=%-10d gain=%+6.1f%% cost=%-8d dupStores=%d dup=%v\n",
			m, res.Cycles, bench.Gain(base, res), res.Mem.Total(), res.DupStores, res.Duplicated)
	}
}

// runSimBench measures per-engine simulator throughput over the
// standard suite, optionally writing a BENCH_sim.json-style report and
// optionally gating on a committed baseline: with a non-empty
// checkPath the run exits 1 if any benchmark's compiled-over-machine
// speedup fell more than 10% below the baseline's. The speedup ratio —
// not raw ns/run — is what's compared, so the check transfers across
// host speeds.
func runSimBench(checkPath, jsonPath string) {
	rows, err := bench.SimBench(bench.SimBenchSuite, 100*time.Millisecond)
	check(err)
	fmt.Print(bench.RenderSimBench(rows))
	if jsonPath != "" {
		report := &bench.Report{GOMAXPROCS: runtime.GOMAXPROCS(0), SimBench: rows}
		check(report.WriteFile(jsonPath))
	}
	if checkPath == "" {
		return
	}
	baseline, err := bench.ReadReport(checkPath)
	check(err)
	if len(baseline.SimBench) == 0 {
		fmt.Fprintf(os.Stderr, "dspbench: %s carries no simbench rows\n", checkPath)
		os.Exit(1)
	}
	if fails := bench.SimCheck(rows, baseline.SimBench, 0.10); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "dspbench: REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("simcheck: no compiled-engine regression vs %s\n", checkPath)
}

// runSelective demonstrates the paper's §5 refinement: duplicate only
// the arrays whose performance gain justifies their memory cost.
func runSelective(name string) {
	p, ok := bench.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dspbench: unknown benchmark %q (use -list)\n", name)
		os.Exit(2)
	}
	res, err := pipeline.CompileSelective(p.Source, p.Name, pipeline.SelectiveOptions{})
	check(err)
	fmt.Printf("selective duplication for %s\n", p.Name)
	fmt.Printf("plain CB: %d cycles, PCR %.3f\n", res.BaseCycles, res.BasePCR)
	fmt.Printf("candidates: %v\n", res.Candidates)
	for _, tr := range res.Trials {
		verdict := "rejected"
		if tr.Kept {
			verdict = "kept"
		}
		fmt.Printf("  %-10s %-8s cycles=%-8d PG=%.2f CI=%.2f PCR=%.3f  (%s)\n",
			tr.Symbol, verdict, tr.Cycles, tr.PG, tr.CI, tr.PCR, tr.Reason)
	}
	fmt.Printf("chosen: %v\n", res.Chosen)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspbench:", err)
		os.Exit(1)
	}
}
