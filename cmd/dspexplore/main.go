// Command dspexplore searches each benchmark's back-end design space —
// partitioning algorithm, profile weighting, FM refinement budget, and
// per-array duplication subsets — and reports the exact Pareto
// frontier of cycle count versus memory cost (Cost = X + Y + 2·S + I),
// with a verdict against the paper's fixed CB design point.
//
// The search is deterministic at any -workers width: the same inputs
// always produce byte-identical frontiers. With -checkpoint the engine
// writes every completed evaluation to a content-addressed store and a
// re-run resumes from it, replaying finished measurements instead of
// re-simulating (disable replay with -resume=false; checkpoints are
// still written).
//
// Usage:
//
//	dspexplore [-benchmark name[,name...]] [-kernels] [-apps]
//	           [-budget N] [-workers N] [-exactk K] [-banks N] [-ports P]
//	           [-checkpoint dir] [-resume=false] [-fault-profile spec]
//	           [-json path] [-csv path] [-quiet]
//	dspexplore -certify path [-certify-budget N]
//	dspexplore -bench-report path
//	dspexplore -hw-report path [-hw-grid B1xP1,B2xP2,...]
//	dspexplore -list
//
// -banks/-ports pin the exploration to one machine geometry (bank
// count × ports per bank; the default 2×1 is the paper's machine).
// -hw-report instead sweeps a geometry grid with a fixed compiler-arm
// set and writes the three-axis Pareto surface — cycles × memory cost
// × hardware cost — per benchmark (BENCH_hw.json).
//
// -certify runs the certified-optimality sweep instead of a design-
// space exploration: every selected benchmark's interference graph
// (all 23 when none are named) goes through the internal/exact
// branch-and-bound bipartitioner, and the report states each heuristic
// arm's proven optimality gap. The node budget makes the report
// deterministic at any -workers width, so the JSON written to path is
// a byte-stable baseline fit for version control (BENCH_gaps.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"dualbank/internal/bench"
	"dualbank/internal/explore"
	"dualbank/internal/explore/store"
	"dualbank/internal/faultinject"
	"dualbank/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchReportSuite is the pinned suite behind -bench-report: small
// representatives of each kernel family plus two Table 2 applications,
// explored with the default budget. The engine is deterministic, so
// the emitted JSON is a byte-stable baseline fit for version control.
var benchReportSuite = []string{
	"fir_32_1", "iir_1_1", "mult_4_4", "fft_256", "adpcm", "histogram",
}

// run is main with injectable streams and exit code, so the smoke
// tests can drive the whole driver in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmarks := fs.String("benchmark", "", "comma-separated benchmark names to explore (see -list)")
	kernels := fs.Bool("kernels", false, "explore the Table 1 kernel suite")
	apps := fs.Bool("apps", false, "explore the Table 2 application suite")
	list := fs.Bool("list", false, "list benchmark names")
	budget := fs.Int("budget", 200, "evaluation budget per benchmark")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent evaluations (any width is deterministic)")
	exactK := fs.Int("exactk", 4, "exhaustively enumerate duplication subsets up to this many arrays; hill-climb beyond")
	banks := fs.Int("banks", 0, "data-bank count (0 = the classic 2)")
	ports := fs.Int("ports", 0, "ports per bank (0 = the classic 1)")
	hwReport := fs.String("hw-report", "", "sweep machine geometries and write the 3-axis Pareto surface JSON here")
	hwGrid := fs.String("hw-grid", "2x1,3x1,4x1,2x2,3x2,4x2", "comma-separated BxP geometries for -hw-report")
	checkpoint := fs.String("checkpoint", "", "checkpoint completed evaluations to this directory")
	resume := fs.Bool("resume", true, "replay existing checkpoints instead of re-simulating (needs -checkpoint)")
	faultProfile := fs.String("fault-profile", "", "inject checkpoint-store faults per this profile (requires DSP_FAULT_ENABLE=1)")
	jsonPath := fs.String("json", "", "write the full report as JSON to this file")
	csvPath := fs.String("csv", "", "write the frontier points as CSV to this file")
	benchReport := fs.String("bench-report", "", "explore the pinned baseline suite and write its report JSON here")
	certify := fs.String("certify", "", "run the certified-optimality sweep and write its gap report JSON here")
	certifyBudget := fs.Int64("certify-budget", 0, "branch-and-bound node budget per benchmark (0 = library default)")
	quiet := fs.Bool("quiet", false, "suppress the progress stream on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	names := benchNames(*benchmarks, *kernels, *apps, *benchReport != "",
		*certify != "" || *hwReport != "" || *banks != 0 || *ports != 0)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "dspexplore: nothing to explore (use -benchmark, -kernels, -apps, or -bench-report; -list shows names)")
		return 2
	}
	progs := make([]bench.Program, 0, len(names))
	for _, n := range names {
		p, ok := bench.ByName(n)
		if !ok {
			fmt.Fprintf(stderr, "dspexplore: unknown benchmark %q (use -list)\n", n)
			return 2
		}
		progs = append(progs, p)
	}

	if *certify != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		copts := explore.CertifyOptions{NodeBudget: *certifyBudget, Workers: *workers}
		if !*quiet {
			copts.Progress = func(ev explore.CertifyEvent) {
				fmt.Fprintf(stderr, "dspexplore: certify %-14s %2d/%-2d %-8s %d B&B nodes\n",
					ev.Bench, ev.Done, ev.Total, ev.Verdict, ev.BBNodes)
			}
		}
		rep, err := explore.Certify(ctx, progs, copts)
		if err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		rep.WriteText(stdout)
		if err := writeJSON(*certify, rep); err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *certify)
		return 0
	}

	if *hwReport != "" {
		specs, err := parseHWGrid(*hwGrid)
		if err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		rep, err := explore.ExploreHW(ctx, progs, specs, explore.Options{Workers: *workers})
		if err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		writeHWText(stdout, rep)
		if err := writeJSON(*hwReport, rep); err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *hwReport)
		return 0
	}

	opts := explore.Options{
		Budget:   *budget,
		Workers:  *workers,
		ExactK:   *exactK,
		NoResume: !*resume,
		Banks:    *banks,
		Ports:    *ports,
	}
	inj, err := faultinject.FromFlag(*faultProfile)
	if err != nil {
		fmt.Fprintln(stderr, "dspexplore:", err)
		return 2
	}
	if *checkpoint != "" {
		var st *store.Store
		var err error
		if inj != nil {
			fmt.Fprintf(stderr, "dspexplore: FAULT INJECTION ACTIVE on checkpoint store (%s)\n", *faultProfile)
			st, err = store.OpenFS(*checkpoint, faultinject.NewFaultFS(faultinject.OSFS{}, inj))
		} else {
			st, err = store.Open(*checkpoint)
		}
		if err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		opts.Store = st
		if *resume && st.Len() > 0 {
			fmt.Fprintf(stderr, "dspexplore: resuming from %d checkpointed evaluations in %s\n", st.Len(), *checkpoint)
		}
	}
	if !*quiet {
		opts.Progress = func(ev explore.Event) {
			fmt.Fprintf(stderr, "dspexplore: %-12s %3d/%-3d %-10s %-40s", ev.Bench, ev.Done, ev.Planned, ev.Source, ev.Config)
			if ev.Source != "infeasible" {
				fmt.Fprintf(stderr, " %8d cycles %6d words", ev.Cycles, ev.Cost)
			}
			fmt.Fprintln(stderr)
		}
	}

	// SIGINT/SIGTERM cancel the exploration; completed evaluations are
	// already checkpointed, so a re-run with -checkpoint resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := explore.Explore(ctx, progs, opts)
	if err != nil {
		fmt.Fprintln(stderr, "dspexplore:", err)
		return 1
	}

	rep.WriteText(stdout)
	if *jsonPath != "" || *benchReport != "" {
		path := *jsonPath
		if path == "" {
			path = *benchReport
		}
		if err := writeJSON(path, rep); err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err == nil {
			err = rep.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "dspexplore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	return 0
}

// benchNames returns the benchmarks the selection flags pick.
// -bench-report (report) picks its pinned suite. Otherwise -kernels,
// -apps and -benchmark pick, in that order; without any of them the
// certified and hardware sweeps and explorations pinned to a
// non-default machine geometry (wholeSuite) take every benchmark, and
// a plain exploration takes none.
func benchNames(benchmarks string, kernels, apps, report, wholeSuite bool) []string {
	if report {
		return benchReportSuite
	}
	if wholeSuite && !kernels && !apps && benchmarks == "" {
		kernels, apps = true, true
	}
	var names []string
	if kernels {
		for _, p := range bench.Kernels() {
			names = append(names, p.Name)
		}
	}
	if apps {
		for _, p := range bench.Applications() {
			names = append(names, p.Name)
		}
	}
	for _, n := range strings.Split(benchmarks, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// parseHWGrid parses the -hw-grid flag: comma-separated "BxP"
// geometries.
func parseHWGrid(s string) ([]machine.BankSpec, error) {
	var specs []machine.BankSpec
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		var b, p int
		if _, err := fmt.Sscanf(field, "%dx%d", &b, &p); err != nil {
			return nil, fmt.Errorf("bad -hw-grid geometry %q (want BxP)", field)
		}
		spec := machine.BankSpec{Banks: b, PortsPerBank: p}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty -hw-grid")
	}
	return specs, nil
}

// writeHWText renders the sweep's per-benchmark frontiers.
func writeHWText(w io.Writer, rep *explore.HWReport) {
	fmt.Fprintf(w, "hardware co-design sweep: %s over %d benchmarks\n",
		strings.Join(rep.Geometries, " "), len(rep.Benchmarks))
	for _, br := range rep.Benchmarks {
		fmt.Fprintf(w, "%s: %d points, frontier:\n", br.Bench, len(br.Points))
		for _, pt := range br.Frontier {
			fmt.Fprintf(w, "  %dx%d hw=%-3d %8d cycles %6d words  %s\n",
				pt.Banks, pt.Ports, pt.HW, pt.Cycles, pt.Cost, pt.Config)
		}
	}
}

func writeJSON(path string, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
