// Command dspcorpus generates a seeded corpus of MiniC programs and
// runs every one through the verification gauntlet: compile under
// {single-bank, CB, CBDup}, pin both simulation engines against each
// other and against the generator's own evaluator, check the
// metamorphic invariances, and aggregate per-archetype statistics on
// where compaction-based partitioning and partial duplication pay off.
//
// The run is deterministic: equal (-n, -seed) inputs produce a
// byte-identical report, so the committed BENCH_corpus.json is a
// version-controlled baseline CI can diff.
//
// Usage:
//
//	dspcorpus [-n N] [-seed S] [-workers N] [-metamorphic=false]
//	          [-json path] [-quiet]
//	dspcorpus -certify [-n N] [-seed S] [-certify-budget N] [-json path]
//
// -certify runs the certified sample instead of the verification
// gauntlet: each generated program's interference graph goes through
// the internal/exact branch-and-bound bipartitioner, and the report
// states what fraction of programs each heuristic arm solves provably
// optimally, per archetype.
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
	"syscall"

	"dualbank/internal/genmc/corpus"
)

// writeJSON serializes any report deterministically, matching the
// corpus Report.WriteFile format.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so the smoke
// tests can drive the whole driver in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspcorpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 1000, "number of generated programs")
	seed := fs.Uint64("seed", 1, "population base seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent verifications (any width is deterministic)")
	metamorphic := fs.Bool("metamorphic", true, "also check rename/permutation/bank-swap invariances")
	jsonPath := fs.String("json", "", "write the full report as JSON to this file")
	certify := fs.Bool("certify", false, "run the certified-optimality sample instead of the verification gauntlet")
	certifyBudget := fs.Int64("certify-budget", 0, "branch-and-bound node budget per program (0 = library default)")
	quiet := fs.Bool("quiet", false, "suppress the progress stream on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *certify {
		copts := corpus.CertifyOptions{N: *n, Seed: *seed, Workers: *workers, NodeBudget: *certifyBudget}
		if !*quiet {
			copts.Progress = func(done, total int) {
				if done%100 == 0 || done == total {
					fmt.Fprintf(stderr, "dspcorpus: %d/%d programs certified\n", done, total)
				}
			}
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		rep, err := corpus.Certify(ctx, copts)
		if err != nil {
			fmt.Fprintln(stderr, "dspcorpus:", err)
			return 1
		}
		rep.WriteText(stdout)
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rep); err != nil {
				fmt.Fprintln(stderr, "dspcorpus:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
		}
		return 0
	}

	opts := corpus.Options{
		N:           *n,
		Seed:        *seed,
		Workers:     *workers,
		Metamorphic: *metamorphic,
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(stderr, "dspcorpus: %d/%d programs verified\n", done, total)
			}
		}
	}

	// SIGINT/SIGTERM cancel the run cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := corpus.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "dspcorpus:", err)
		return 1
	}
	rep.WriteText(stdout)
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(stderr, "dspcorpus:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if len(rep.Failures) != 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "dspcorpus: FAIL:", f)
		}
		return 1
	}
	return 0
}
