// Tradeoff explores the performance/cost frontier of §4.2: for a
// chosen application it evaluates every allocation strategy, applies
// the paper's first-order cost model (Cost = X + Y + 2S + I), and
// prints the Performance Gain, Cost Increase, and Performance/Cost
// Ratio of each — the per-application view of Table 3. It is a thin
// wrapper over the exploration engine's fixed-mode sweep
// (internal/explore.Fixed); the full search over partitioners and
// duplication subsets lives in cmd/dspexplore.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"dualbank/internal/bench"
	"dualbank/internal/explore"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run explores the benchmark named by the -bench flag in args and
// writes its frontier to stdout.
func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("tradeoff", flag.ExitOnError)
	name := fs.String("bench", "lpc", "application benchmark to explore (see dspbench -list)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, ok := bench.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q; available: %s", *name, strings.Join(bench.Names(), ", "))
	}
	base, rows, err := explore.Fixed(context.Background(), p, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Performance/cost frontier for %s\n", p.Name)
	fmt.Fprintf(stdout, "baseline: %d cycles, cost %d words (X=%d Y=%d stack=%d instr=%d)\n\n",
		base.Cycles, base.Mem.Total(), base.Mem.XData, base.Mem.YData, base.Mem.Stack, base.Mem.Instr)
	fmt.Fprintf(stdout, "%-14s %10s %6s %6s %6s %6s   %s\n",
		"mode", "cycles", "PG", "CI", "PCR", "cost", "duplicated")
	for _, row := range rows {
		fmt.Fprintf(stdout, "%-14s %10d %6.2f %6.2f %6.2f %6d   %s\n",
			row.Mode, row.Cycles, row.Metrics.PG, row.Metrics.CI, row.Metrics.PCR, row.Cost,
			strings.Join(row.Duplicated, ","))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "PCR > 1 means the speedup outweighs the memory cost; the paper")
	fmt.Fprintln(stdout, "uses this to argue full duplication is never cost-effective while")
	fmt.Fprintln(stdout, "partitioning (and selective duplication) usually is.")
	return nil
}
