package explore

// Certify is the fleet-wide optimality-gap reporter: it runs the
// certified exact partitioner (internal/exact) on every benchmark's
// interference graph and measures each heuristic arm — greedy, FM,
// annealing — against the proven bound. The output answers the
// question the heuristic-vs-heuristic comparisons cannot: not "which
// heuristic wins" but "how far is each from optimal".
//
// Determinism contract: the exact solver's budget is a node count and
// every heuristic is deterministic, so the report bytes depend only on
// the benchmark set and budget — never on -workers width or machine.
// Workers parallelise across benchmarks only; within one benchmark the
// arms and the solver run sequentially on the same graph.

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/exact"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// CertifyOptions configures a certification sweep.
type CertifyOptions struct {
	// NodeBudget is the branch-and-bound node budget per benchmark
	// (0 = exact.DefaultNodeBudget). Deterministic at any value.
	NodeBudget int64
	// Workers bounds concurrent benchmarks (default 1). Any width
	// produces a byte-identical report.
	Workers int
	// Progress, when non-nil, receives one event per certified
	// benchmark, serialized.
	Progress func(CertifyEvent)
}

// CertifyEvent is one progress notification.
type CertifyEvent struct {
	Bench   string
	Verdict string
	BBNodes int64
	Done    int
	Total   int
}

// ArmGap is one heuristic arm's distance from the certified bound.
type ArmGap struct {
	Arm  string `json:"arm"`
	Cost int64  `json:"cost"`
	// GapPct is the arm's proven-gap ceiling as a percentage of the
	// certified lower bound: 0 means the arm matched the bound (under
	// verdict "optimal", provably optimal); a positive value is the
	// most the arm can be worse than optimal. -1 is the sentinel for a
	// positive cost over a zero lower bound, where no percentage is
	// meaningful.
	GapPct float64 `json:"gap_pct"`
}

// BenchCert is one benchmark's certification outcome.
type BenchCert struct {
	Bench string `json:"bench"`
	// Arrays is the interference-graph node count, Active the nodes
	// with at least one edge (the ones partitioning can affect).
	Arrays int   `json:"arrays"`
	Active int   `json:"active"`
	Edges  int   `json:"edges"`
	Total  int64 `json:"total_weight"`

	Cert exact.Certificate `json:"certificate"`
	// Arms reports greedy, fm, and anneal in that fixed order.
	Arms []ArmGap `json:"arms"`
}

// CertReport is a whole certification sweep's outcome.
type CertReport struct {
	NodeBudget int64       `json:"node_budget"`
	Benchmarks []BenchCert `json:"benchmarks"`

	// Verdict tallies across the suite.
	Optimal   int `json:"optimal"`
	Bounded   int `json:"bounded"`
	Exhausted int `json:"exhausted,omitempty"`
	// MaxGapPct is the worst finite arm gap in the suite.
	MaxGapPct float64 `json:"max_gap_pct"`
}

// Certify certifies every program's partition. The report lists
// benchmarks in input order regardless of worker scheduling. A program
// may only name its benchmark (see bench.Program): the worker that
// certifies it builds it.
func Certify(ctx context.Context, progs []bench.Program, opts CertifyOptions) (*CertReport, error) {
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = exact.DefaultNodeBudget
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(progs) {
		workers = len(progs)
	}

	out := make([]BenchCert, len(progs))
	errs := make([]error, len(progs))
	next := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cc := new(pipeline.Compiler)
			for i := range next {
				out[i], errs[i] = certifyBench(ctx, cc, progs[i], opts.NodeBudget)
				mu.Lock()
				done++
				if opts.Progress != nil && errs[i] == nil {
					opts.Progress(CertifyEvent{
						Bench:   out[i].Bench,
						Verdict: out[i].Cert.Verdict.String(),
						BBNodes: out[i].Cert.BBNodes,
						Done:    done,
						Total:   len(progs),
					})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range progs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &CertReport{NodeBudget: opts.NodeBudget, Benchmarks: out}
	for _, bc := range out {
		switch bc.Cert.Verdict {
		case exact.Optimal:
			rep.Optimal++
		case exact.Bounded:
			rep.Bounded++
		default:
			rep.Exhausted++
		}
		for _, a := range bc.Arms {
			if a.GapPct > rep.MaxGapPct {
				rep.MaxGapPct = a.GapPct
			}
		}
	}
	return rep, nil
}

// certifyBench certifies one benchmark on the worker's compiler cc:
// prepare it, build the static interference graph CB plans on, measure
// each heuristic arm on it, then run the exact solver and express every
// arm against the certified bound.
func certifyBench(ctx context.Context, cc *pipeline.Compiler, p bench.Program, budget int64) (BenchCert, error) {
	if p.Source == "" {
		built, ok := bench.ByName(p.Name)
		if !ok {
			return BenchCert{}, fmt.Errorf("certify: %s: unknown benchmark", p.Name)
		}
		p = built
	}
	prep, err := cc.Prepare(ctx, p.Source, p.Name, opt.Options{})
	if err != nil {
		return BenchCert{}, fmt.Errorf("certify: %s: %w", p.Name, err)
	}
	g, err := cc.Graph(ctx, prep, core.WeightStatic)
	if err != nil {
		return BenchCert{}, fmt.Errorf("certify: %s: %w", p.Name, err)
	}
	csr := g.CSR()
	bc := BenchCert{Bench: p.Name, Arrays: len(g.Nodes), Total: csr.Total}
	for i := range g.Nodes {
		if csr.Degree(i) > 0 {
			bc.Active++
		}
	}
	bc.Edges = len(csr.Adj) / 2

	arms := []struct {
		name string
		cost int64
	}{
		{"greedy", g.PartitionK(2, core.MethodGreedy, -1).Cost},
		{"fm", g.PartitionK(2, core.MethodFM, -1).Cost},
		{"anneal", g.PartitionK(2, core.MethodAnneal, -1).Cost},
	}
	r := exact.Solve(g, 2, exact.Options{NodeBudget: budget})
	bc.Cert = r.Cert
	for _, a := range arms {
		if a.cost < r.Cert.Upper {
			return bc, fmt.Errorf("certify: %s: exact cost %d exceeds %s arm's %d — solver invariant broken",
				p.Name, r.Cert.Upper, a.name, a.cost)
		}
		bc.Arms = append(bc.Arms, ArmGap{Arm: a.name, Cost: a.cost, GapPct: gapPct(a.cost, r.Cert.Lower)})
	}
	return bc, nil
}

// gapPct expresses an arm cost against the certified lower bound.
func gapPct(cost, lower int64) float64 {
	switch {
	case cost <= lower:
		return 0
	case lower > 0:
		return math.Round(100*float64(cost-lower)/float64(lower)*1000) / 1000
	default:
		return -1
	}
}

// WriteText renders the report as the aligned table the CLI prints.
func (r *CertReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "certified optimality gaps (budget %d B&B nodes)\n", r.NodeBudget)
	fmt.Fprintf(w, "%-14s %-8s %-12s", "benchmark", "verdict", "bound")
	for _, arm := range []string{"greedy", "fm", "anneal"} {
		fmt.Fprintf(w, " %16s", arm)
	}
	fmt.Fprintf(w, " %10s\n", "bb-nodes")
	for _, bc := range r.Benchmarks {
		bound := fmt.Sprintf("%d", bc.Cert.Upper)
		if bc.Cert.Lower != bc.Cert.Upper {
			bound = fmt.Sprintf("[%d,%d]", bc.Cert.Lower, bc.Cert.Upper)
		}
		fmt.Fprintf(w, "%-14s %-8s %-12s", bc.Bench, bc.Cert.Verdict, bound)
		for _, a := range bc.Arms {
			fmt.Fprintf(w, " %7d %8s", a.Cost, pctString(a.GapPct))
		}
		fmt.Fprintf(w, " %10d\n", bc.Cert.BBNodes)
	}
	fmt.Fprintf(w, "%d benchmarks: %d optimal, %d bounded, %d budget-exhausted; worst proven gap %s\n",
		len(r.Benchmarks), r.Optimal, r.Bounded, r.Exhausted, pctString(r.MaxGapPct))
}

// pctString renders a gap percentage, with the -1 sentinel spelled out.
func pctString(pct float64) string {
	if pct < 0 {
		return "n/a"
	}
	return fmt.Sprintf("+%.3g%%", pct)
}
