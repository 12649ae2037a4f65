package corpus

// Certified sample: the population-scale arm of the certified-
// optimality engine. Where Run re-tests the paper's cycle-count claims
// statistically, Certify re-tests the partitioner itself — it runs the
// internal/exact branch-and-bound on a seeded sample of generated
// programs' interference graphs and states, per archetype, what
// fraction of them each heuristic solves provably optimally.

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"dualbank/internal/bench"
	"dualbank/internal/explore"
	"dualbank/internal/genmc"
)

// CertifyOptions configures a certified sample.
type CertifyOptions struct {
	// N is the number of generated programs in the sample.
	N int
	// Seed selects the population exactly as Options.Seed does, so the
	// certified sample of (N, Seed) is a prefix-compatible slice of the
	// corpus Run measures.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS). Any width
	// produces an identical report.
	Workers int
	// NodeBudget is the branch-and-bound budget per program
	// (0 = exact.DefaultNodeBudget).
	NodeBudget int64
	// Progress, when non-nil, is called after each program completes.
	Progress func(done, total int)
}

// CertRow is one generated program's certification outcome.
type CertRow struct {
	Name      string `json:"name"`
	Archetype string `json:"archetype"`
	Verdict   string `json:"verdict"`
	Lower     int64  `json:"lower"`
	Upper     int64  `json:"upper"`
	Greedy    int64  `json:"greedy"`
	FM        int64  `json:"fm"`
	Anneal    int64  `json:"anneal"`
	BBNodes   int64  `json:"bb_nodes"`
}

// CertArchStats aggregates one archetype's certified sample.
type CertArchStats struct {
	Archetype string `json:"archetype"`
	Programs  int    `json:"programs"`
	// Certified counts programs whose search closed (verdict optimal);
	// the *Optimal fields count, among those, the programs each
	// heuristic solved to the proven optimum.
	Certified     int `json:"certified"`
	GreedyOptimal int `json:"greedy_optimal"`
	FMOptimal     int `json:"fm_optimal"`
	AnnealOptimal int `json:"anneal_optimal"`
}

// CertifyReport is a certified sample's outcome.
type CertifyReport struct {
	N          int             `json:"n"`
	Seed       uint64          `json:"seed"`
	NodeBudget int64           `json:"node_budget"`
	Stats      []CertArchStats `json:"stats"`
	Rows       []CertRow       `json:"rows"`

	// Certified counts programs with a closed (optimal) verdict;
	// FMOptimalPct is the headline number — the percentage of certified
	// programs FM solves provably optimally.
	Certified    int     `json:"certified"`
	FMOptimalPct float64 `json:"fm_optimal_pct"`
}

// Certify runs the certified sample: each generated program's CB
// interference graph goes through explore.Certify, which runs the
// exact solver on it and scores every heuristic arm against the proven
// optimum.
func Certify(ctx context.Context, o CertifyOptions) (*CertifyReport, error) {
	if o.N <= 0 {
		return nil, fmt.Errorf("corpus: N must be positive, got %d", o.N)
	}
	copts := explore.CertifyOptions{NodeBudget: o.NodeBudget, Workers: o.Workers}
	if copts.Workers <= 0 {
		copts.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Progress != nil {
		copts.Progress = func(ev explore.CertifyEvent) { o.Progress(ev.Done, ev.Total) }
	}
	// Name-only programs: explore.Certify's workers generate them.
	progs := make([]bench.Program, o.N)
	arch := make([]string, o.N)
	for i, k := range genmc.Population(o.N, o.Seed) {
		progs[i], arch[i] = bench.Program{Name: k.Name()}, k.Archetype.String()
	}
	cert, err := explore.Certify(ctx, progs, copts)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	r := &CertifyReport{N: o.N, Seed: o.Seed, NodeBudget: cert.NodeBudget, Rows: make([]CertRow, o.N)}
	for i, bc := range cert.Benchmarks {
		r.Rows[i] = CertRow{
			Name:      bc.Bench,
			Archetype: arch[i],
			Verdict:   bc.Cert.Verdict.String(),
			Lower:     bc.Cert.Lower,
			Upper:     bc.Cert.Upper,
			Greedy:    bc.Arms[0].Cost,
			FM:        bc.Arms[1].Cost,
			Anneal:    bc.Arms[2].Cost,
			BBNodes:   bc.Cert.BBNodes,
		}
	}
	archs := genmc.Archetypes()
	r.Stats = make([]CertArchStats, len(archs))
	byArch := make(map[string]*CertArchStats, len(archs))
	for i, a := range archs {
		r.Stats[i] = CertArchStats{Archetype: a.String()}
		byArch[a.String()] = &r.Stats[i]
	}
	fmOptimal := 0
	for _, row := range r.Rows {
		s := byArch[row.Archetype]
		if s == nil {
			return nil, fmt.Errorf("corpus: %s: unknown archetype %q", row.Name, row.Archetype)
		}
		s.Programs++
		if row.Verdict != "optimal" {
			continue
		}
		s.Certified++
		r.Certified++
		if row.Greedy == row.Upper {
			s.GreedyOptimal++
		}
		if row.FM == row.Upper {
			s.FMOptimal++
			fmOptimal++
		}
		if row.Anneal == row.Upper {
			s.AnnealOptimal++
		}
	}
	if r.Certified > 0 {
		r.FMOptimalPct = round3(100 * float64(fmOptimal) / float64(r.Certified))
	}
	return r, nil
}

// WriteText prints the per-archetype certified-sample table.
func (r *CertifyReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "certified sample: %d generated programs (seed %d), %d certified optimal closures\n",
		r.N, r.Seed, r.Certified)
	fmt.Fprintf(w, "%-10s %5s %9s %10s %10s %10s\n",
		"archetype", "progs", "certified", "greedy-opt", "fm-opt", "anneal-opt")
	for _, s := range r.Stats {
		fmt.Fprintf(w, "%-10s %5d %9d %10d %10d %10d\n",
			s.Archetype, s.Programs, s.Certified, s.GreedyOptimal, s.FMOptimal, s.AnnealOptimal)
	}
	fmt.Fprintf(w, "FM provably optimal on %.3g%% of certified programs\n", r.FMOptimalPct)
}
