package corpus

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/cost"
	"dualbank/internal/genmc"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// VerifyModes are the allocation arms the corpus measures: the
// unoptimized single-bank baseline, compaction-based partitioning, and
// partial duplication — the paper's central comparison.
var VerifyModes = []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup}

// Options configures a corpus run.
type Options struct {
	// N is the number of generated programs.
	N int
	// Seed selects the population: program i is generated from
	// archetype i mod 3 and a per-program seed decorrelated across base
	// seeds, so nightly runs with different base seeds cover disjoint
	// populations.
	Seed uint64
	// Workers bounds verification parallelism (default GOMAXPROCS).
	Workers int
	// Metamorphic also checks the three invariances (identifier rename,
	// declaration permutation, bank swap) on every program, plus the
	// multi-bank gauntlet: each program re-verified on a 4-bank, 2-port
	// machine across all three engines with the oracle cross-check and
	// a k-ary bank-permutation invariance.
	Metamorphic bool
	// Progress, when non-nil, is called after each program completes.
	Progress func(done, total int)
}

// Row is one program's verified measurements across the three arms.
type Row struct {
	Name      string `json:"name"`
	Archetype string `json:"archetype"`
	Seed      uint64 `json:"seed"`
	// Cycle counts per arm (all three engines agreed on each).
	CyclesNone int64 `json:"cycles_none"`
	CyclesCB   int64 `json:"cycles_cb"`
	CyclesDup  int64 `json:"cycles_dup"`
	// Memory-cost-model totals per arm.
	MemNone int `json:"mem_none"`
	MemCB   int `json:"mem_cb"`
	MemDup  int `json:"mem_dup"`
	// Duplication detail under CBDup.
	DupArrays int `json:"dup_arrays"`
	DupStores int `json:"dup_stores"`
}

// ArchStats aggregates one archetype's rows into the statistical
// re-test of the paper's claims: how often each technique wins, by how
// much, and what duplication costs when it stops paying.
type ArchStats struct {
	Archetype string `json:"archetype"`
	Programs  int    `json:"programs"`
	// Failures counts programs with at least one verification failure.
	Failures int `json:"failures"`

	// CBWins/CBLosses compare CB cycles against the single-bank
	// baseline; the remainder are ties.
	CBWins   int `json:"cb_wins"`
	CBLosses int `json:"cb_losses"`
	// DupWins/DupLosses compare CBDup cycles against CB.
	DupWins   int `json:"dup_wins"`
	DupLosses int `json:"dup_losses"`
	// DupNoGain counts programs where duplication bought zero cycles
	// but cost extra memory — the region where duplication stops
	// paying.
	DupNoGain int `json:"dup_no_gain"`
	// DupActive counts programs where CBDup actually duplicated
	// something.
	DupActive int `json:"dup_active"`

	// Gains are percentages; CB is measured against the baseline,
	// Dup against CB.
	MeanCBGainPct    float64 `json:"mean_cb_gain_pct"`
	MedianCBGainPct  float64 `json:"median_cb_gain_pct"`
	MeanDupGainPct   float64 `json:"mean_dup_gain_pct"`
	MedianDupGainPct float64 `json:"median_dup_gain_pct"`
	// MeanDupMemPct is duplication's mean memory overhead over CB.
	MeanDupMemPct float64 `json:"mean_dup_mem_pct"`
}

// Report is a corpus run's full result, serialized as the committed
// BENCH_corpus.json baseline. Field order, row order and float
// rounding are all deterministic: equal (N, Seed) inputs on a correct
// build produce byte-identical files.
type Report struct {
	N           int         `json:"n"`
	Seed        uint64      `json:"seed"`
	Metamorphic bool        `json:"metamorphic"`
	Failures    []string    `json:"failures,omitempty"`
	Stats       []ArchStats `json:"stats"`
	Rows        []Row       `json:"rows"`
}

// engines pins one compiled arm: the reference machine, the fast
// predecoded engine and the compiled threaded-code engine run the same
// schedule and must agree on every counter and every memory word; the
// reference image must equal the generator's expected outputs. It
// returns the agreed cycle count and appends any divergence to fails.
func engines(ctx context.Context, gp genmc.Program, c *pipeline.Compiled, cc *pipeline.Compiler, fails *[]string) int64 {
	mode := c.Alloc.Mode
	fail := func(format string, args ...any) {
		*fails = append(*fails, fmt.Sprintf("%s/%v: ", gp.Name, mode)+fmt.Sprintf(format, args...))
	}
	if err := compact.Validate(c.Sched); err != nil {
		fail("schedule: %v", err)
		return 0
	}
	ref, err := c.RunCtx(ctx)
	if err != nil {
		fail("reference: %v", err)
		return 0
	}
	fast, err := c.RunFastCtx(ctx)
	if err != nil {
		fail("fast: %v", err)
		return ref.Cycles
	}
	cm, err := c.RunCompiledCtx(ctx, cc.SimBatch())
	if err != nil {
		fail("compiled: %v", err)
		return ref.Cycles
	}

	type counter struct {
		name           string
		ref, fast, cmp int64
	}
	for _, ctr := range []counter{
		{"cycles", ref.Cycles, fast.Cycles, cm.Cycles},
		{"ops", ref.OpsExecuted, fast.OpsExecuted, cm.OpsExecuted},
		{"mem accesses", ref.MemAccesses, fast.MemAccesses, cm.MemAccesses},
		{"dual-mem cycles", ref.DualMemCycles, fast.DualMemCycles, cm.DualMemCycles},
		{"bank conflicts", ref.BankConflicts, fast.BankConflicts, cm.BankConflicts},
	} {
		if ctr.fast != ctr.ref {
			fail("%s: fast %d, reference %d", ctr.name, ctr.fast, ctr.ref)
		}
		if ctr.cmp != ctr.ref {
			fail("%s: compiled %d, reference %d", ctr.name, ctr.cmp, ctr.ref)
		}
	}

	// Full-image pinning across every bank (two on the classic machine,
	// more under a multi-bank spec): fast covers the whole bank; the
	// compiled arenas cover the used prefix, beyond which the reference
	// must have left zeroes (same discipline as the differential suite).
	for b := range ref.Banks {
		rb, fb, cb := ref.Banks[b], fast.Banks[b], cm.Banks[b]
		for i := range rb {
			if fb[i] != rb[i] {
				fail("fast image diverges in bank %d at word %#x", b, i)
				break
			}
		}
		n := len(cb)
		for i := 0; i < n; i++ {
			if cb[i] != rb[i] {
				fail("compiled image diverges in bank %d at word %#x", b, i)
				break
			}
		}
		for i := n; i < len(rb); i++ {
			if rb[i] != 0 {
				fail("reference wrote bank %d word %#x beyond the compiled arena (%d words)", b, i, n)
				break
			}
		}
	}

	// The generator's evaluator is the independent oracle: the final
	// image must match it array for array, word for word.
	names := make([]string, 0, len(gp.Out))
	for name := range gp.Out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sym := c.Global(name)
		if sym == nil {
			fail("global %s missing after compilation", name)
			continue
		}
		for i, want := range gp.Out[name] {
			got, err := ref.Word(sym, i)
			if err != nil {
				fail("%s[%d]: %v", name, i, err)
				break
			}
			if int32(got) != want {
				fail("%s[%d] = %d, generator expects %d", name, i, int32(got), want)
				break
			}
		}
	}
	return ref.Cycles
}

// fastCycles finishes prep under o and returns the fast engine's cycle
// count, for the metamorphic comparisons.
func fastCycles(ctx context.Context, cc *pipeline.Compiler, prep *pipeline.Prepared, o pipeline.Options) (int64, error) {
	c, err := cc.Finish(ctx, prep, o)
	if err != nil {
		return 0, err
	}
	m, err := c.RunFastCtx(ctx)
	if err != nil {
		return 0, err
	}
	return m.Cycles, nil
}

// VerifyProgram runs one generated program through the full gauntlet:
// three allocation arms, three engines each, the expected-output
// oracle, and (optionally) the three metamorphic invariances. It
// returns the measured row and every failure found — an empty slice
// means the program verified clean. Each distinct source — the
// program and its two transformed variants — runs the front end once;
// every arm finishes its own copy.
func VerifyProgram(ctx context.Context, gp genmc.Program, cc *pipeline.Compiler, metamorphic bool) (Row, []string) {
	row := Row{
		Name:      gp.Name,
		Archetype: gp.Knobs.Archetype.String(),
		Seed:      gp.Knobs.Seed,
	}
	var fails []string
	prep, prepErr := pipeline.Prepare(ctx, gp.Source, gp.Name, opt.Options{})
	base := make(map[alloc.Mode]int64, len(VerifyModes))
	for _, mode := range VerifyModes {
		if prepErr != nil {
			fails = append(fails, fmt.Sprintf("%s/%v: compile: %v", gp.Name, mode, prepErr))
			continue
		}
		c, err := cc.Finish(ctx, prep, pipeline.Options{Mode: mode})
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s/%v: compile: %v", gp.Name, mode, err))
			continue
		}
		cycles := engines(ctx, gp, c, cc, &fails)
		base[mode] = cycles
		mem := cost.Of(c.Alloc, c.Sched).Total()
		switch mode {
		case alloc.SingleBank:
			row.CyclesNone, row.MemNone = cycles, mem
		case alloc.CB:
			row.CyclesCB, row.MemCB = cycles, mem
		case alloc.CBDup:
			row.CyclesDup, row.MemDup = cycles, mem
			row.DupArrays = len(c.Alloc.Duplicated)
			row.DupStores = c.Alloc.DupStores
		}
	}

	if metamorphic && len(fails) == 0 {
		variants := []struct {
			label     string
			transform func(string) (string, error)
			swap      bool
		}{
			{"rename", RenameIdents, false},
			{"permute", PermuteDecls, false},
			{"swap-banks", nil, true},
		}
		for _, v := range variants {
			vprep := prep
			if v.transform != nil {
				source, err := v.transform(gp.Source)
				if err == nil {
					vprep, err = pipeline.Prepare(ctx, source, gp.Name, opt.Options{})
				}
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s: %s: %v", gp.Name, v.label, err))
					continue
				}
			}
			for _, mode := range VerifyModes {
				got, err := fastCycles(ctx, cc, vprep, pipeline.Options{Mode: mode, SwapBanks: v.swap})
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s/%v: %s: %v", gp.Name, mode, v.label, err))
					continue
				}
				if got != base[mode] {
					fails = append(fails, fmt.Sprintf("%s/%v: %s changed cycles: %d -> %d",
						gp.Name, mode, v.label, base[mode], got))
				}
			}
		}

		// Multi-bank gauntlet: the same program compiled for a 4-bank,
		// 2-port machine must verify on all three engines against the
		// generator's oracle, and its cycle count must be invariant
		// under a k-ary bank permutation (the generalization of the
		// bank-swap variant above). The report's rows carry classic
		// measurements only, so the committed baseline bytes are
		// untouched — this gauntlet can only add failures.
		hwSpec := machine.BankSpec{Banks: 4, PortsPerBank: 2}
		for _, mode := range []alloc.Mode{alloc.CB, alloc.CBDup} {
			c, err := cc.Finish(ctx, prep, pipeline.Options{Mode: mode, Spec: hwSpec})
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s/%v: hw 4x2: compile: %v", gp.Name, mode, err))
				continue
			}
			hwCycles := engines(ctx, gp, c, cc, &fails)
			got, err := fastCycles(ctx, cc, prep,
				pipeline.Options{Mode: mode, Spec: hwSpec, BankPerm: []int{1, 2, 3, 0}})
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s/%v: hw 4x2 perm: %v", gp.Name, mode, err))
			} else if got != hwCycles {
				fails = append(fails, fmt.Sprintf("%s/%v: hw 4x2 bank permutation changed cycles: %d -> %d",
					gp.Name, mode, hwCycles, got))
			}
		}
	}
	return row, fails
}

// Run verifies a whole corpus in parallel and aggregates the report.
// Verification failures do not abort the run — they are collected into
// Report.Failures so one bad program yields one diagnosable line, not
// a truncated corpus. The returned error covers infrastructure only
// (context cancellation).
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.N <= 0 {
		return nil, fmt.Errorf("corpus: N must be positive, got %d", o.N)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > o.N {
		workers = o.N
	}
	pop := genmc.Population(o.N, o.Seed)
	rows := make([]Row, o.N)
	fails := make([][]string, o.N)
	var done atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := new(pipeline.Compiler)
			for i := range next {
				gp := genmc.Generate(pop[i])
				rows[i], fails[i] = VerifyProgram(ctx, gp, cc, o.Metamorphic)
				if o.Progress != nil {
					o.Progress(int(done.Add(1)), o.N)
				}
			}
		}()
	}
feed:
	for i := 0; i < o.N; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	r := &Report{N: o.N, Seed: o.Seed, Metamorphic: o.Metamorphic, Rows: rows}
	for _, fs := range fails {
		r.Failures = append(r.Failures, fs...)
	}
	r.Stats = computeStats(rows, fails)
	return r, nil
}

// round3 fixes float formatting in the committed baseline to three
// decimals.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func meanMedian(vals []float64) (mean, median float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	sort.Float64s(vals)
	mid := vals[len(vals)/2]
	if len(vals)%2 == 0 {
		mid = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
	}
	return round3(sum / float64(len(vals))), round3(mid)
}

// computeStats folds per-program rows into per-archetype statistics.
func computeStats(rows []Row, fails [][]string) []ArchStats {
	stats := make([]ArchStats, 0, 3)
	for _, a := range genmc.Archetypes() {
		s := ArchStats{Archetype: a.String()}
		var cbGains, dupGains, memPcts []float64
		for i, row := range rows {
			if row.Archetype != s.Archetype {
				continue
			}
			s.Programs++
			if len(fails[i]) != 0 {
				s.Failures++
				continue
			}
			switch {
			case row.CyclesCB < row.CyclesNone:
				s.CBWins++
			case row.CyclesCB > row.CyclesNone:
				s.CBLosses++
			}
			switch {
			case row.CyclesDup < row.CyclesCB:
				s.DupWins++
			case row.CyclesDup > row.CyclesCB:
				s.DupLosses++
			default:
				if row.MemDup > row.MemCB {
					s.DupNoGain++
				}
			}
			if row.DupArrays > 0 {
				s.DupActive++
			}
			if row.CyclesNone > 0 {
				cbGains = append(cbGains, 100*float64(row.CyclesNone-row.CyclesCB)/float64(row.CyclesNone))
			}
			if row.CyclesCB > 0 {
				dupGains = append(dupGains, 100*float64(row.CyclesCB-row.CyclesDup)/float64(row.CyclesCB))
			}
			if row.MemCB > 0 {
				memPcts = append(memPcts, 100*float64(row.MemDup-row.MemCB)/float64(row.MemCB))
			}
		}
		s.MeanCBGainPct, s.MedianCBGainPct = meanMedian(cbGains)
		s.MeanDupGainPct, s.MedianDupGainPct = meanMedian(dupGains)
		s.MeanDupMemPct, _ = meanMedian(memPcts)
		stats = append(stats, s)
	}
	return stats
}

// WriteFile serializes the report deterministically.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteText prints the per-archetype summary table — the statistical
// re-test of the paper's claims at corpus scale.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "corpus: %d generated programs (seed %d), %d verification failures\n",
		r.N, r.Seed, len(r.Failures))
	fmt.Fprintf(w, "%-10s %5s %6s %8s %8s %8s %8s %9s %9s %8s\n",
		"archetype", "progs", "fails", "cb-wins", "dup-wins", "dup-loss", "dup-idle",
		"cb-gain", "dup-gain", "dup-mem")
	for _, s := range r.Stats {
		fmt.Fprintf(w, "%-10s %5d %6d %8d %8d %8d %8d %8.1f%% %8.1f%% %7.1f%%\n",
			s.Archetype, s.Programs, s.Failures, s.CBWins, s.DupWins, s.DupLosses,
			s.DupNoGain, s.MeanCBGainPct, s.MeanDupGainPct, s.MeanDupMemPct)
	}
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Report)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
