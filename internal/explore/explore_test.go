package explore

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/explore/store"
)

func prog(t *testing.T, name string) bench.Program {
	t.Helper()
	p, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return p
}

// frontierBytes is the determinism fingerprint the acceptance
// criterion talks about: the frontier (and verdict fields) serialized.
func frontierBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	type verdict struct {
		Frontier     []Point
		CB           Point
		DominatingCB []Point
		Best         Point
		Exhaustive   bool
	}
	var all []verdict
	for _, br := range r.Benchmarks {
		all = append(all, verdict{br.Frontier, br.CB, br.DominatingCB, br.Best, br.Exhaustive})
	}
	all = append(all, verdict{Frontier: r.Suite})
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConfigKeyRoundTrip pins Key/ParseConfig as inverses on the
// whole enumerated space.
func TestConfigKeyRoundTrip(t *testing.T) {
	configs := enumerate([]string{"h", "x"}, []string{"h", "x", "y"}, 3)
	if len(configs) < 30 {
		t.Fatalf("enumerate produced only %d configs", len(configs))
	}
	seen := make(map[string]bool)
	for _, c := range configs {
		key := c.Key()
		if seen[key] {
			t.Fatalf("enumerate repeated config %q", key)
		}
		seen[key] = true
		back, err := ParseConfig(key)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", key, err)
		}
		if back.Key() != key {
			t.Fatalf("round trip %q -> %q", key, back.Key())
		}
	}
	if _, err := ParseConfig("part=bogus"); err == nil {
		t.Error("ParseConfig accepted an unknown partitioner")
	}
	if _, err := ParseConfig("dup=all"); err == nil {
		t.Error("ParseConfig accepted a config without part=")
	}
}

// TestExploreDeterministicAcrossWorkers runs the same exploration at
// 1 and 8 workers and requires byte-identical frontiers.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	progs := []bench.Program{prog(t, "fir_32_1"), prog(t, "mult_4_4")}
	opts := Options{Budget: 120}

	opts.Workers = 1
	r1, err := Explore(context.Background(), progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	r8, err := Explore(context.Background(), progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b1, b8 := frontierBytes(t, r1), frontierBytes(t, r8)
	if string(b1) != string(b8) {
		t.Fatalf("frontier differs between 1 and 8 workers\n1: %s\n8: %s", b1, b8)
	}
	if len(r1.Suite) == 0 {
		t.Error("multi-benchmark exploration produced no suite frontier")
	}
	for _, br := range r1.Benchmarks {
		if len(br.Frontier) == 0 {
			t.Errorf("%s: empty frontier", br.Bench)
		}
		if br.CB.Config != FixedCB.Key() {
			t.Errorf("%s: CB point is %q", br.Bench, br.CB.Config)
		}
	}
}

// TestExploreHWWorkersDeterministic runs the hardware sweep over a few
// programs at one and four workers; the reports must marshal to
// identical bytes.
func TestExploreHWWorkersDeterministic(t *testing.T) {
	progs := []bench.Program{prog(t, "fir_32_1"), prog(t, "iir_1_1"), prog(t, "mult_4_4")}
	var reports [][]byte
	for _, w := range []int{1, 4} {
		rep, err := ExploreHW(context.Background(), progs, nil, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Fatalf("hardware sweep differs between 1 and 4 workers\n1: %s\n4: %s", reports[0], reports[1])
	}
}

// TestExploreResumeAfterKill kills an exploration partway through
// (context cancel triggered by the harness's 9th cache miss), resumes
// it from the checkpoint store, and requires the resumed frontier to
// be byte-identical to an uninterrupted run's — with the
// already-computed prefix replayed from the store, not re-simulated.
// The kill comes from the harness, as a measurement starts, so it
// lands while both workers are mid-run.
func TestExploreResumeAfterKill(t *testing.T) {
	p := prog(t, "fir_32_1")
	uninterrupted, err := Explore(context.Background(), []bench.Program{p}, Options{Budget: 80, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var misses atomic.Int64
	const killAfter = 9
	h := bench.NewHarness(1)
	h.Intercept = func(context.Context, bench.Program, alloc.Mode) error {
		if misses.Add(1) == killAfter {
			cancel()
		}
		return nil
	}
	_, err = Explore(ctx, []bench.Program{p}, Options{
		Budget: 80, Workers: 2, Store: st, Harness: h,
	})
	cancel()
	if err == nil {
		t.Fatal("killed exploration reported success")
	}
	checkpointed := st.Len()
	if checkpointed == 0 {
		t.Fatal("no evaluations were checkpointed before the kill")
	}

	// Resume from the same directory through a fresh Store, as a new
	// process would.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != checkpointed {
		t.Fatalf("reopened store has %d records, want %d", st2.Len(), checkpointed)
	}
	var storeHits atomic.Int64
	resumed, err := Explore(context.Background(), []bench.Program{p}, Options{
		Budget: 80, Workers: 2, Store: st2,
		Progress: func(ev Event) {
			if ev.Source == "store" {
				storeHits.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frontierBytes(t, resumed), frontierBytes(t, uninterrupted); string(got) != string(want) {
		t.Fatalf("resumed frontier differs from uninterrupted run\nresumed: %s\nfull:    %s", got, want)
	}
	if storeHits.Load() == 0 {
		t.Error("resume re-simulated everything: no checkpoint replays")
	}
	if resumed.StoreHits != int(storeHits.Load()) {
		t.Errorf("report counts %d store hits, progress stream saw %d", resumed.StoreHits, storeHits.Load())
	}
}

// TestExploreBudgetTruncates pins budget semantics: a tiny budget
// explores a deterministic prefix and is never marked exhaustive.
func TestExploreBudgetTruncates(t *testing.T) {
	p := prog(t, "fir_32_1")
	r, err := Explore(context.Background(), []bench.Program{p}, Options{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	br := r.Benchmarks[0]
	if br.Evals != 8 {
		t.Errorf("evals = %d, want exactly the budget 8", br.Evals)
	}
	if br.Exhaustive {
		t.Error("truncated exploration claims exhaustion")
	}
	// The paper's arms are front-loaded: CB must be inside any sane
	// budget, or domination verdicts would be impossible.
	if br.CB.Config != FixedCB.Key() {
		t.Errorf("CB point missing from budget-8 prefix: %+v", br.CB)
	}
}

// TestExploreHillClimb forces the adaptive phase (ExactK below the
// array count) and checks it stays within budget and deterministic.
func TestExploreHillClimb(t *testing.T) {
	p := prog(t, "iir_1_1")
	opts := Options{Budget: 60, ExactK: 1, Workers: 4}
	r1, err := Explore(context.Background(), []bench.Program{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	br := r1.Benchmarks[0]
	if br.Exhaustive {
		t.Error("hill-climbed exploration claims exhaustion")
	}
	if br.Evals > 60 {
		t.Errorf("evals = %d exceeds budget 60", br.Evals)
	}
	if len(br.DupArrays) <= 1 {
		t.Fatalf("iir_1_1 has %d dup arrays; need >1 to exercise hill climbing", len(br.DupArrays))
	}
	r2, err := Explore(context.Background(), []bench.Program{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(frontierBytes(t, r1)) != string(frontierBytes(t, r2)) {
		t.Error("hill-climbing exploration is not deterministic")
	}
}

// TestExploreFindsDominatorOrExhaustsFFT256 is the acceptance
// criterion: within a 200-evaluation budget on fft_256 the engine
// either finds a configuration strictly dominating the paper's fixed
// CB point or proves by exhaustion that none exists in the space.
func TestExploreFindsDominatorOrExhaustsFFT256(t *testing.T) {
	if testing.Short() {
		t.Skip("fft_256 exploration in -short mode")
	}
	p := prog(t, "fft_256")
	r, err := Explore(context.Background(), []bench.Program{p}, Options{Budget: 200, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	br := r.Benchmarks[0]
	if len(br.DominatingCB) == 0 && !br.Exhaustive {
		t.Fatalf("budget 200 neither found a dominator of fixed CB nor exhausted the space (evals=%d)", br.Evals)
	}
	for _, d := range br.DominatingCB {
		if d.Cycles > br.CB.Cycles || d.Cost > br.CB.Cost {
			t.Errorf("%q reported as dominating but is not: %+v vs CB %+v", d.Config, d, br.CB)
		}
		if d.Cycles == br.CB.Cycles && d.Cost == br.CB.Cost {
			t.Errorf("%q ties CB, does not dominate", d.Config)
		}
	}
}

// TestFixedMatchesDirectRuns pins the Fixed helper (the tradeoff
// example's engine) to direct bench.Run measurements.
func TestFixedMatchesDirectRuns(t *testing.T) {
	p := prog(t, "fir_32_1")
	base, rows, err := Fixed(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FixedModes) {
		t.Fatalf("%d rows, want %d", len(rows), len(FixedModes))
	}
	directBase, err := bench.Run(p, FixedModes[0])
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Cycles != directBase.Cycles {
		t.Errorf("CB row cycles %d, direct run %d", rows[0].Cycles, directBase.Cycles)
	}
	if base.Cycles <= rows[len(rows)-1].Cycles {
		t.Errorf("baseline (%d cycles) not slower than Ideal (%d)", base.Cycles, rows[len(rows)-1].Cycles)
	}
}

// TestAnalyze smoke-tests the analysis view the explorer example
// wraps.
func TestAnalyze(t *testing.T) {
	p := prog(t, "fir_32_1")
	a, err := Analyze(p.Source, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	a.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"Interference graph", "Final partition", "Bank assignment"} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis text missing %q:\n%s", want, out)
		}
	}
	if dot := a.Dot(); !strings.Contains(dot, "graph") {
		t.Errorf("Dot output does not look like graphviz: %q", dot)
	}
	if _, _, err := DupCandidates(p); err != nil {
		t.Errorf("DupCandidates: %v", err)
	}
}

// TestEnumerateFrontLoadsPaperArms pins the candidate order contract:
// the four paper design points come first, in order.
func TestEnumerateFrontLoadsPaperArms(t *testing.T) {
	configs := enumerate([]string{"a"}, []string{"a", "b"}, 4)
	want := []string{"single", "part=greedy", "part=greedy;prof", "part=greedy;dup=all"}
	for i, w := range want {
		if got := configs[i].Key(); got != w {
			t.Errorf("config[%d] = %q, want %q", i, got, w)
		}
	}
	// Partitioner variety must appear in the grid.
	keys := make(map[string]bool)
	for _, c := range configs {
		keys[c.Key()] = true
	}
	for _, m := range []core.Method{core.MethodFM, core.MethodKL, core.MethodAnneal} {
		if !keys["part="+m.String()] {
			t.Errorf("grid missing partitioner %v", m)
		}
	}
}
