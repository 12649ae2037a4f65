package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/explore"
	"dualbank/internal/genmc"
)

// TestMain lets the test binary stand in for the benchmark's own in the
// --setup-only child processes a workload run times its set-up in.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics the
// program prints: same names, units and order, valid names, and bounds
// within the contract with set-up time the loosest.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown, or its why is not one short line", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxOther float64
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !validName(m.Name) {
			t.Errorf("end_to_end[%d] = %s [%s], program prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !validName(m.Name) {
			t.Errorf("per_layer[%d] = %s [%s], program prints %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestBaselinesMatchCommittedReports checks the benchmark's pinned
// baselines against the repository's committed reports: the explore
// baseline is BENCH_explore.json itself, the hardware baseline is
// BENCH_hw.json's entries for the explored programs, and the paper
// matrix agrees with BENCH_hw.json's 2x1 points wherever the two
// measure the same configuration.
func TestBaselinesMatchCommittedReports(t *testing.T) {
	committed, err := os.ReadFile("../BENCH_explore.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, exploreBaseline) {
		t.Error("baselines/explore.json differs from BENCH_explore.json")
	}

	data, err := os.ReadFile("../BENCH_hw.json")
	if err != nil {
		t.Fatal(err)
	}
	var full, ours explore.HWReport
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hwBaseline, &ours); err != nil {
		t.Fatal(err)
	}
	if strings.Join(full.Geometries, ",") != strings.Join(ours.Geometries, ",") ||
		strings.Join(full.Configs, ",") != strings.Join(ours.Configs, ",") {
		t.Error("hw baseline grid or arms differ from BENCH_hw.json")
	}
	byName := make(map[string]explore.HWBenchReport)
	for _, br := range full.Benchmarks {
		byName[br.Bench] = br
	}
	for _, br := range ours.Benchmarks {
		a, _ := json.Marshal(br)
		b, _ := json.Marshal(byName[br.Bench])
		if !bytes.Equal(a, b) {
			t.Errorf("hw baseline for %s differs from BENCH_hw.json", br.Bench)
		}
	}

	var paper map[string]cellBase
	if err := json.Unmarshal(paperBaseline, &paper); err != nil {
		t.Fatal(err)
	}
	if len(paper) != 23*len(paperModes) {
		t.Errorf("paper baseline has %d cells, want %d", len(paper), 23*len(paperModes))
	}
	same := map[string]alloc.Mode{"single": alloc.SingleBank, "part=greedy": alloc.CB, "part=greedy;dup=all": alloc.CBDup}
	checked := 0
	for _, br := range full.Benchmarks {
		for _, pt := range br.Points {
			mode, ok := same[pt.Config]
			if !ok || pt.Banks != 2 || pt.Ports != 1 {
				continue
			}
			c := paper[cellKey(br.Bench, mode)]
			if c.Cycles != pt.Cycles || c.MemWords != pt.Cost {
				t.Errorf("%s/%v: paper baseline %d cycles %d words, BENCH_hw.json %d, %d",
					br.Bench, mode, c.Cycles, c.MemWords, pt.Cycles, pt.Cost)
			}
			checked++
		}
	}
	if checked != 23*len(same) {
		t.Errorf("checked %d paper cells against BENCH_hw.json, want %d", checked, 23*len(same))
	}
}

func TestRenderSuiteIsTheHarnessSuite(t *testing.T) {
	got := renderSuite()
	want := append(bench.Kernels(), bench.Applications()...)
	if len(got) != len(want) {
		t.Fatalf("%d programs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Source != want[i].Source {
			t.Errorf("program %d: %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
}

// TestReplayMatchesRunCtx holds the pass-by-pass replay to bench.RunCtx
// on every mode, a profiled k-way configuration, an explicit duplication
// set, and a generated program checked by its oracle.
func TestReplayMatchesRunCtx(t *testing.T) {
	ctx := context.Background()
	rp := &replayer{tr: newTracer(), n: &layerCounts{}}
	gp, _ := genmc.FromName("gen_window_7")
	gen := bench.Program{Name: gp.Name, Source: gp.Source, Check: oracle(gp.Out)}
	type op struct {
		p    bench.Program
		mode alloc.Mode
		ro   bench.RunOptions
	}
	var ops []op
	for _, m := range paperModes {
		ops = append(ops, op{bench.LMSFIR(8, 1), m, bench.RunOptions{}})
	}
	ops = append(ops,
		op{bench.FFT(256), alloc.CBDup, bench.RunOptions{Banks: 4, Ports: 2, Profiled: true, Partitioner: core.MethodFM}},
		op{bench.FIR(32, 1), alloc.CBDup, bench.RunOptions{DupOnly: []string{"h"}}},
		op{gen, alloc.CB, bench.RunOptions{}},
	)
	for _, o := range ops {
		want, err := bench.RunCtx(ctx, o.p, o.mode, o.ro)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.run(ctx, noSpan, o.p, o.mode, o.ro)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMeasurement(got, want) {
			t.Errorf("%s/%v %+v: replay %+v, RunCtx %+v", o.p.Name, o.mode, o.ro, got, want)
		}
	}
	self := selfTimes(rp.tr.snapshot())
	for _, name := range compute {
		if self[name] <= 0 {
			t.Errorf("no time recorded for %s", name)
		}
	}
	profiles := 0
	for _, s := range rp.tr.snapshot() {
		if s.Name == "sim.profile" {
			profiles++
		}
	}
	if profiles != 2 {
		t.Errorf("profile ran %d times, want 2", profiles)
	}
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced
// and traced, and checks it succeeds with every metric of its mode.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.2, trace: traced,
				traceOut: t.TempDir() + "/trace.jsonl", log: &testLog{t}}
			out, err := runWorkload(context.Background(), name, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, err := resultLine(out, defs); err != nil {
				t.Errorf("%s (trace %v): %v", name, traced, err)
			}
			if a, f := out.tally.counts(); a == 0 || f != 0 {
				t.Errorf("%s (trace %v): %s", name, traced, out.tally.summary())
			}
		}
	}
}
