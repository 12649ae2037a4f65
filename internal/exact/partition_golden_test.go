package exact_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/exact"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// goldenBudget is the exact search's node budget in the partition
// golden: small enough to keep the large suite graphs quick, so their
// cells pin budget-cut certificates (BENCH_gaps.json pins the
// full-budget ones).
const goldenBudget = 10_000

// partitionGolden returns one line per (graph, bank count, method):
// the partition's cost and bank vector, and for the exact search its
// certificate. The graphs are the 200 random graphs of the core
// package's k-way sweep and the static and profiled graphs of the 23
// benchmarks, whose scanner-built graphs carry canonical tie ranks.
func partitionGolden(t *testing.T) []string {
	t.Helper()
	type named struct {
		name string
		g    *core.Graph
	}
	var graphs []named
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		graphs = append(graphs, named{fmt.Sprintf("rand%d", seed), randomGraph(rng, n, rng.Intn(4*n))})
	}
	ctx := context.Background()
	cc := new(pipeline.Compiler)
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		prep, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, policy := range []core.WeightPolicy{core.WeightStatic, core.WeightProfiled} {
			g, err := cc.Graph(ctx, prep, policy)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			graphs = append(graphs, named{p.Name + "/" + policy.String(), g})
		}
	}
	methods := []struct {
		name   string
		m      core.Method
		passes int
	}{
		{"greedy", core.MethodGreedy, -1},
		{"kl", core.MethodKL, -1},
		{"anneal", core.MethodAnneal, -1},
		{"fm", core.MethodFM, -1},
		{"fm0", core.MethodFM, 0},
		{"fm1", core.MethodFM, 1},
		{"fm2", core.MethodFM, 2},
	}
	var lines []string
	for _, ng := range graphs {
		for k := 2; k <= 4; k++ {
			for _, m := range methods {
				p := ng.g.PartitionK(k, m.m, m.passes)
				lines = append(lines, fmt.Sprintf("%s k=%d %s cost=%d %s", ng.name, k, m.name, p.Cost, banks(p.Side)))
			}
			r := exact.Solve(ng.g, k, exact.Options{NodeBudget: goldenBudget})
			c := r.Cert
			lines = append(lines, fmt.Sprintf("%s k=%d exact cost=%d %s %v [%d,%d] nodes=%d", ng.name, k, r.Part.Cost,
				banks(r.Part.Side), c.Verdict, c.Lower, c.Upper, c.BBNodes))
		}
	}
	return lines
}

// banks renders a bank vector as one digit per node.
func banks(side []int32) string {
	var sb strings.Builder
	for _, b := range side {
		sb.WriteByte(byte('0' + b))
	}
	return sb.String()
}

// TestPartitionGolden pins every partitioner at two, three and four
// banks: each method's cost and bank vector, and the exact search's
// certificate, node count included. A change to how partitions are
// computed must leave every line as it was; the file changes only with
// a change meant to move a partition.
func TestPartitionGolden(t *testing.T) {
	golden := filepath.Join("testdata", "partitions.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := partitionGolden(t)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", golden, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "partitions-*.golden")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
			t.Fatal(err)
		}
		t.Logf("if the change is intended, regenerate with:\n  cp %s internal/exact/%s", f.Name(), golden)
	}
}
