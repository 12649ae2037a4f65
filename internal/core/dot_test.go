package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDotGolden pins the Graphviz rendering of the Figure 4 graph —
// nodes in symbol order, edges sorted by endpoint names — so the
// output is stable across runs and map-iteration-order changes.
func TestDotGolden(t *testing.T) {
	g := figure4Graph()
	// Mark one symbol for duplication so the peripheries attribute is
	// covered too.
	g.DupMarks[g.Nodes[1]] = true
	got := g.Dot(g.PartitionK(2, MethodGreedy, -1))

	golden := filepath.Join("testdata", "figure4.dot")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Dot output diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestDotDeterministic renders the same graph many times and requires
// byte-identical output each time.
func TestDotDeterministic(t *testing.T) {
	g := figure4Graph()
	p := g.PartitionK(2, MethodGreedy, -1)
	first := g.Dot(p)
	for i := 0; i < 20; i++ {
		if out := g.Dot(p); out != first {
			t.Fatalf("Dot output varies between calls:\n%s\nvs\n%s", first, out)
		}
	}
}
