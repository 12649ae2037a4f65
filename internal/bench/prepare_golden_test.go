package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/genmc"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// preparedGolden returns one line per program, its name and the sha256
// of its IR after the front end, over the 23 benchmarks and a
// 200-program generated sample.
func preparedGolden(t *testing.T) []string {
	t.Helper()
	progs := append(Kernels(), Applications()...)
	for _, k := range genmc.Population(200, 1) {
		g := genmc.Generate(k)
		progs = append(progs, Program{Name: g.Name, Source: g.Source})
	}
	lines := make([]string, len(progs))
	for i, p := range progs {
		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		lines[i] = fmt.Sprintf("%s %x", p.Name, irFingerprint(prep.IR()))
	}
	return lines
}

// TestPrepareGolden pins the front end's output: parsing, loop shaping
// and register allocation must produce exactly the IR recorded in the
// golden file, so a faster front end cannot change what the back end
// sees. The file changes only with a front-end change meant to change
// the IR; the computed contents are printed on failure.
func TestPrepareGolden(t *testing.T) {
	golden := filepath.Join("testdata", "prepared_ir.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := preparedGolden(t)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			name, _, _ := strings.Cut(got[i], " ")
			t.Errorf("%s: front-end IR of %s drifted (line %d):\ngot  %s\nwant %s", golden, name, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d programs, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		t.Logf("computed file:\n%s", strings.Join(got, "\n"))
	}
}
