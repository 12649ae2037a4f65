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

// goldenPrograms are the programs the front-end golden pins: the 23
// benchmarks and a 200-program generated sample.
func goldenPrograms() []Program {
	progs := append(Kernels(), Applications()...)
	for _, k := range genmc.Population(200, 1) {
		g := genmc.Generate(k)
		progs = append(progs, Program{Name: g.Name, Source: g.Source})
	}
	return progs
}

// preparedLine prepares p on cc and returns its golden line: its name
// and the sha256 of its IR after the front end.
func preparedLine(t *testing.T, cc *pipeline.Compiler, p Program) string {
	t.Helper()
	prep, err := cc.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return fmt.Sprintf("%s %x", p.Name, irFingerprint(prep.IR()))
}

// TestPrepareGolden pins the front end's output: parsing, loop shaping
// and register allocation must produce exactly the IR recorded in the
// golden file, so a faster front end cannot change what the back end
// sees. The file changes only with a front-end change meant to change
// the IR; the computed contents are printed on failure. Every program
// is prepared three times: on a fresh compiler, and on one compiler
// shared by every program in file order and then in reverse, so
// nothing an earlier, larger or smaller program leaves in a compiler's
// tables may reach the next one's IR.
func TestPrepareGolden(t *testing.T) {
	golden := filepath.Join("testdata", "prepared_ir.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	progs := goldenPrograms()
	got := make([]string, len(progs))
	for i, p := range progs {
		got[i] = preparedLine(t, new(pipeline.Compiler), p)
	}
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
		return
	}
	cc := new(pipeline.Compiler)
	for _, order := range []string{"file order", "reverse order"} {
		for k := range progs {
			i := k
			if order == "reverse order" {
				i = len(progs) - 1 - k
			}
			if line := preparedLine(t, cc, progs[i]); line != want[i] {
				t.Fatalf("%s on a shared compiler in %s (after %d programs):\ngot  %s\nwant %s", progs[i].Name, order, k, line, want[i])
			}
		}
	}
}
