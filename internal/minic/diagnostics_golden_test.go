package minic_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/minic"
)

// initializerCases are declarations at the edge of the parser's packed
// initializer form: plain and negated literals take it, everything
// else (nested lists, doubled signs, parentheses, arithmetic,
// identifiers) takes the generic expression path and keeps its
// diagnostic and position.
var initializerCases = []string{
	"int a[3] = {1, -2, 3};\nvoid main() {}",
	"float a[3] = {1.5, -2, 0x10};\nvoid main() {}",
	"int a[2] = {- -1, 2};\nvoid main() {}",
	"int a[2] = {--1, 2};\nvoid main() {}",
	"int a[2] = {(1), 2};\nvoid main() {}",
	"int a[2] = {1+2, 2};\nvoid main() {}",
	"int a[2] = {1, x};\nvoid main() {}",
	"int a[2] = {-x, 1};\nvoid main() {}",
	"int a[2] = {{1}, 2};\nvoid main() {}",
	"int a[2][2] = {{1, -2}, {3}};\nvoid main() {}",
	"int a[2][2] = {{1, 2, 3}};\nvoid main() {}",
	"int a[2][2] = {1, {2}};\nvoid main() {}",
	"int a[2] = {1, 2, 3};\nvoid main() {}",
	"int a[2] = {1 2};\nvoid main() {}",
	"int a[2] = {1++, 2};\nvoid main() {}",
	"int a[2] = {-};\nvoid main() {}",
	"int a[2] = {1,};\nvoid main() {}",
	"int a[2] = {};\nvoid main() {}",
	"int a[2] = {1, -2.5e3};\nvoid main() {}",
	"int a = {1};\nvoid main() {}",
	"int a[2] = 1;\nvoid main() {}",
	"void main() { int a[3] = {1, -2, 3}; int b[2] = {1, y}; }",
	"void main() { int x = {1}; }",
	"int x = ; @",
	"int a[2] = {1, @};",
	"int a[2] = {1, 2} int b; /* open",
	"int a[1] = {99999999999999999999};",
	"int a[2] = {-0x80000000, 0xFFFFFFFF};\nvoid main() {}",
	"int a[3037000500][3037000500] = {1};\nvoid main() {}",
}

// diagnostic runs Parse and, when it succeeds, Analyze, and returns
// the outcome as one line.
func diagnostic(src string) string {
	file, err := minic.Parse(src)
	if err != nil {
		return fmt.Sprintf("parse %q", err.Error())
	}
	if err := minic.Analyze(file); err != nil {
		return fmt.Sprintf("analyze %q", err.Error())
	}
	return "ok"
}

// TestDiagnosticsGolden pins every front-end diagnostic, message and
// position, over the damaged generated programs, every truncation,
// the token soup and the initializer edge cases: a faster lexer or
// parser must report exactly what the old one did. The file changes
// only with a change meant to change a diagnostic; on failure the
// computed file is written out and the command that installs it is
// printed.
func TestDiagnosticsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "diagnostics.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")

	var inputs []labelled
	for _, m := range mutations {
		inputs = append(inputs, damaged(m.name, m.apply)...)
	}
	inputs = append(inputs, truncations()...)
	for i, src := range minic.TokenSoup() {
		inputs = append(inputs, labelled{fmt.Sprintf("soup %d", i), src})
	}
	for i, src := range initializerCases {
		inputs = append(inputs, labelled{fmt.Sprintf("init %d", i), src})
	}
	got := make([]string, len(inputs))
	for i, in := range inputs {
		got[i] = in.label + ": " + diagnostic(in.src)
	}

	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", golden, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d diagnostics, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "diagnostics-*.golden")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
			t.Fatal(err)
		}
		t.Logf("if the change is intended, regenerate with:\n  cp %s internal/minic/%s", f.Name(), golden)
	}
}
