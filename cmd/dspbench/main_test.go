package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllGolden pins `dspbench -all` stdout — every figure, table and
// sweep the harness regenerates — to the committed file, serially and
// on eight workers with timing and the JSON report on, which must not
// move it. The file changes only with a change meant to move a
// reproduced number; the failure message prints the command that
// regenerates it.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	golden := filepath.Join("testdata", "all.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	for _, args := range [][]string{
		{"-all", "-parallel", "1"},
		{"-all", "-parallel", "8", "-timing", "-json", report},
	} {
		parallel := args[2]
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr: %s", parallel, code, stderr.String())
		}
		if got := stdout.Bytes(); !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("-parallel %s: %s line %d drifted:\ngot  %s\nwant %s", parallel, golden, i+1, gl[i], wl[i])
					break
				}
			}
			t.Fatalf("-parallel %s: stdout differs from %s (%d vs %d lines); if the change is intended, regenerate with:\n  go run ./cmd/dspbench -all > cmd/dspbench/%s",
				parallel, golden, len(gl), len(wl), golden)
		}
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("-json wrote no report: %v", err)
	}
}

// TestRunExitCodes checks the usage and runtime failure paths: an
// unknown benchmark or flag exits 2, an unknown engine exits 1, and
// -list prints the suite.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		out  string
	}{
		{[]string{"-bench", "nope"}, 2, `unknown benchmark "nope"`},
		{[]string{"-selective", "nope"}, 2, `unknown benchmark "nope"`},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-engine", "warp"}, 1, "dspbench:"},
		{[]string{"-list"}, 0, "fir_32_1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String()+stderr.String(), tc.out) {
			t.Errorf("%v: output lacks %q:\nstdout %s\nstderr %s", tc.args, tc.out, stdout.String(), stderr.String())
		}
	}
}

// TestRunOneAndSelective smoke-tests the single-benchmark and
// selective-duplication reports.
func TestRunOneAndSelective(t *testing.T) {
	for _, tc := range []struct {
		args []string
		out  []string
	}{
		{[]string{"-bench", "fir_32_1", "-partitioner", "fm"}, []string{"single-bank", "Dup ", "Ideal"}},
		{[]string{"-selective", "fir_32_1"}, []string{"selective duplication for fir_32_1", "chosen:"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, stderr.String())
		}
		for _, want := range tc.out {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: stdout lacks %q:\n%s", tc.args, want, stdout.String())
			}
		}
	}
}
