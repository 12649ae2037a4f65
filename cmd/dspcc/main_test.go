package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const smokeSource = `
int x[4] = {1, 2, 3, 4};
int y[4] = {10, 20, 30, 40};
int z[4];
void main() {
	int i;
	for (i = 0; i < 4; i++) {
		z[i] = x[i] + y[i];
	}
}
`

func TestRunCompilesFromFile(t *testing.T) {
	src := filepath.Join(t.TempDir(), "add.c")
	if err := os.WriteFile(src, []byte(smokeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"single", "cb", "pr", "dup", "fulldup", "ideal", "loworder"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-mode", mode, "-dump", "all", src}, strings.NewReader(""), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("mode %s: exit %d, stderr: %s", mode, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "main:") {
			t.Errorf("mode %s: no assembly for main in output", mode)
		}
	}
}

func TestRunCompilesFromStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dump", "asm"}, strings.NewReader(smokeSource), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("no assembly on stdout")
	}
}

func TestRunWritesROMImage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "add.c")
	img := filepath.Join(dir, "add.rom")
	if err := os.WriteFile(src, []byte(smokeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", img, src}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote ") {
		t.Errorf("no image confirmation: %q", stdout.String())
	}
	if fi, err := os.Stat(img); err != nil || fi.Size() == 0 {
		t.Fatalf("image missing or empty: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("unknown mode: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(nil, strings.NewReader("void main( {"), &stdout, &stderr); code != 1 {
		t.Errorf("syntax error: exit %d, want 1", code)
	}
	if stderr.Len() == 0 {
		t.Error("syntax error: nothing on stderr")
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.c")}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestCanonicalModeNames pins that each mode's canonical name, the
// spelling the tools print, selects the same mode as its short name.
func TestCanonicalModeNames(t *testing.T) {
	for short, canonical := range map[string]string{
		"single": "single-bank", "cb": "CB", "pr": "Pr", "dup": "Dup",
		"fulldup": "full-dup", "ideal": "Ideal", "loworder": "low-order",
	} {
		var outs [2]string
		for i, mode := range []string{short, canonical} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-mode", mode}, strings.NewReader(smokeSource), &stdout, &stderr); code != 0 {
				t.Fatalf("-mode %s: exit %d, stderr: %s", mode, code, stderr.String())
			}
			outs[i] = stdout.String()
		}
		if outs[0] != outs[1] {
			t.Errorf("-mode %s printed %q, -mode %s %q", short, outs[0], canonical, outs[1])
		}
	}
}
