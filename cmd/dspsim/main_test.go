package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/encode"
	"dualbank/internal/pipeline"
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

func TestRunSimulatesAndPrints(t *testing.T) {
	src := filepath.Join(t.TempDir(), "add.c")
	if err := os.WriteFile(src, []byte(smokeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"single", "cb", "dup", "ideal", "loworder"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-mode", mode, "-print", "z:4", src}, strings.NewReader(""), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("mode %s: exit %d, stderr: %s", mode, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "cycles=") {
			t.Errorf("mode %s: no cycle report: %q", mode, out)
		}
		if !strings.Contains(out, "z[0:4] = 11 22 33 44") {
			t.Errorf("mode %s: wrong z dump: %q", mode, out)
		}
	}
}

// TestRunEngines checks that every engine flag value produces the same
// cycle report and output dump.
func TestRunEngines(t *testing.T) {
	src := filepath.Join(t.TempDir(), "add.c")
	if err := os.WriteFile(src, []byte(smokeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, engine := range []string{"machine", "compiled"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-engine", engine, "-print", "z:4", src}, strings.NewReader(""), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("engine %s: exit %d, stderr: %s", engine, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "z[0:4] = 11 22 33 44") {
			t.Errorf("engine %s: wrong z dump: %q", engine, stdout.String())
		}
		if want == "" {
			want = stdout.String()
		} else if stdout.String() != want {
			t.Errorf("engine %s output diverges:\n got %q\nwant %q", engine, stdout.String(), want)
		}
	}
}

func TestRunFromStdinWithTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "-"}, strings.NewReader(smokeSource), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "main b") {
		t.Errorf("no trace lines: %q", stdout.String())
	}
}

// TestRunROMImage checks the dspcc -o / dspsim -image contract: a
// decoded ROM image must simulate to the same answer as source.
func TestRunROMImage(t *testing.T) {
	c, err := pipeline.Compile(smokeSource, "add", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := encode.Encode(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	rom := filepath.Join(t.TempDir(), "add.rom")
	if err := os.WriteFile(rom, img, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-image", "-print", "z:4", rom}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "z[0:4] = 11 22 33 44") {
		t.Errorf("wrong z dump from image: %q", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("unknown mode: exit %d, want 2", code)
	}
	if code := run(nil, strings.NewReader("int main("), &stdout, &stderr); code != 1 {
		t.Errorf("syntax error: exit %d, want 1", code)
	}
	if code := run([]string{"-image", "-"}, strings.NewReader("not a rom"), &stdout, &stderr); code != 1 {
		t.Errorf("bad image: exit %d, want 1", code)
	}
	for _, engine := range []string{"bogus", "fast"} {
		stderr.Reset()
		if code := run([]string{"-engine", engine}, strings.NewReader(""), &stdout, &stderr); code != 2 {
			t.Errorf("unknown engine %q: exit %d, want 2", engine, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "compiled") || !strings.Contains(msg, "machine") {
			t.Errorf("unknown engine %q: stderr %q does not name the valid engines", engine, msg)
		}
	}
	if code := run([]string{"-trace", "-engine", "compiled", "-"}, strings.NewReader(smokeSource), &stdout, &stderr); code != 2 {
		t.Errorf("trace with non-machine engine: exit %d, want 2", code)
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
