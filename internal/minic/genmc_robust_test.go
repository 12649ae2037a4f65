package minic_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dualbank/internal/genmc"
	"dualbank/internal/minic"
)

// Error-path tests over damaged generated programs. The byte-soup and
// token-soup tests in robust_test.go explore shallow garbage; these
// start from structurally deep, valid programs (the genmc generator's
// three archetypes) and damage them — truncation, deletion, byte
// noise, span duplication — which penetrates the parser's recovery
// paths far past what soup reaches: initializer lists mid-brace,
// nested loops cut at arbitrary depth, expressions with orphaned
// operators. The front end must return a diagnostic, never panic.

// frontEnd runs Parse and, when it succeeds, Analyze, converting any
// panic into a test failure that carries the damaged source.
func frontEnd(t *testing.T, label, src string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: front end panicked: %v\nsource:\n%s", label, r, src)
		}
	}()
	file, err := minic.Parse(src)
	if err != nil {
		if err.Error() == "" {
			t.Fatalf("%s: empty diagnostic", label)
		}
		return
	}
	if err := minic.Analyze(file); err != nil && err.Error() == "" {
		t.Fatalf("%s: empty analysis diagnostic", label)
	}
}

// mutations are the table of damage strategies.
var mutations = []struct {
	name  string
	apply func(src string, r *rand.Rand) string
}{
	{"truncate", func(s string, r *rand.Rand) string {
		return s[:r.Intn(len(s))]
	}},
	{"delete-span", func(s string, r *rand.Rand) string {
		i := r.Intn(len(s))
		n := 1 + r.Intn(40)
		if i+n > len(s) {
			n = len(s) - i
		}
		return s[:i] + s[i+n:]
	}},
	{"duplicate-span", func(s string, r *rand.Rand) string {
		i := r.Intn(len(s))
		n := 1 + r.Intn(40)
		if i+n > len(s) {
			n = len(s) - i
		}
		return s[:i+n] + s[i:i+n] + s[i+n:]
	}},
	{"punct-noise", func(s string, r *rand.Rand) string {
		punct := "{}()[];,=+-*&|^<>!"
		b := []byte(s)
		for k := 0; k < 4; k++ {
			b[r.Intn(len(b))] = punct[r.Intn(len(punct))]
		}
		return string(b)
	}},
	{"byte-noise", func(s string, r *rand.Rand) string {
		b := []byte(s)
		for k := 0; k < 4; k++ {
			b[r.Intn(len(b))] = byte(r.Intn(256))
		}
		return string(b)
	}},
	{"swap-halves", func(s string, r *rand.Rand) string {
		i := r.Intn(len(s))
		return s[i:] + s[:i]
	}},
}

// labelled is one front-end input with a name for diagnostics.
type labelled struct{ label, src string }

// damaged applies one damage strategy to every archetype, 60 seeded
// trials each.
func damaged(name string, apply func(string, *rand.Rand) string) []labelled {
	var out []labelled
	rng := rand.New(rand.NewSource(1069))
	for _, a := range genmc.Archetypes() {
		src := genmc.Generate(genmc.Derive(a, 17)).Source
		for trial := 0; trial < 60; trial++ {
			out = append(out, labelled{fmt.Sprintf("%s/%v trial %d", name, a, trial), apply(src, rng)})
		}
	}
	return out
}

// truncations cuts one compact program of each archetype at every byte
// position.
func truncations() []labelled {
	var out []labelled
	for _, a := range genmc.Archetypes() {
		k := genmc.Knobs{Archetype: a, Seed: 9, Arrays: 2, Size: 16, Loops: 1, Depth: 2, Stmts: 2}
		src := genmc.Generate(k).Source
		for i := 0; i <= len(src); i++ {
			out = append(out, labelled{fmt.Sprintf("%v cut at %d", a, i), src[:i]})
		}
	}
	return out
}

// TestFrontEndSurvivesDamagedGenerated: every damage strategy applied
// to every archetype, many seeded trials each — diagnostics, never
// panics.
func TestFrontEndSurvivesDamagedGenerated(t *testing.T) {
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range damaged(m.name, m.apply) {
				frontEnd(t, in.label, in.src)
			}
		})
	}
}

// TestFrontEndSurvivesEveryTruncation cuts one compact program of each
// archetype at every byte position — the exhaustive version of the
// truncate strategy, covering every possible EOF-in-construct point.
func TestFrontEndSurvivesEveryTruncation(t *testing.T) {
	for _, in := range truncations() {
		frontEnd(t, in.label, in.src)
	}
}

// TestDiagnosticsNameTheProblem: representative damage classes draw
// diagnostics specific enough to act on, pinned loosely (substring,
// not exact spelling) so wording can improve without churn.
func TestDiagnosticsNameTheProblem(t *testing.T) {
	base := genmc.Generate(genmc.Derive(genmc.Pair, 17)).Source
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unterminated-program", strings.TrimSuffix(strings.TrimSpace(base), "}"), "unterminated"},
		{"garbage-prefix", "$$$\n" + base, "unexpected"},
		{"bad-subscript", "int a[] = {1};\nvoid main() { a[1 = 2; }", ""},
		{"undeclared", "void main() { zz = 1; }", "zz"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			file, err := minic.Parse(c.src)
			if err == nil {
				err = minic.Analyze(file)
			}
			if err == nil {
				t.Fatalf("damaged program drew no diagnostic:\n%s", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("diagnostic %q does not mention %q", err, c.want)
			}
		})
	}
}
