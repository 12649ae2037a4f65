package minic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics feeds random byte soup and random token soup
// to the front-end: it must return errors, never panic or hang.
func TestParserNeverPanics(t *testing.T) {
	f := func(junk []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", junk, r)
				ok = false
			}
		}()
		file, err := Parse(string(junk))
		if err == nil {
			// Valid parses must also survive analysis without panicking.
			_ = Analyze(file)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TokenSoup returns 2000 inputs built from valid token spellings in
// random order (seed 11). The diagnostics golden reads it too.
func TokenSoup() []string {
	words := []string{
		"int", "float", "void", "if", "else", "while", "for", "do",
		"switch", "case", "default", "return", "break", "continue",
		"x", "y", "main", "f", "42", "1.5", "0x10",
		"(", ")", "{", "}", "[", "]", ",", ";", "?", ":",
		"+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
		"<<", ">>", "&&", "||", "++", "--",
		"==", "!=", "<", "<=", ">", ">=",
		"=", "+=", "-=", "*=", "/=", "%=",
	}
	rng := rand.New(rand.NewSource(11))
	out := make([]string, 2000)
	for trial := range out {
		n := 1 + rng.Intn(40)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		out[trial] = sb.String()
	}
	return out
}

// TestParserNeverPanicsOnTokenSoup builds inputs from valid token
// spellings in random order — much deeper parser penetration than raw
// bytes.
func TestParserNeverPanicsOnTokenSoup(t *testing.T) {
	for _, src := range TokenSoup() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on token soup %q: %v", src, r)
				}
			}()
			file, err := Parse(src)
			if err == nil {
				_ = Analyze(file)
			}
		}()
	}
}

// TestDeepNestingBounded: pathological nesting depth must not crash
// the recursive-descent parser within reasonable limits.
func TestDeepNestingBounded(t *testing.T) {
	depth := 2000
	src := "void main() { int x = " + strings.Repeat("(", depth) + "1" +
		strings.Repeat(")", depth) + "; }"
	file, err := Parse(src)
	if err != nil {
		t.Fatalf("deep parens rejected: %v", err)
	}
	if err := Analyze(file); err != nil {
		t.Fatalf("deep parens failed analysis: %v", err)
	}
}
