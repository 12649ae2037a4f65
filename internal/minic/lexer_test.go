package minic

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll(%q): %v", src, err)
	}
	out := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	got := kinds(t, "int x = 42;")
	want := []Kind{KwInt, IDENT, Assign, INTLIT, Semi, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % & | ^ ~ ! << >> && || ++ -- == != < <= > >= = += -= *= /= %= &= |= ^= <<= >>= ? :"
	want := []Kind{
		Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Bang,
		Shl, Shr, AndAnd, OrOr, Inc, Dec,
		EQ, NE, LT, LE, GT, GE,
		Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
		PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign,
		Question, Colon, EOF,
	}
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		i    int64
		f    float64
	}{
		{"0", INTLIT, 0, 0},
		{"12345", INTLIT, 12345, 0},
		{"0x10", INTLIT, 16, 0},
		{"0xFFFFFFFF", INTLIT, -1, 0}, // wraps to 32-bit
		{"1.5", FLOATLIT, 0, 1.5},
		{"0.25", FLOATLIT, 0, 0.25},
		{".5", FLOATLIT, 0, 0.5},
		{"1e3", FLOATLIT, 0, 1000},
		{"2.5e-2", FLOATLIT, 0, 0.025},
		{"3.0f", FLOATLIT, 0, 3.0},
	}
	for _, c := range cases {
		toks, err := LexAll(c.src)
		if err != nil {
			t.Errorf("LexAll(%q): %v", c.src, err)
			continue
		}
		tok := toks[0]
		if tok.Kind != c.kind {
			t.Errorf("%q: kind %v, want %v", c.src, tok.Kind, c.kind)
		}
		if c.kind == INTLIT && tok.Int != c.i {
			t.Errorf("%q: value %d, want %d", c.src, tok.Int, c.i)
		}
		if c.kind == FLOATLIT && tok.Flt != c.f {
			t.Errorf("%q: value %g, want %g", c.src, tok.Flt, c.f)
		}
	}
}

func TestLexComments(t *testing.T) {
	got := kinds(t, "a // line comment\n b /* block\n comment */ c")
	want := []Kind{IDENT, IDENT, IDENT, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := LexAll("a /* never closed"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexBadCharacter(t *testing.T) {
	if _, err := LexAll("int $x;"); err == nil {
		t.Fatal("expected error for $")
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("intx forx if_ return_ while0")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:5] {
		if tok.Kind != IDENT {
			t.Errorf("%v should lex as identifier", tok)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

// TestLexIntRoundTrip checks that any int32 printed in decimal lexes
// back to itself.
func TestLexIntRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		n := v
		neg := n < 0
		if neg {
			if n == -2147483648 {
				return true // -(min) not representable as a literal
			}
			n = -n
		}
		toks, err := LexAll(fmtInt(int64(n)))
		if err != nil || toks[0].Kind != INTLIT {
			return false
		}
		got := toks[0].Int
		if neg {
			got = -got
		}
		return int32(got) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestLexFloatMatchesStrconv: the lexer's exact float fast path gives
// strconv.ParseFloat's value, bit for bit, on decimals of every
// length, with and without exponents and suffixes.
func TestLexFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		text := digits(rng.Intn(10)) + "." + digits(rng.Intn(12))
		if text == "." {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			text += fmt.Sprintf("e%d", rng.Intn(40)-20)
		case 1:
			text = digits(1+rng.Intn(20)) + "e" + digits(1)
		}
		want, err := strconv.ParseFloat(text, 64)
		if err != nil {
			t.Fatalf("strconv rejects %q: %v", text, err)
		}
		for _, src := range []string{text, text + "f"} {
			toks, err := LexAll(src)
			if err != nil {
				t.Fatalf("LexAll(%q): %v", src, err)
			}
			if toks[0].Kind != FLOATLIT || math.Float64bits(toks[0].Flt) != math.Float64bits(want) {
				t.Fatalf("LexAll(%q) = %v %v, want float %v", src, toks[0].Kind, toks[0].Flt, want)
			}
		}
	}
}
