package minic

import "strconv"

// Lexer turns MiniC source text into a token stream. It tracks the
// offset where the current line starts instead of a column, so
// advancing over a byte other than a newline is one increment.
type Lexer struct {
	src       string
	off       int
	line      int
	lineStart int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.off - l.lineStart + 1} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() {
	if l.src[l.off] == '\n' {
		l.line++
		l.lineStart = l.off + 1
	}
	l.off++
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.number(pos)
	case isAlpha(c):
		start := l.off
		for l.off < len(l.src) && (isAlpha(l.src[l.off]) || isDigit(l.src[l.off])) {
			l.off++
		}
		word := l.src[start:l.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: word}, nil
	}
	l.advance()
	// Two- and three-character operators.
	two := func(next byte, yes, no Kind) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: yes, Pos: pos}
		}
		return Token{Kind: no, Pos: pos}
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Pos: pos}, nil
	case ')':
		return Token{Kind: RParen, Pos: pos}, nil
	case '{':
		return Token{Kind: LBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: RBrace, Pos: pos}, nil
	case '[':
		return Token{Kind: LBrack, Pos: pos}, nil
	case ']':
		return Token{Kind: RBrack, Pos: pos}, nil
	case ',':
		return Token{Kind: Comma, Pos: pos}, nil
	case ';':
		return Token{Kind: Semi, Pos: pos}, nil
	case '?':
		return Token{Kind: Question, Pos: pos}, nil
	case ':':
		return Token{Kind: Colon, Pos: pos}, nil
	case '~':
		return Token{Kind: Tilde, Pos: pos}, nil
	case '=':
		return two('=', EQ, Assign), nil
	case '!':
		return two('=', NE, Bang), nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return Token{Kind: Inc, Pos: pos}, nil
		}
		return two('=', PlusAssign, Plus), nil
	case '-':
		if l.peek() == '-' {
			l.advance()
			return Token{Kind: Dec, Pos: pos}, nil
		}
		return two('=', MinusAssign, Minus), nil
	case '*':
		return two('=', StarAssign, Star), nil
	case '/':
		return two('=', SlashAssign, Slash), nil
	case '%':
		return two('=', PercentAssign, Percent), nil
	case '&':
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: AndAnd, Pos: pos}, nil
		}
		return two('=', AmpAssign, Amp), nil
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: OrOr, Pos: pos}, nil
		}
		return two('=', PipeAssign, Pipe), nil
	case '^':
		return two('=', CaretAssign, Caret), nil
	case '<':
		if l.peek() == '<' {
			l.advance()
			return two('=', ShlAssign, Shl), nil
		}
		return two('=', LE, LT), nil
	case '>':
		if l.peek() == '>' {
			l.advance()
			return two('=', ShrAssign, Shr), nil
		}
		return two('=', GE, GT), nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number lexes an integer or float literal. Its digits are accumulated
// while scanning: a decimal integer of at most 18 digits cannot
// overflow int64, and a float of at most 15 digits and no exponent is
// that integer over a power of ten, both exact in float64, so the one
// division rounds correctly, as strconv would. Longer literals go
// through strconv.
func (l *Lexer) number(pos Pos) (Token, error) {
	start := l.off
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseUint(l.src[start+2:l.off], 16, 64)
		if err != nil {
			return Token{}, errf(pos, "bad hex literal %q", l.src[start:l.off])
		}
		return Token{Kind: INTLIT, Pos: pos, Int: int64(int32(uint32(v)))}, nil
	}
	var acc int64
	digits, frac := 0, 0
	for l.off < len(l.src) && isDigit(l.peek()) {
		acc = acc*10 + int64(l.src[l.off]-'0')
		l.off++
		digits++
	}
	isFloat, exact := false, true
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			acc = acc*10 + int64(l.src[l.off]-'0')
			l.off++
			frac++
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		isFloat, exact = true, false
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.off]
	// Allow a trailing 'f' float suffix, as in C.
	if l.peek() == 'f' || l.peek() == 'F' {
		isFloat = true
		l.advance()
	}
	if isFloat {
		if exact && digits+frac <= 15 {
			return Token{Kind: FLOATLIT, Pos: pos, Flt: float64(acc) / pow10[frac]}, nil
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errf(pos, "bad float literal %q", text)
		}
		return Token{Kind: FLOATLIT, Pos: pos, Flt: v}, nil
	}
	if digits > 18 {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, errf(pos, "bad integer literal %q", text)
		}
		acc = v
	}
	return Token{Kind: INTLIT, Pos: pos, Int: acc}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// rest scans to the end of the source and returns the first lexical
// error on the way, if any.
func (l *Lexer) rest() error {
	for {
		t, err := l.Next()
		if err != nil || t.Kind == EOF {
			return err
		}
	}
}

// LexAll tokenizes the whole input, through the EOF token.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
