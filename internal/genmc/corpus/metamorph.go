// Package corpus runs corpus-scale differential and metamorphic
// verification over generated MiniC programs, and aggregates the
// paper's CB-vs-duplication comparison into per-archetype statistics.
//
// It is the library behind cmd/dspcorpus and the corpus test gates:
// every program is compiled under the unoptimized baseline, CB
// partitioning, and partial duplication; each compilation runs on both
// simulation engines (reference machine, compiled threaded code), which
// must agree on every counter and every memory word; the final image
// must equal the generator's own evaluator's expectation; and three
// semantics-preserving transforms (identifier renaming, declaration
// permutation, bank swapping) must leave every cycle count invariant.
package corpus

import (
	"fmt"
	"strconv"
	"strings"

	"dualbank/internal/minic"
)

// The transform helpers below are library versions of the metamorphic
// suite's source rewrites: they operate on the token stream, so they
// apply to any valid MiniC translation unit — hand-written benchmark
// or generated program — and return errors instead of failing a test.

// spellToken renders one token back to compilable source. Identifier
// spellings run through rename when non-nil ("main" is pinned — the
// entry point is looked up by name). Literals are re-spelled from
// their parsed values, which round-trip exactly.
func spellToken(tok minic.Token, rename map[string]string) (string, error) {
	switch tok.Kind {
	case minic.IDENT:
		if rename == nil || tok.Text == "main" {
			return tok.Text, nil
		}
		r, ok := rename[tok.Text]
		if !ok {
			r = fmt.Sprintf("mm%d_%s", len(rename), strings.Repeat("q", 1+len(rename)%3))
			rename[tok.Text] = r
		}
		return r, nil
	case minic.INTLIT:
		if tok.Int < 0 {
			// Only hex literals can parse negative; spelling one as "-N"
			// would need expression context.
			return "", fmt.Errorf("negative integer literal %d cannot be re-spelled", tok.Int)
		}
		return strconv.FormatInt(tok.Int, 10), nil
	case minic.FLOATLIT:
		s := strconv.FormatFloat(tok.Flt, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep it a FLOATLIT on re-lex
		}
		return s, nil
	default:
		return tok.Kind.String(), nil
	}
}

// emitTokens joins re-spelled tokens into source the front end accepts.
func emitTokens(toks []minic.Token, rename map[string]string) (string, error) {
	var b strings.Builder
	for i, tok := range toks {
		if tok.Kind == minic.EOF {
			break
		}
		if i > 0 {
			if i%32 == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		s, err := spellToken(tok, rename)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// RenameIdents rewrites source with every identifier (except main)
// replaced by a fresh machine-generated name, in first-occurrence
// order. A compiler keying any decision on spelling diverges on the
// result.
func RenameIdents(source string) (string, error) {
	toks, err := minic.LexAll(source)
	if err != nil {
		return "", err
	}
	return emitTokens(toks, map[string]string{})
}

// topLevelChunks splits the token stream into top-level declarations.
// A chunk ends at a depth-0 semicolon (global declarations, including
// brace-enclosed array initializers) or at a depth-0 closing brace
// followed by a type keyword or EOF (function bodies).
func topLevelChunks(toks []minic.Token) ([][]minic.Token, error) {
	var chunks [][]minic.Token
	var cur []minic.Token
	depth := 0
	for i, tok := range toks {
		if tok.Kind == minic.EOF {
			break
		}
		cur = append(cur, tok)
		switch tok.Kind {
		case minic.LBrace, minic.LParen, minic.LBrack:
			depth++
		case minic.RBrace, minic.RParen, minic.RBrack:
			depth--
		}
		if depth != 0 {
			continue
		}
		end := tok.Kind == minic.Semi
		if tok.Kind == minic.RBrace {
			switch toks[i+1].Kind {
			case minic.KwInt, minic.KwFloat, minic.KwVoid, minic.EOF:
				end = true
			}
		}
		if end {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	if len(cur) != 0 {
		return nil, fmt.Errorf("trailing tokens after the last top-level declaration")
	}
	return chunks, nil
}

// PermuteDecls rewrites source with its top-level declarations in
// reverse order — the full mirror permutation, which displaces every
// declaration and still compiles because MiniC resolves globals and
// functions in a separate pass before checking bodies. A compiler
// whose layout or partitioning depends on declaration order diverges
// on the result.
func PermuteDecls(source string) (string, error) {
	toks, err := minic.LexAll(source)
	if err != nil {
		return "", err
	}
	chunks, err := topLevelChunks(toks)
	if err != nil {
		return "", err
	}
	if len(chunks) < 2 {
		return "", fmt.Errorf("only %d top-level declarations; nothing to permute", len(chunks))
	}
	var out []minic.Token
	for i := len(chunks) - 1; i >= 0; i-- {
		out = append(out, chunks[i]...)
	}
	out = append(out, minic.Token{Kind: minic.EOF})
	return emitTokens(out, nil)
}
