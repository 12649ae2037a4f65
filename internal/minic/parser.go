package minic

import "math"

// Parser is a recursive-descent parser for MiniC. It pulls tokens from
// the lexer as it goes, through a lookahead of at most three tokens:
// tok[0] is the current token and tok[1:n] are the ones peeked past it.
type Parser struct {
	lx  Lexer
	tok [3]Token
	n   int
	// lexErr is the first lexical error. It ends the token stream: every
	// token after it reads as EOF.
	lexErr error
}

// Parse parses a complete MiniC translation unit. A lexical error
// anywhere in the source takes precedence over a syntax error, so on
// a syntax error the rest of the source is scanned before reporting.
func Parse(src string) (*File, error) {
	p := &Parser{lx: *NewLexer(src), n: 1}
	p.lex(&p.tok[0])
	f, err := p.file()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		if lerr := p.lx.rest(); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	return f, nil
}

// lex scans the next token into t; after a lexical error, t is EOF.
func (p *Parser) lex(t *Token) {
	if p.lexErr == nil {
		if *t, p.lexErr = p.lx.Next(); p.lexErr == nil {
			return
		}
	}
	*t = Token{Kind: EOF, Pos: p.lx.pos()}
}

func (p *Parser) cur() Token { return p.tok[0] }

// advance drops the current token.
func (p *Parser) advance() { p.skip(1) }

// skip drops the current token and the k-1 buffered after it.
func (p *Parser) skip(k int) {
	if k == p.n {
		p.n = 1
		p.lex(&p.tok[0])
		return
	}
	copy(p.tok[:], p.tok[k:p.n])
	p.n -= k
}

func (p *Parser) next() Token { t := p.tok[0]; p.advance(); return t }

// peek returns the kind of the token k places past the current one
// (k is 1 or 2).
func (p *Parser) peek(k int) Kind {
	for p.n <= k {
		p.lex(&p.tok[p.n])
		p.n++
	}
	return p.tok[k].Kind
}

func (p *Parser) at(k Kind) bool { return p.tok[0].Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, errf(p.tok[0].Pos, "expected %s, found %s", k, p.tok[0])
}

func (p *Parser) isType() bool {
	k := p.tok[0].Kind
	return k == KwInt || k == KwFloat || k == KwVoid
}

func (p *Parser) typeName() (TypeName, error) {
	t := p.next()
	switch t.Kind {
	case KwInt:
		return TypeInt, nil
	case KwFloat:
		return TypeFloat, nil
	case KwVoid:
		return TypeVoid, nil
	}
	return TypeVoid, errf(t.Pos, "expected type name")
}

func (p *Parser) file() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		if !p.isType() {
			return nil, errf(p.cur().Pos, "expected declaration, found %s", p.cur())
		}
		typ, err := p.typeName()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.at(LParen) {
			fn, err := p.funcRest(typ, name)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
			continue
		}
		decls, err := p.varDeclRest(typ, name)
		if err != nil {
			return nil, err
		}
		f.Decls = append(f.Decls, decls...)
	}
	return f, nil
}

// varDeclRest parses the remainder of a variable declaration after the
// type and first identifier have been consumed, through the semicolon.
func (p *Parser) varDeclRest(typ TypeName, first Token) ([]*VarDecl, error) {
	if typ == TypeVoid {
		return nil, errf(first.Pos, "variable %q declared void", first.Text)
	}
	var out []*VarDecl
	name := first
	for {
		d := &VarDecl{Pos: name.Pos, Name: name.Text, Type: typ}
		for p.accept(LBrack) {
			n, err := p.expect(INTLIT)
			if err != nil {
				return nil, err
			}
			if n.Int <= 0 {
				return nil, errf(n.Pos, "array dimension must be positive")
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			d.Dims = append(d.Dims, int(n.Int))
		}
		if len(d.Dims) > 2 {
			return nil, errf(d.Pos, "arrays of rank > 2 are not supported")
		}
		if p.accept(Assign) {
			init, err := p.initializer()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		out = append(out, d)
		if p.accept(Comma) {
			var err error
			name, err = p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			continue
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// initializer parses a declaration's initializer.
func (p *Parser) initializer() (Expr, error) {
	if p.at(LBrace) {
		return p.initList()
	}
	return p.assignExpr()
}

// initList parses a brace list. An element that is a literal, or one
// minus sign and a literal, followed by `,` or `}` is packed into Vals
// without an AST node; anything else goes through initializer, so
// sema sees it exactly as written.
func (p *Parser) initList() (*InitList, error) {
	lst := &InitList{exprBase: exprBase{Pos: p.next().Pos}}
	for !p.at(RBrace) {
		sign := 0
		if p.at(Minus) {
			sign = 1
		}
		if k := p.peek(sign); k == INTLIT || k == FLOATLIT {
			if after := p.peek(sign + 1); after == Comma || after == RBrace {
				lst.Vals = append(lst.Vals, packLit(&p.tok[sign], sign == 1))
				if after == RBrace {
					p.skip(sign + 1)
					break
				}
				p.skip(sign + 2)
				continue
			}
		}
		e, err := p.initializer()
		if err != nil {
			return nil, err
		}
		lst.Vals = append(lst.Vals, InitVal{Kind: InitExpr})
		lst.Elems = append(lst.Elems, e)
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return lst, nil
}

// packLit packs a literal token, negated when neg is set.
func packLit(t *Token, neg bool) InitVal {
	if t.Kind == FLOATLIT {
		f := t.Flt
		if neg {
			f = -f
		}
		return InitVal{Kind: InitFloat, bits: math.Float64bits(f)}
	}
	i := t.Int
	if neg {
		i = -i
	}
	return InitVal{Kind: InitInt, bits: uint64(i)}
}

func (p *Parser) funcRest(ret TypeName, name Token) (*FuncDecl, error) {
	fn := &FuncDecl{Pos: name.Pos, Name: name.Text, Ret: ret}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if !p.accept(RParen) {
		// Allow the C idiom f(void).
		if p.at(KwVoid) && p.peek(1) == RParen {
			p.next()
			p.next()
		} else {
			for {
				typ, err := p.typeName()
				if err != nil {
					return nil, err
				}
				if typ == TypeVoid {
					return nil, errf(p.cur().Pos, "void parameter")
				}
				id, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				if p.at(LBrack) {
					return nil, errf(id.Pos, "array parameters are not supported; use a global array")
				}
				fn.Params = append(fn.Params, &VarDecl{Pos: id.Pos, Name: id.Text, Type: typ})
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.blockStmt()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) blockStmt() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: lb.Pos}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next()
	return blk, nil
}

func (p *Parser) stmt() (Stmt, error) {
	switch p.cur().Kind {
	case LBrace:
		return p.blockStmt()
	case Semi:
		t := p.next()
		return &EmptyStmt{Pos: t.Pos}, nil
	case KwInt, KwFloat:
		return p.declStmt()
	case KwVoid:
		return nil, errf(p.cur().Pos, "void local variable")
	case KwIf:
		return p.ifStmt()
	case KwWhile:
		return p.whileStmt()
	case KwDo:
		return p.doWhileStmt()
	case KwSwitch:
		return p.switchStmt()
	case KwFor:
		return p.forStmt()
	case KwReturn:
		t := p.next()
		r := &ReturnStmt{Pos: t.Pos}
		if !p.at(Semi) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return r, nil
	case KwBreak:
		t := p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: t.Pos}, nil
	case KwContinue:
		t := p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: t.Pos}, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, nil
}

// declStmt parses a local declaration statement. Multiple declarators
// are wrapped in a BlockStmt-free sequence by returning a BlockStmt
// when needed; single declarators return the DeclStmt directly.
func (p *Parser) declStmt() (Stmt, error) {
	typ, err := p.typeName()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	decls, err := p.varDeclRest(typ, name)
	if err != nil {
		return nil, err
	}
	if len(decls) == 1 {
		return &DeclStmt{Decl: decls[0]}, nil
	}
	blk := &BlockStmt{Pos: decls[0].Pos}
	for _, d := range decls {
		blk.Stmts = append(blk.Stmts, &DeclStmt{Decl: d})
	}
	return blk, nil
}

func (p *Parser) parenExpr() (Expr, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return x, nil
}

func (p *Parser) ifStmt() (Stmt, error) {
	t := p.next()
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: t.Pos, Cond: cond, Then: then}
	if p.accept(KwElse) {
		els, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *Parser) whileStmt() (Stmt, error) {
	t := p.next()
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}, nil
}

func (p *Parser) switchStmt() (Stmt, error) {
	t := p.next()
	x, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{Pos: t.Pos, X: x}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, errf(t.Pos, "unterminated switch")
		}
		var c *SwitchCase
		switch p.cur().Kind {
		case KwCase:
			ct := p.next()
			v, err := p.condExpr()
			if err != nil {
				return nil, err
			}
			c = &SwitchCase{Pos: ct.Pos, Val: v}
		case KwDefault:
			ct := p.next()
			c = &SwitchCase{Pos: ct.Pos, Default: true}
		default:
			return nil, errf(p.cur().Pos, "expected case or default, found %s", p.cur())
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		for !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBrace) && !p.at(EOF) {
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			c.Stmts = append(c.Stmts, s)
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.next()
	return sw, nil
}

func (p *Parser) doWhileStmt() (Stmt, error) {
	t := p.next()
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwWhile); err != nil {
		return nil, err
	}
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &DoWhileStmt{Pos: t.Pos, Body: body, Cond: cond}, nil
}

func (p *Parser) forStmt() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos: t.Pos}
	if !p.at(Semi) {
		if p.at(KwInt) || p.at(KwFloat) {
			d, err := p.declStmt() // consumes the semicolon
			if err != nil {
				return nil, err
			}
			s.Init = d
		} else {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{X: x}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(Semi) {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = x
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Post = x
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// --- Expressions (C precedence) ---

func (p *Parser) expr() (Expr, error) { return p.assignExpr() }

func isAssignOp(k Kind) bool {
	switch k {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
		PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign:
		return true
	}
	return false
}

func (p *Parser) assignExpr() (Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().Kind) {
		op := p.next()
		switch lhs.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, errf(op.Pos, "assignment target must be a variable or array element")
		}
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, Lhs: lhs, Rhs: rhs}, nil
	}
	return lhs, nil
}

func (p *Parser) condExpr() (Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.at(Question) {
		q := p.next()
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		els, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{exprBase: exprBase{Pos: q.Pos}, Cond: c, Then: then, Else: els}, nil
	}
	return c, nil
}

// binPrec gives C binary-operator precedence (higher binds tighter).
func binPrec(k Kind) int {
	switch k {
	case Star, Slash, Percent:
		return 10
	case Plus, Minus:
		return 9
	case Shl, Shr:
		return 8
	case LT, LE, GT, GE:
		return 7
	case EQ, NE:
		return 6
	case Amp:
		return 5
	case Caret:
		return 4
	case Pipe:
		return 3
	case AndAnd:
		return 2
	case OrOr:
		return 1
	}
	return 0
}

func (p *Parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: lhs, R: rhs}
	}
}

func (p *Parser) unaryExpr() (Expr, error) {
	switch p.cur().Kind {
	case Minus, Bang, Tilde:
		op := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, X: x}, nil
	case Plus:
		p.next()
		return p.unaryExpr()
	case Inc, Dec:
		op := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &IncDecExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, X: x}, nil
	case LParen:
		// Cast or parenthesised expression.
		if k := p.peek(1); (k == KwInt || k == KwFloat) && p.peek(2) == RParen {
			lp := p.next()
			typ, _ := p.typeName()
			p.next() // RParen
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &CastExpr{exprBase: exprBase{Pos: lp.Pos}, To: typ, X: x}, nil
		}
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case LBrack:
			id, ok := x.(*Ident)
			if !ok {
				if ix, ok2 := x.(*IndexExpr); ok2 {
					// a[i][j]: extend the existing index expression.
					p.next()
					idx, err := p.expr()
					if err != nil {
						return nil, err
					}
					if _, err := p.expect(RBrack); err != nil {
						return nil, err
					}
					ix.Idxs = append(ix.Idxs, idx)
					continue
				}
				return nil, errf(p.cur().Pos, "indexing a non-array expression")
			}
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			x = &IndexExpr{exprBase: exprBase{Pos: id.Pos}, Arr: id, Idxs: []Expr{idx}}
		case Inc, Dec:
			op := p.next()
			x = &IncDecExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, Postfix: true, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Int}, nil
	case FLOATLIT:
		p.next()
		return &FloatLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Flt}, nil
	case IDENT:
		p.next()
		if p.at(LParen) {
			p.next()
			call := &CallExpr{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
			for !p.at(RParen) {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case LParen:
		return p.parenExpr()
	}
	return nil, errf(t.Pos, "expected expression, found %s", t)
}
