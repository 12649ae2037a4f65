package minic

import (
	"fmt"

	"dualbank/internal/machine"
)

// Analyze resolves names and type-checks the file, annotating the AST
// in place. On success every Expr has a type and every Ident/VarDecl a
// VarSym.
func Analyze(f *File) error {
	s := &sema{
		funcs:   make(map[string]*FuncDecl),
		globals: make(map[string]*VarSym),
	}
	for _, d := range f.Decls {
		if s.globals[d.Name] != nil {
			return errf(d.Pos, "global %q redeclared", d.Name)
		}
		if s.funcs[d.Name] != nil {
			return errf(d.Pos, "%q redeclared as variable", d.Name)
		}
		if err := s.checkSize(d); err != nil {
			return err
		}
		sym := &VarSym{Name: d.Name, Type: d.Type, Dims: d.Dims, Global: true, Decl: d}
		d.Sym = sym
		s.globals[d.Name] = sym
		if d.Init != nil {
			if err := s.checkInit(d, true); err != nil {
				return err
			}
		}
	}
	for _, fn := range f.Funcs {
		if s.funcs[fn.Name] != nil {
			return errf(fn.Pos, "function %q redefined", fn.Name)
		}
		if s.globals[fn.Name] != nil {
			return errf(fn.Pos, "%q redeclared as function", fn.Name)
		}
		s.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		if err := s.checkFunc(fn); err != nil {
			return err
		}
	}
	if s.funcs["main"] == nil {
		return fmt.Errorf("program has no main function")
	}
	return nil
}

type sema struct {
	funcs   map[string]*FuncDecl
	globals map[string]*VarSym
	// arrayWords sums the words of every array declared so far.
	arrayWords int

	fn        *FuncDecl
	scopes    []map[string]*VarSym
	loopDepth int // enclosing loops (continue targets)
	brkDepth  int // enclosing loops or switches (break targets)
}

func (s *sema) pushScope() { s.scopes = append(s.scopes, map[string]*VarSym{}) }
func (s *sema) popScope()  { s.scopes = s.scopes[:len(s.scopes)-1] }

func (s *sema) declare(d *VarDecl, isParam bool) error {
	top := s.scopes[len(s.scopes)-1]
	if top[d.Name] != nil {
		return errf(d.Pos, "%q redeclared in this scope", d.Name)
	}
	if err := s.checkSize(d); err != nil {
		return err
	}
	sym := &VarSym{Name: d.Name, Type: d.Type, Dims: d.Dims, IsParam: isParam, Decl: d}
	d.Sym = sym
	top[d.Name] = sym
	return nil
}

func (s *sema) lookup(name string) *VarSym {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if v := s.scopes[i][name]; v != nil {
			return v
		}
	}
	return s.globals[name]
}

func (s *sema) checkFunc(fn *FuncDecl) error {
	s.fn = fn
	s.scopes = nil
	s.loopDepth = 0
	s.pushScope()
	for _, p := range fn.Params {
		if err := s.declare(p, true); err != nil {
			return err
		}
	}
	if err := s.checkBlock(fn.Body); err != nil {
		return err
	}
	s.popScope()
	return nil
}

func (s *sema) checkBlock(b *BlockStmt) error {
	s.pushScope()
	defer s.popScope()
	for _, st := range b.Stmts {
		if err := s.checkStmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (s *sema) checkStmt(st Stmt) error {
	switch st := st.(type) {
	case *BlockStmt:
		return s.checkBlock(st)
	case *EmptyStmt:
		return nil
	case *DeclStmt:
		d := st.Decl
		if err := s.declare(d, false); err != nil {
			return err
		}
		if d.Init != nil {
			return s.checkInit(d, false)
		}
		return nil
	case *ExprStmt:
		_, err := s.checkExpr(st.X)
		return err
	case *IfStmt:
		if err := s.checkCond(st.Cond); err != nil {
			return err
		}
		if err := s.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return s.checkStmt(st.Else)
		}
		return nil
	case *WhileStmt:
		if err := s.checkCond(st.Cond); err != nil {
			return err
		}
		s.loopDepth++
		s.brkDepth++
		defer func() { s.loopDepth--; s.brkDepth-- }()
		return s.checkStmt(st.Body)
	case *DoWhileStmt:
		s.loopDepth++
		s.brkDepth++
		err := s.checkStmt(st.Body)
		s.loopDepth--
		s.brkDepth--
		if err != nil {
			return err
		}
		return s.checkCond(st.Cond)
	case *SwitchStmt:
		return s.checkSwitch(st)
	case *ForStmt:
		s.pushScope()
		defer s.popScope()
		if st.Init != nil {
			if err := s.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := s.checkCond(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if _, err := s.checkExpr(st.Post); err != nil {
				return err
			}
		}
		s.loopDepth++
		s.brkDepth++
		defer func() { s.loopDepth--; s.brkDepth-- }()
		return s.checkStmt(st.Body)
	case *ReturnStmt:
		if s.fn.Ret == TypeVoid {
			if st.X != nil {
				return errf(st.Pos, "return with value in void function %q", s.fn.Name)
			}
			return nil
		}
		if st.X == nil {
			return errf(st.Pos, "return without value in function %q returning %s", s.fn.Name, s.fn.Ret)
		}
		t, err := s.checkExpr(st.X)
		if err != nil {
			return err
		}
		return s.requireScalar(st.X.ExprPos(), t, "return value")
	case *BreakStmt:
		if s.brkDepth == 0 {
			return errf(st.Pos, "break outside loop or switch")
		}
		return nil
	case *ContinueStmt:
		if s.loopDepth == 0 {
			return errf(st.Pos, "continue outside loop")
		}
		return nil
	}
	return fmt.Errorf("sema: unknown statement %T", st)
}

// checkSwitch validates a switch statement: integer scrutinee,
// constant unique integer case labels, at most one default.
func (s *sema) checkSwitch(st *SwitchStmt) error {
	t, err := s.checkExpr(st.X)
	if err != nil {
		return err
	}
	if t != TypeInt {
		return errf(st.Pos, "switch scrutinee must be int, got %s", t)
	}
	seen := map[int64]bool{}
	hasDefault := false
	s.brkDepth++
	defer func() { s.brkDepth-- }()
	for _, c := range st.Cases {
		if c.Default {
			if hasDefault {
				return errf(c.Pos, "multiple default cases")
			}
			hasDefault = true
		} else {
			if !isConstExpr(c.Val) {
				return errf(c.Pos, "case label must be a constant")
			}
			setConstType(c.Val, TypeInt)
			v, ok := constIntValue(c.Val)
			if !ok {
				return errf(c.Pos, "case label must be an integer constant")
			}
			if seen[v] {
				return errf(c.Pos, "duplicate case %d", v)
			}
			seen[v] = true
		}
		s.pushScope()
		for _, body := range c.Stmts {
			if err := s.checkStmt(body); err != nil {
				s.popScope()
				return err
			}
		}
		s.popScope()
	}
	return nil
}

// constIntValue evaluates a (possibly negated) integer literal.
func constIntValue(e Expr) (int64, bool) {
	neg := false
	for {
		u, ok := e.(*UnaryExpr)
		if !ok || u.Op != Minus {
			break
		}
		neg = !neg
		e = u.X
	}
	lit, ok := e.(*IntLit)
	if !ok {
		return 0, false
	}
	v := lit.Val
	if neg {
		v = -v
	}
	return v, true
}

func (s *sema) checkCond(e Expr) error {
	t, err := s.checkExpr(e)
	if err != nil {
		return err
	}
	return s.requireScalar(e.ExprPos(), t, "condition")
}

func (s *sema) requireScalar(pos Pos, t TypeName, what string) error {
	if t == TypeVoid {
		return errf(pos, "%s has no value (void)", what)
	}
	return nil
}

// checkInit validates a declaration initializer. Globals require
// constant initializers; locals accept any expression for scalars and
// constant lists for arrays.
func (s *sema) checkInit(d *VarDecl, global bool) error {
	if len(d.Dims) == 0 {
		if _, ok := d.Init.(*InitList); ok {
			return errf(d.Pos, "brace initializer for scalar %q", d.Name)
		}
		if global {
			if !isConstExpr(d.Init) {
				return errf(d.Pos, "global initializer for %q must be constant", d.Name)
			}
			setConstType(d.Init, d.Type)
			return nil
		}
		t, err := s.checkExpr(d.Init)
		if err != nil {
			return err
		}
		return s.requireScalar(d.Pos, t, "initializer")
	}
	lst, ok := d.Init.(*InitList)
	if !ok {
		return errf(d.Pos, "array %q needs a brace initializer", d.Name)
	}
	n, err := countInit(lst, d)
	if err != nil {
		return err
	}
	size := wordsOf(d.Dims)
	if n > size {
		return errf(d.Pos, "too many initializers for %q (%d > %d)", d.Name, n, size)
	}
	return nil
}

// checkSize rejects an array no data bank can hold, and an array that
// takes the program's arrays past the data memory of the widest
// machine. Every symbol lives whole in one bank and every frame is
// static, so no machine could allocate such a program; rejecting it
// here, before lowering builds its initializers, bounds what a
// declaration costs however many words it claims.
func (s *sema) checkSize(d *VarDecl) error {
	if len(d.Dims) == 0 {
		return nil
	}
	n := wordsOf(d.Dims)
	if n < 0 {
		return errf(d.Pos, "array %q does not fit in a data bank (%d words)", d.Name, machine.BankWords)
	}
	const memory = machine.MaxBanks * machine.BankWords
	if s.arrayWords += n; s.arrayWords > memory {
		return errf(d.Pos, "array %q takes the program's arrays past the data memory of the widest machine (%d words)",
			d.Name, memory)
	}
	return nil
}

// wordsOf returns the word count of an array with the given positive
// dimensions, or -1 when it exceeds a data bank. The product is
// bounded factor by factor, so it cannot overflow.
func wordsOf(dims []int) int {
	n := 1
	for _, d := range dims {
		if d > machine.BankWords/n {
			return -1
		}
		n *= d
	}
	return n
}

func countInit(lst *InitList, d *VarDecl) (int, error) {
	n := 0
	elems := lst.Elems
	for _, v := range lst.Vals {
		if v.Kind != InitExpr {
			n++
			continue
		}
		e := elems[0]
		elems = elems[1:]
		if sub, ok := e.(*InitList); ok {
			if len(d.Dims) != 2 {
				return 0, errf(sub.Pos, "nested initializer for 1-D array %q", d.Name)
			}
			m, err := countInit(sub, &VarDecl{Pos: d.Pos, Name: d.Name, Type: d.Type, Dims: d.Dims[1:]})
			if err != nil {
				return 0, err
			}
			if m > d.Dims[1] {
				return 0, errf(sub.Pos, "row initializer too long for %q", d.Name)
			}
			n += d.Dims[1]
			continue
		}
		if !isConstExpr(e) {
			return 0, errf(e.ExprPos(), "array initializer element must be constant")
		}
		setConstType(e, d.Type)
		n++
	}
	return n, nil
}

// isConstExpr reports whether e is a literal, possibly negated.
func isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *FloatLit:
		return true
	case *UnaryExpr:
		return e.Op == Minus && isConstExpr(e.X)
	}
	return false
}

func setConstType(e Expr, t TypeName) {
	e.setType(t)
	if u, ok := e.(*UnaryExpr); ok {
		setConstType(u.X, t)
	}
}

func (s *sema) checkExpr(e Expr) (TypeName, error) {
	switch e := e.(type) {
	case *IntLit:
		e.setType(TypeInt)
		return TypeInt, nil
	case *FloatLit:
		e.setType(TypeFloat)
		return TypeFloat, nil
	case *Ident:
		sym := s.lookup(e.Name)
		if sym == nil {
			return 0, errf(e.Pos, "undeclared identifier %q", e.Name)
		}
		if sym.IsArray() {
			return 0, errf(e.Pos, "array %q used without subscript", e.Name)
		}
		e.Sym = sym
		e.setType(sym.Type)
		return sym.Type, nil
	case *IndexExpr:
		sym := s.lookup(e.Arr.Name)
		if sym == nil {
			return 0, errf(e.Arr.Pos, "undeclared identifier %q", e.Arr.Name)
		}
		if !sym.IsArray() {
			return 0, errf(e.Arr.Pos, "subscript of non-array %q", e.Arr.Name)
		}
		if len(e.Idxs) != len(sym.Dims) {
			return 0, errf(e.Arr.Pos, "array %q has rank %d, got %d subscripts",
				e.Arr.Name, len(sym.Dims), len(e.Idxs))
		}
		e.Arr.Sym = sym
		e.Arr.setType(sym.Type)
		for _, ix := range e.Idxs {
			t, err := s.checkExpr(ix)
			if err != nil {
				return 0, err
			}
			if t != TypeInt {
				return 0, errf(ix.ExprPos(), "array subscript must be int, got %s", t)
			}
		}
		e.setType(sym.Type)
		return sym.Type, nil
	case *CallExpr:
		fn := s.funcs[e.Name]
		if fn == nil {
			return 0, errf(e.Pos, "call to undefined function %q", e.Name)
		}
		if len(e.Args) != len(fn.Params) {
			return 0, errf(e.Pos, "function %q takes %d arguments, got %d",
				e.Name, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			t, err := s.checkExpr(a)
			if err != nil {
				return 0, err
			}
			if err := s.requireScalar(a.ExprPos(), t, "argument"); err != nil {
				return 0, err
			}
			_ = i
		}
		e.Decl = fn
		e.setType(fn.Ret)
		return fn.Ret, nil
	case *UnaryExpr:
		t, err := s.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.Pos, t, "operand"); err != nil {
			return 0, err
		}
		switch e.Op {
		case Minus:
			e.setType(t)
			return t, nil
		case Bang:
			e.setType(TypeInt)
			return TypeInt, nil
		case Tilde:
			if t != TypeInt {
				return 0, errf(e.Pos, "operator ~ requires int, got %s", t)
			}
			e.setType(TypeInt)
			return TypeInt, nil
		}
		return 0, errf(e.Pos, "bad unary operator %s", e.Op)
	case *CastExpr:
		t, err := s.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.Pos, t, "cast operand"); err != nil {
			return 0, err
		}
		e.setType(e.To)
		return e.To, nil
	case *BinaryExpr:
		lt, err := s.checkExpr(e.L)
		if err != nil {
			return 0, err
		}
		rt, err := s.checkExpr(e.R)
		if err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.L.ExprPos(), lt, "operand"); err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.R.ExprPos(), rt, "operand"); err != nil {
			return 0, err
		}
		switch e.Op {
		case Percent, Amp, Pipe, Caret, Shl, Shr:
			if lt != TypeInt || rt != TypeInt {
				return 0, errf(e.Pos, "operator %s requires int operands", e.Op)
			}
			e.setType(TypeInt)
			return TypeInt, nil
		case AndAnd, OrOr, EQ, NE, LT, LE, GT, GE:
			e.setType(TypeInt)
			return TypeInt, nil
		case Plus, Minus, Star, Slash:
			t := TypeInt
			if lt == TypeFloat || rt == TypeFloat {
				t = TypeFloat
			}
			e.setType(t)
			return t, nil
		}
		return 0, errf(e.Pos, "bad binary operator %s", e.Op)
	case *CondExpr:
		if err := s.checkCond(e.Cond); err != nil {
			return 0, err
		}
		tt, err := s.checkExpr(e.Then)
		if err != nil {
			return 0, err
		}
		et, err := s.checkExpr(e.Else)
		if err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.Pos, tt, "?: arm"); err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.Pos, et, "?: arm"); err != nil {
			return 0, err
		}
		t := TypeInt
		if tt == TypeFloat || et == TypeFloat {
			t = TypeFloat
		}
		e.setType(t)
		return t, nil
	case *AssignExpr:
		lt, err := s.checkExpr(e.Lhs)
		if err != nil {
			return 0, err
		}
		rt, err := s.checkExpr(e.Rhs)
		if err != nil {
			return 0, err
		}
		if err := s.requireScalar(e.Pos, rt, "assigned value"); err != nil {
			return 0, err
		}
		switch e.Op {
		case PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign:
			if lt != TypeInt || rt != TypeInt {
				return 0, errf(e.Pos, "operator %s requires int operands", e.Op)
			}
		}
		e.setType(lt)
		return lt, nil
	case *IncDecExpr:
		switch e.X.(type) {
		case *Ident, *IndexExpr:
		default:
			return 0, errf(e.Pos, "%s target must be a variable or array element", e.Op)
		}
		t, err := s.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		e.setType(t)
		return t, nil
	case *InitList:
		return 0, errf(e.Pos, "brace initializer outside declaration")
	}
	return 0, fmt.Errorf("sema: unknown expression %T", e)
}
