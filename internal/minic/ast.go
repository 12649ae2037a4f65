package minic

import "math"

// TypeName is a MiniC scalar type.
type TypeName int8

const (
	TypeVoid TypeName = iota
	TypeInt
	TypeFloat
)

func (t TypeName) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	}
	return "?"
}

// File is a parsed translation unit.
type File struct {
	Decls []*VarDecl // globals, in source order
	Funcs []*FuncDecl
}

// VarDecl declares one variable or array (a source declaration with
// multiple declarators is split into one VarDecl per name).
type VarDecl struct {
	Pos  Pos
	Name string
	Type TypeName
	Dims []int // [] scalar, [N], or [R C]
	Init Expr  // scalar initializer, or *InitList for arrays; may be nil
	// Sym is filled by semantic analysis.
	Sym *VarSym
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Ret    TypeName
	Params []*VarDecl // scalars only
	Body   *BlockStmt
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// BlockStmt is a `{ ... }` compound statement.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt is a local variable declaration.
type DeclStmt struct{ Decl *VarDecl }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct{ X Expr }

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a bottom-tested do { ... } while (cond); loop.
type DoWhileStmt struct {
	Pos  Pos
	Body Stmt
	Cond Expr
}

// ForStmt is a C for loop.
type ForStmt struct {
	Pos  Pos
	Init Stmt // DeclStmt or ExprStmt; may be nil
	Cond Expr // may be nil (true)
	Post Expr // may be nil
	Body Stmt
}

// SwitchStmt is a C switch over an integer scrutinee. Cases fall
// through unless terminated by break, exactly as in C.
type SwitchStmt struct {
	Pos   Pos
	X     Expr
	Cases []*SwitchCase
}

// SwitchCase is one `case N:` (or `default:`) arm with the statements
// that follow it up to the next label.
type SwitchCase struct {
	Pos     Pos
	Default bool
	Val     Expr // constant expression; nil for default
	Stmts   []Stmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	Pos Pos
	X   Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt jumps to the innermost loop's next iteration.
type ContinueStmt struct{ Pos Pos }

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ Pos Pos }

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*SwitchStmt) stmt()   {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*EmptyStmt) stmt()    {}

// Expr is an expression node. Semantic analysis records each node's
// type via SetType; lowering reads it via TypeOf.
type Expr interface {
	expr()
	ExprPos() Pos
	TypeOf() TypeName
	setType(TypeName)
}

type exprBase struct {
	Pos Pos
	typ TypeName
}

func (e *exprBase) expr()              {}
func (e *exprBase) ExprPos() Pos       { return e.Pos }
func (e *exprBase) TypeOf() TypeName   { return e.typ }
func (e *exprBase) setType(t TypeName) { e.typ = t }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a float literal.
type FloatLit struct {
	exprBase
	Val float64
}

// Ident references a variable.
type Ident struct {
	exprBase
	Name string
	Sym  *VarSym // resolved by sema
}

// IndexExpr is a[i] or a[i][j].
type IndexExpr struct {
	exprBase
	Arr  *Ident
	Idxs []Expr // 1 or 2, matching the array's rank
}

// CallExpr is f(args...).
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
	Decl *FuncDecl // resolved by sema
}

// UnaryExpr is -x, !x, ~x.
type UnaryExpr struct {
	exprBase
	Op Kind // Minus, Bang, Tilde
	X  Expr
}

// CastExpr is (int)x or (float)x.
type CastExpr struct {
	exprBase
	To TypeName
	X  Expr
}

// BinaryExpr is a binary arithmetic, logical or relational expression.
type BinaryExpr struct {
	exprBase
	Op   Kind // Plus..GE, AndAnd, OrOr
	L, R Expr
}

// CondExpr is c ? a : b.
type CondExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// AssignExpr is lhs op= rhs (op Assign for plain =). Lhs is an Ident or
// IndexExpr.
type AssignExpr struct {
	exprBase
	Op  Kind // Assign, PlusAssign, ...
	Lhs Expr
	Rhs Expr
}

// IncDecExpr is ++x, --x, x++, or x--.
type IncDecExpr struct {
	exprBase
	Op      Kind // Inc or Dec
	Postfix bool
	X       Expr // Ident or IndexExpr
}

// InitList is a brace-enclosed array initializer, one entry of Vals
// per element in source order. The parser packs a plain literal
// element (an integer or float literal, negated at most once) into its
// InitVal with no AST node; every other element — a nested list, or an
// expression sema checks — is an InitExpr entry standing for the next
// expression of Elems.
type InitList struct {
	exprBase
	Vals  []InitVal
	Elems []Expr
}

// InitKind says what one initializer element holds.
type InitKind uint8

const (
	// InitExpr stands for the next expression of InitList.Elems.
	InitExpr InitKind = iota
	// InitInt is a packed integer literal, its sign applied.
	InitInt
	// InitFloat is a packed float literal, its sign applied.
	InitFloat
)

// InitVal is one initializer element: an int64, or a float64's bits,
// for a packed literal.
type InitVal struct {
	Kind InitKind
	bits uint64
}

// Int returns an InitInt element's value.
func (v InitVal) Int() int64 { return int64(v.bits) }

// Float returns an InitFloat element's value.
func (v InitVal) Float() float64 { return math.Float64frombits(v.bits) }

// VarSym is the semantic object for a declared variable; it links the
// front-end name to the IR symbol created during lowering.
type VarSym struct {
	Name    string
	Type    TypeName
	Dims    []int
	Global  bool
	IsParam bool
	Decl    *VarDecl
}

// IsArray reports whether the symbol is an array.
func (v *VarSym) IsArray() bool { return len(v.Dims) > 0 }

// Words returns the symbol's size in 32-bit words.
func (v *VarSym) Words() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}
