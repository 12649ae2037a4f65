package minic

import (
	"runtime"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return f
}

func parseErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("expected parse error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestParseGlobals(t *testing.T) {
	f := mustParse(t, `
int a;
float b = 1.5;
int c[10];
float d[2][3] = {1.0, 2.0, 3.0, 4.0};
int e, g[4], h = 7;
void main() {}
`)
	if len(f.Decls) != 7 {
		t.Fatalf("got %d decls, want 7", len(f.Decls))
	}
	if f.Decls[3].Name != "d" || len(f.Decls[3].Dims) != 2 {
		t.Errorf("decl d parsed wrong: %+v", f.Decls[3])
	}
	if f.Decls[5].Name != "g" || f.Decls[5].Dims[0] != 4 {
		t.Errorf("multi-declarator g parsed wrong: %+v", f.Decls[5])
	}
}

func TestParseFunctions(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) { return a + b; }
float half(float x) { return x * 0.5; }
void nop(void) {}
void main() {}
`)
	if len(f.Funcs) != 4 {
		t.Fatalf("got %d funcs, want 4", len(f.Funcs))
	}
	if len(f.Funcs[0].Params) != 2 || f.Funcs[0].Ret != TypeInt {
		t.Errorf("add parsed wrong")
	}
	if len(f.Funcs[2].Params) != 0 {
		t.Errorf("nop(void) should have no params")
	}
}

func TestParseStatements(t *testing.T) {
	mustParse(t, `
void main() {
	int i;
	;
	if (i) i = 1; else { i = 2; }
	while (i < 10) i++;
	for (i = 0; i < 5; i++) { continue; }
	for (;;) { break; }
	for (int j = 0; j < 3; j++) {}
	{ int k = 1; k += 2; }
	return;
}
`)
}

func TestParseDoWhile(t *testing.T) {
	f := mustParse(t, `void main() { int i = 0; do { i++; } while (i < 3); }`)
	dw, ok := f.Funcs[0].Body.Stmts[1].(*DoWhileStmt)
	if !ok {
		t.Fatalf("statement is %T, want DoWhileStmt", f.Funcs[0].Body.Stmts[1])
	}
	if dw.Cond == nil || dw.Body == nil {
		t.Fatal("do-while missing parts")
	}
	parseErr(t, `void main() { do {} (1); }`, "expected while")
	parseErr(t, `void main() { do {} while (1) }`, "expected ;")
}

func TestParseExpressionPrecedence(t *testing.T) {
	f := mustParse(t, `void main() { int x; x = 1 + 2 * 3; }`)
	stmt := f.Funcs[0].Body.Stmts[1].(*ExprStmt)
	asg := stmt.X.(*AssignExpr)
	add := asg.Rhs.(*BinaryExpr)
	if add.Op != Plus {
		t.Fatalf("top operator %v, want +", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != Star {
		t.Fatalf("* should bind tighter than +")
	}
}

func TestParseRightAssociativeAssign(t *testing.T) {
	f := mustParse(t, `void main() { int a; int b; a = b = 3; }`)
	stmt := f.Funcs[0].Body.Stmts[2].(*ExprStmt)
	outer := stmt.X.(*AssignExpr)
	if _, ok := outer.Rhs.(*AssignExpr); !ok {
		t.Fatal("assignment should be right-associative")
	}
}

func TestParseTernaryAndLogical(t *testing.T) {
	mustParse(t, `void main() { int a = 1; int b = a > 0 ? a : -a; int c = a && b || !a; }`)
}

func TestParseCasts(t *testing.T) {
	f := mustParse(t, `void main() { float x = 1.0; int i = (int)x + (int)(x * 2.0); }`)
	_ = f
}

func TestParse2DIndex(t *testing.T) {
	f := mustParse(t, `int m[3][4]; void main() { m[1][2] = m[0][0] + 1; }`)
	stmt := f.Funcs[0].Body.Stmts[0].(*ExprStmt)
	asg := stmt.X.(*AssignExpr)
	ix := asg.Lhs.(*IndexExpr)
	if len(ix.Idxs) != 2 {
		t.Fatalf("lhs has %d subscripts, want 2", len(ix.Idxs))
	}
}

func TestParsePostfixAndPrefix(t *testing.T) {
	mustParse(t, `int a[4]; void main() { int i = 0; a[i]++; ++i; --a[0]; i--; }`)
}

func TestParseErrors(t *testing.T) {
	parseErr(t, `void main() { 1 = 2; }`, "assignment target")
	parseErr(t, `int a[0]; void main() {}`, "positive")
	parseErr(t, `int a[2][2][2]; void main() {}`, "rank")
	parseErr(t, `void x; void main() {}`, "void")
	parseErr(t, `void f(int a[]) {} void main() {}`, "array parameters")
	parseErr(t, `void main() { if 1 {} }`, "expected (")
	parseErr(t, `void main() { int x = ; }`, "expected expression")
	parseErr(t, `void main() {`, "unterminated")
	parseErr(t, `void main() { x(); } int`, "expected")
}

func TestParseCallArguments(t *testing.T) {
	f := mustParse(t, `
int f(int a, int b, int c) { return a; }
void main() { f(1, 2 + 3, f(4, 5, 6)); }
`)
	stmt := f.Funcs[1].Body.Stmts[0].(*ExprStmt)
	call := stmt.X.(*CallExpr)
	if len(call.Args) != 3 {
		t.Fatalf("got %d args, want 3", len(call.Args))
	}
	if _, ok := call.Args[2].(*CallExpr); !ok {
		t.Fatal("nested call not parsed")
	}
}

func TestParseInitializers(t *testing.T) {
	f := mustParse(t, `
float w[4] = {1.0, -2.0, 3.0};
int m[2][2] = {{1, 2}, {3, 4}};
void main() {}
`)
	lst := f.Decls[0].Init.(*InitList)
	if len(lst.Vals) != 3 || len(lst.Elems) != 0 {
		t.Fatalf("w initializer has %d elems, %d unpacked", len(lst.Vals), len(lst.Elems))
	}
	if v := lst.Vals[1]; v.Kind != InitFloat || v.Float() != -2.0 {
		t.Errorf("w[1] packed as %+v, want float -2", v)
	}
	nested := f.Decls[1].Init.(*InitList)
	if _, ok := nested.Elems[0].(*InitList); !ok {
		t.Fatal("nested initializer not parsed")
	}
	if row := nested.Elems[1].(*InitList); len(row.Vals) != 2 || row.Vals[0].Kind != InitInt || row.Vals[0].Int() != 3 {
		t.Errorf("m row 1 packed as %+v", row.Vals)
	}
}

// TestParseAllocLinear: Parse allocates in proportion to the source
// however its brace lists are shaped, since /v1/run accepts 1 MiB of
// untrusted source. A list that reserved room for its array's words,
// or for what the rest of the source could hold, would make these
// sources cost the square of their size.
func TestParseAllocLinear(t *testing.T) {
	const size = 1 << 16
	for _, c := range []struct{ name, head, unit, tail string }{
		{"empty rows of a wide array", "int a[1][500000] = {", "{},", "{}};"},
		{"empty lists of wide arrays", "", "int a[500000] = {};", ""},
	} {
		src := c.head + strings.Repeat(c.unit, size/len(c.unit)) + c.tail
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Parse(src); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
		t.Logf("%s: %.1f bytes allocated per source byte", c.name, per)
		if per > 200 {
			t.Errorf("%s: Parse allocated %.0f bytes per source byte, want at most 200", c.name, per)
		}
	}
}

// TestInitListSizedFromSource pins literalCount: a brace list of
// literals is counted exactly, trailing comma, signs, exponents,
// suffixes and hex included, and packed into Vals of exactly that
// capacity; a list holding anything else (a nested list, a comment, a
// name, a missing brace) counts 0 and reserves nothing; and the count
// never comes from the declared size.
func TestInitListSizedFromSource(t *testing.T) {
	for _, c := range []struct {
		list string
		want int
	}{
		{"{1, -2, 0x1F, 3,}", 4},
		{"{1.5e-3f, -.25,\n\t2E+2 }", 3},
		{"{7}", 1},
		{"{}", 0},
		{"{1, 2 /* two */, 3}", 0},
		{"{{1, 2}, {3}}", 0},
		{"{1, n, 3}", 0},
		{"{1, 2", 0},
	} {
		p := &Parser{lx: *NewLexer(c.list), n: 1}
		p.lex(&p.tok[0])
		if got := p.literalCount(); got != c.want {
			t.Errorf("literalCount(%q) = %d, want %d", c.list, got, c.want)
		}
	}
	f := mustParse(t, "int a[500000] = {1, -2, 0x1F, 3,};\nfloat b[8] = {1.5e-3f, -.25, 2E+2};\n")
	for _, d := range f.Decls {
		lst := d.Init.(*InitList)
		if len(lst.Vals) != cap(lst.Vals) {
			t.Errorf("%s: %d values packed with capacity %d", d.Name, len(lst.Vals), cap(lst.Vals))
		}
	}
}
