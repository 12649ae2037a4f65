package minic

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func analyze(t *testing.T, src string) (*File, error) {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f, Analyze(f)
}

func mustAnalyze(t *testing.T, src string) *File {
	t.Helper()
	f, err := analyze(t, src)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return f
}

func semaErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := analyze(t, src)
	if err == nil {
		t.Fatalf("expected semantic error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestSemaValidProgram(t *testing.T) {
	f := mustAnalyze(t, `
int g;
float arr[8];
int helper(int x) { return x * 2; }
void main() {
	int i;
	for (i = 0; i < 8; i++) {
		arr[i] = (float)helper(i) * 0.5;
	}
	g = helper(3);
}
`)
	// Every identifier must be resolved.
	if f.Decls[0].Sym == nil || !f.Decls[0].Sym.Global {
		t.Fatal("global g not resolved")
	}
}

func TestSemaTypeAnnotation(t *testing.T) {
	f := mustAnalyze(t, `float x; void main() { x = 1 + 2.5; }`)
	asg := f.Funcs[0].Body.Stmts[0].(*ExprStmt).X.(*AssignExpr)
	if asg.Rhs.TypeOf() != TypeFloat {
		t.Fatalf("1 + 2.5 typed %v, want float", asg.Rhs.TypeOf())
	}
	cmpSrc := mustAnalyze(t, `void main() { int b = 1.5 < 2.5; }`)
	d := cmpSrc.Funcs[0].Body.Stmts[0].(*DeclStmt)
	if d.Decl.Init.TypeOf() != TypeInt {
		t.Fatal("comparison should produce int")
	}
}

func TestSemaScoping(t *testing.T) {
	mustAnalyze(t, `
void main() {
	int x = 1;
	{
		int x = 2; // shadows
		x = 3;
	}
	x = 4;
}
`)
	semaErr(t, `void main() { int x; int x; }`, "redeclared")
	semaErr(t, `void main() { { int y; } y = 1; }`, "undeclared")
	// A for-init declaration is scoped to the loop.
	semaErr(t, `void main() { for (int i = 0; i < 3; i++) {} i = 1; }`, "undeclared")
}

func TestSemaErrors(t *testing.T) {
	semaErr(t, `void main() { x = 1; }`, "undeclared")
	semaErr(t, `int a[4]; void main() { a = 1; }`, "without subscript")
	semaErr(t, `int a; void main() { a[0] = 1; }`, "non-array")
	semaErr(t, `int a[4]; void main() { a[1][2] = 1; }`, "rank")
	semaErr(t, `int a[4]; void main() { a[1.5] = 1; }`, "subscript must be int")
	semaErr(t, `void main() { break; }`, "break outside loop")
	semaErr(t, `void main() { continue; }`, "continue outside loop")
	semaErr(t, `int f() { return; } void main() {}`, "without value")
	semaErr(t, `void f() { return 1; } void main() {}`, "void function")
	semaErr(t, `void main() { undefined(); }`, "undefined function")
	semaErr(t, `int f(int a) { return a; } void main() { f(); }`, "takes 1 arguments")
	semaErr(t, `void main() { float x = 1.0 % 2.0; }`, "requires int")
	semaErr(t, `void main() { float x = ~1.5; }`, "requires int")
	semaErr(t, `int g; int g; void main() {}`, "redeclared")
	semaErr(t, `int f() { return 0; } int f() { return 1; } void main() {}`, "redefined")
	semaErr(t, `int main; void main() {}`, "redeclared as function")
	semaErr(t, `int x = y; void main() {}`, "must be constant")
	semaErr(t, `int a[2] = {1, 2, 3}; void main() {}`, "too many initializers")
	semaErr(t, `int a[2] = 5; void main() {}`, "brace initializer")
	semaErr(t, `int a = {1}; void main() {}`, "brace initializer for scalar")
	semaErr(t, `void f() {} void main() { int x = f(); }`, "no value")
	semaErr(t, `void f() {} void main() { if (f()) {} }`, "no value")
	semaErr(t, `int x;`, "no main function")
}

func TestSemaVoidCallStatement(t *testing.T) {
	// Calling a void function as a statement is fine.
	mustAnalyze(t, `void f() {} void main() { f(); }`)
}

func TestSemaImplicitConversions(t *testing.T) {
	mustAnalyze(t, `
float f(float x) { return x; }
void main() {
	int i = 3;
	float y = f(i);   // int argument to float parameter
	i = y;            // float assigned to int
	if (i < y) {}     // mixed comparison
}
`)
}

func TestSemaSwitch(t *testing.T) {
	mustAnalyze(t, `
void main() {
	int x = 2;
	switch (x) {
	case 1:
		x = 10;
		break;
	case -2:
	default:
		x = 20;
	}
}
`)
	semaErr(t, `void main() { float f = 1.0; switch (f) {} }`, "must be int")
	semaErr(t, `void main() { int x; switch (x) { case 1: break; case 1: break; } }`, "duplicate case")
	semaErr(t, `void main() { int x; switch (x) { default: break; default: break; } }`, "multiple default")
	semaErr(t, `void main() { int x; switch (x) { case x: break; } }`, "constant")
	semaErr(t, `void main() { int x; switch (x) { case 1.5: break; } }`, "integer constant")
	// break is legal inside a switch, continue is not (outside a loop).
	semaErr(t, `void main() { int x; switch (x) { case 1: continue; } }`, "continue outside loop")
	// continue inside a loop containing a switch targets the loop.
	mustAnalyze(t, `
void main() {
	int i;
	for (i = 0; i < 4; i++) {
		switch (i) {
		case 2:
			continue;
		default:
			break;
		}
	}
}
`)
}

func TestSemaNestedInitializer(t *testing.T) {
	semaErr(t, `int a[4] = {{1}, 2}; void main() {}`, "nested initializer")
	semaErr(t, `int m[2][2] = {{1,2,3}}; void main() {}`, "row initializer too long")
}

// TestSemaArrayBeyondABank: an array no data bank can hold is a
// semantic error, global or local, and so are arrays that together
// exceed the data memory of the widest machine. The word count is
// bounded without overflow: 3037000500² wraps a 64-bit int negative.
// Wide initializers of empty rows, in one declaration or spread over
// many, are rejected before any of their claimed words are built, so
// Parse and Analyze together allocate in proportion to the source —
// the bound TestParseAllocLinear holds Parse to.
func TestSemaArrayBeyondABank(t *testing.T) {
	banks := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "int a%d[1][65536] = {{}};\n", i)
		}
		return b.String() + "void main() {}"
	}
	mustAnalyze(t, `int a[65536]; void main() { int b[256][256]; a[0] = b[1][2]; }`)
	mustAnalyze(t, banks(8))
	for _, src := range []string{
		`int a[3037000500][3037000500]; int b[4]; void main() { b[1] = 7; a[0][0] = b[1]; }`,
		`void main() { int a[3037000500][3037000500]; a[0][0] = 1; }`,
		`int a[65537]; void main() {}`,
		`void main() { int a[257][256]; }`,
		"int a[100][100000] = {" + strings.Repeat("{},", 99) + "{}};\nvoid main() {}",
	} {
		semaErr(t, src, "does not fit in a data bank")
	}
	semaErr(t, banks(9), "past the data memory of the widest machine")
	semaErr(t, "int a[65536]; void f() { int b[65536]; }\n"+banks(7), "past the data memory")

	const rows = 1 << 14
	for _, c := range []struct{ name, src, want string }{
		{"wide empty rows", fmt.Sprintf("int a[%d][100000] = {%s{}};\nvoid main() {}", rows, strings.Repeat("{},", rows-1)), "does not fit"},
		{"many bank-wide arrays", banks(rows / 8), "past the data memory"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		err = Analyze(f)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want %q", c.name, err, c.want)
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(c.src))
		t.Logf("%s: %.1f bytes allocated per source byte", c.name, per)
		if per > 200 {
			t.Errorf("%s: Parse and Analyze allocated %.0f bytes per source byte, want at most 200", c.name, per)
		}
	}
}
