package opt

import (
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/minic"
)

// lowered parses, checks and lowers src without optimizing it.
func lowered(t *testing.T, src string) *ir.Program {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := minic.Analyze(file); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, err := lower.Program(file, "t")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// bigFunc has many registers, nested and counted loops, constants,
// copies and repeated loads; smallFunc has few registers.
const (
	tablesGlobals = "int A[64];\nint B[64];\nint r;\n"
	bigFunc       = `int big(int n) {
	int i; int j; int s = 0; int t = 3; int u;
	for (i = 0; i < 8; i++) {
		for (j = 0; j < 8; j++) {
			u = t;
			A[i*8+j] = A[i*8+j] + B[i*8+j] * u + 2 * 5;
			s += A[i*8+j] + A[i*8+j];
		}
	}
	while (n > 0) { s = s - n; n = n - 1; }
	return s;
}
`
	smallFunc = `int small(int x) {
	int y = x;
	return y + 1;
}
`
	tablesMain = "void main() { r = big(4) + small(2); }\n"
)

// TestSharedTablesMatchFresh checks that one table set carried from
// function to function optimizes each exactly as a fresh set does,
// when the smaller function follows the larger one and the reverse:
// nothing a larger function left in the tables may leak into a smaller
// one, and growing the tables mid-program must keep what they hold.
func TestSharedTablesMatchFresh(t *testing.T) {
	for _, order := range []struct{ name, funcs string }{
		{"big then small", bigFunc + smallFunc},
		{"small then big", smallFunc + bigFunc},
	} {
		src := tablesGlobals + order.funcs + tablesMain
		shared := lowered(t, src)
		Run(shared, Options{})
		fresh := lowered(t, src)
		for _, f := range fresh.Funcs {
			new(Tables).run(f, Options{})
		}
		if got, want := shared.String(), fresh.String(); got != want {
			t.Errorf("%s: shared tables give\n%s\nfresh tables give\n%s", order.name, got, want)
		}
	}
}

// TestDeadCodeElimOneCall pins deadCodeElim's fixed point within one
// call: a chain of dead definitions, each used only by the next, goes
// entirely, though only its last link is dead before the first one is
// removed.
func TestDeadCodeElimOneCall(t *testing.T) {
	f := ir.NewFunc("chain", ir.TVoid)
	b0, b1 := f.NewBlock(), f.NewBlock()
	prev := f.NewReg(ir.TInt)
	b1.Ops = append(b1.Ops, &ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: prev, Imm: 1})
	for i := 0; i < 8; i++ {
		r := f.NewReg(ir.TInt)
		b1.Ops = append(b1.Ops, &ir.Op{Kind: ir.OpAdd, Type: ir.TInt, Dst: r, Args: [2]ir.Reg{prev, prev}})
		prev = r
	}
	b1.Ops = append(b1.Ops, &ir.Op{Kind: ir.OpRet})
	b0.Ops = []*ir.Op{{Kind: ir.OpBr}}
	b0.Succs, b1.Preds = []*ir.Block{b1}, []*ir.Block{b0}
	new(Tables).deadCodeElim(f)
	if len(b1.Ops) != 1 {
		t.Fatalf("one deadCodeElim call left %d ops of a dead chain:\n%s", len(b1.Ops)-1, f)
	}
}
