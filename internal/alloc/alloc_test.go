package alloc_test

import (
	"strings"
	"testing"
	"testing/quick"

	"dualbank/internal/alloc"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
)

// build compiles source through regalloc, ready for the allocation
// pass.
func build(t *testing.T, src string) *ir.Program {
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
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	return p
}

const pairSrc = `
float a[16] = {1.0};
float b[16] = {2.0};
float y[16];
void main() {
	int i;
	for (i = 0; i < 16; i++) {
		y[i] = a[i] * b[i];
	}
}
`

const dupSrc = `
float s[32] = {1.0};
float R[8];
void main() {
	int m;
	int i;
	for (m = 0; m < 8; m++) {
		float acc = 0.0;
		int lim = 32 - m;
		for (i = 0; i < lim; i++) {
			acc += s[i] * s[i + m];
		}
		R[m] = acc;
	}
	s[0] = R[0];
}
`

func globalByName(p *ir.Program, name string) *ir.Symbol {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func TestSingleBankMode(t *testing.T) {
	p := build(t, pairSrc)
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.SingleBank})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Symbols() {
		if s.Bank != machine.BankX {
			t.Errorf("%s in bank %v under single-bank", s, s.Bank)
		}
	}
	if res.Global[1] != 0 || res.Stack[1] != 0 {
		t.Errorf("bank Y should be empty: %+v", res)
	}
	if res.Ports != machine.PortsBanked {
		t.Error("single-bank should use banked ports")
	}
}

func TestCBSeparatesPairedArrays(t *testing.T) {
	p := build(t, pairSrc)
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	a, b := globalByName(p, "a"), globalByName(p, "b")
	if a.Bank == b.Bank {
		t.Errorf("a and b in the same bank (%v); graph:\n%s\npartition:\n%s",
			a.Bank, res.Graph, res.Part)
	}
}

func TestIdealMode(t *testing.T) {
	p := build(t, pairSrc)
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.Ideal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ports != machine.PortsDualPorted {
		t.Fatal("ideal mode must use dual-ported memory")
	}
}

func TestDuplicationMode(t *testing.T) {
	p := build(t, dupSrc)
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.CBDup})
	if err != nil {
		t.Fatal(err)
	}
	s := globalByName(p, "s")
	if !s.Duplicated || s.Bank != machine.BankBoth {
		t.Fatalf("s should be duplicated, got bank %v", s.Bank)
	}
	if res.DupStores == 0 {
		t.Fatal("no coherence stores inserted")
	}
	// Every store to s must have a Y-bank twin.
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if op.Kind == ir.OpStore && op.Sym == s {
					if op.DupPair == nil {
						t.Fatalf("store to duplicated %s lacks a pair", s)
					}
					if op.Bank == op.DupPair.Bank {
						t.Fatal("pair halves must target different banks")
					}
				}
				if op.Kind == ir.OpLoad && op.Sym == s && op.Bank != machine.BankBoth {
					t.Fatal("loads from duplicated symbols must stay BankBoth")
				}
			}
		}
	}
}

func TestFullDuplication(t *testing.T) {
	p := build(t, pairSrc)
	res, err := alloc.Run(p, alloc.Options{Mode: alloc.FullDup})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Symbols() {
		if !s.Duplicated {
			t.Errorf("%s not duplicated under full duplication", s)
		}
	}
	if res.DupWords == 0 || res.Global[0] != 0 || res.Global[1] != 0 {
		t.Errorf("layout wrong: %+v", res)
	}
}

func TestSaveSlotsAlternate(t *testing.T) {
	p := build(t, `
int r;
int helper(int x) {
	int a = x * 2;
	int b = a + 3;
	int c = b * a;
	return c;
}
void main() { r = helper(7); }
`)
	if _, err := alloc.Run(p, alloc.Options{Mode: alloc.CB}); err != nil {
		t.Fatal(err)
	}
	f := p.Func("helper")
	want := machine.BankX
	n := 0
	for _, s := range f.Locals {
		if !s.Save {
			continue
		}
		if s.Bank != want {
			t.Fatalf("save slot %s in bank %v, want %v", s.Name, s.Bank, want)
		}
		want = want.Other()
		n++
	}
	if n < 2 {
		t.Fatalf("expected several save slots, found %d", n)
	}
}

// TestLayoutNoOverlap: within each bank, allocated intervals must be
// disjoint, and duplicated symbols occupy equal addresses in both
// banks before everything else.
func TestLayoutNoOverlap(t *testing.T) {
	for _, mode := range []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.FullDup, alloc.Ideal,
	} {
		p := build(t, dupSrc)
		res, err := alloc.Run(p, alloc.Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		type span struct{ lo, hi int }
		var xs, ys []span
		for _, s := range p.Symbols() {
			sp := span{s.Addr, s.Addr + s.Size}
			switch s.Bank {
			case machine.BankX:
				xs = append(xs, sp)
			case machine.BankY:
				ys = append(ys, sp)
			case machine.BankBoth:
				xs = append(xs, sp)
				ys = append(ys, sp)
				if s.Addr >= res.DupWords {
					t.Errorf("%v: duplicated %s outside the duplicated region", mode, s)
				}
			}
		}
		for _, spans := range [][]span{xs, ys} {
			for i := range spans {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a == b {
						continue // the two views of one duplicated symbol
					}
					if a.lo < b.hi && b.lo < a.hi {
						t.Errorf("%v: overlapping spans %v and %v", mode, a, b)
					}
				}
			}
		}
	}
}

// TestMemOpsTagged: after allocation every memory operation carries a
// concrete bank tag consistent with its symbol.
func TestMemOpsTagged(t *testing.T) {
	p := build(t, dupSrc)
	if _, err := alloc.Run(p, alloc.Options{Mode: alloc.CBDup}); err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if !op.IsMem() {
					continue
				}
				if op.Bank == machine.BankNone {
					t.Fatalf("untagged memory op %v", op)
				}
				if !op.Sym.Duplicated && op.Bank != op.Sym.Bank {
					t.Fatalf("op %v tagged %v but symbol lives in %v", op, op.Bank, op.Sym.Bank)
				}
			}
		}
	}
}

// TestInterruptSafePairs marks duplicated-store pairs atomic.
func TestInterruptSafePairs(t *testing.T) {
	p := build(t, dupSrc)
	if _, err := alloc.Run(p, alloc.Options{Mode: alloc.CBDup, InterruptSafe: true}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if op.DupPair != nil {
					found = true
					if !op.Atomic || !op.DupPair.Atomic {
						t.Fatal("duplicated pair not atomic under InterruptSafe")
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no duplicated pairs found")
	}
}

// TestModeStringsRoundTrip is a quick-check that Mode string names are
// unique (they key CLI flags and reports).
func TestModeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup,
		alloc.FullDup, alloc.Ideal,
	} {
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mode name %q", s)
		}
		seen[s] = true
	}
	if !alloc.CB.Partitioned() || alloc.Ideal.Partitioned() {
		t.Error("Partitioned() misclassifies modes")
	}
}

// TestParseMode resolves every mode by its canonical name and by its
// short name in any case, and lists the canonical names for an unknown
// one.
func TestParseMode(t *testing.T) {
	for name, want := range map[string]alloc.Mode{
		"single": alloc.SingleBank, "cb": alloc.CB, "pr": alloc.CBProfiled, "dup": alloc.CBDup,
		"fulldup": alloc.FullDup, "ideal": alloc.Ideal, "loworder": alloc.LowOrder,
	} {
		for _, s := range []string{want.String(), name, strings.ToUpper(name)} {
			if got, err := alloc.ParseMode(s); err != nil || got != want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
	}
	want := `unknown mode "zigzag" (want one of single-bank, CB, Pr, Dup, full-dup, Ideal, low-order or dspcc short forms)`
	if _, err := alloc.ParseMode("zigzag"); err == nil || err.Error() != want {
		t.Errorf("ParseMode(zigzag) error %v, want %s", err, want)
	}
}

// TestLayoutAddressesDeterministic: running the pass twice on
// identically-built programs yields identical addresses (required for
// reproducible experiments).
func TestLayoutAddressesDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		p1 := buildQuiet(dupSrc)
		p2 := buildQuiet(dupSrc)
		if p1 == nil || p2 == nil {
			return false
		}
		if _, err := alloc.Run(p1, alloc.Options{Mode: alloc.CBDup}); err != nil {
			return false
		}
		if _, err := alloc.Run(p2, alloc.Options{Mode: alloc.CBDup}); err != nil {
			return false
		}
		s1, s2 := p1.Symbols(), p2.Symbols()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i].Name != s2[i].Name || s1[i].Addr != s2[i].Addr || s1[i].Bank != s2[i].Bank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func buildQuiet(src string) *ir.Program {
	file, err := minic.Parse(src)
	if err != nil {
		return nil
	}
	if err := minic.Analyze(file); err != nil {
		return nil
	}
	p, err := lower.Program(file, "t")
	if err != nil {
		return nil
	}
	opt.Run(p, opt.Options{})
	if _, err := regalloc.Run(p); err != nil {
		return nil
	}
	return p
}
