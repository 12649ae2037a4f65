package compact

import (
	"slices"
	"strings"
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// TestValidateWarmAllocFree pins the warm path every measurement takes:
// a Scratch that has scheduled and checked a program checks it again
// without allocating.
func TestValidateWarmAllocFree(t *testing.T) {
	f, _ := allocTestBlock()
	s := new(Scratch)
	sched, err := ScheduleWith(&ir.Program{Funcs: []*ir.Func{f}}, Config{Ports: machine.PortsBanked}, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(sched); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.Validate(sched); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm Validate allocates %.1f times, want 0", n)
	}
}

// atomicPairFunc is one block holding just an atomic duplicated-store
// pair, whose operands are defined elsewhere.
func atomicPairFunc() *ir.Func {
	f := ir.NewFunc("t", ir.TVoid)
	a := &ir.Symbol{Name: "A", Elem: ir.TInt, Size: 8, Dims: []int{8}}
	idx, v := f.NewReg(ir.TInt), f.NewReg(ir.TInt)
	x := &ir.Op{Kind: ir.OpStore, Sym: a, Idx: idx, Args: [2]ir.Reg{v}, Bank: machine.BankX, Atomic: true}
	y := &ir.Op{Kind: ir.OpStore, Sym: a, Idx: idx, Args: [2]ir.Reg{v}, Bank: machine.BankY, Atomic: true}
	x.DupPair, y.DupPair = y, x
	f.NewBlock().Ops = []*ir.Op{x, y}
	return f
}

// TestValidateRejectsBrokenSchedules breaks one valid schedule per
// case and requires Validate to name the broken rule, on a fresh
// Scratch and on one warmed by every earlier case.
func TestValidateRejectsBrokenSchedules(t *testing.T) {
	body, _ := allocTestBlock()
	var units unitTable
	units.build(Config{Ports: machine.PortsBanked})
	// firstOp returns the unit and op of in's first occupied slot.
	firstOp := func(in *Instr) (int, *ir.Op) {
		for u, op := range in.Slots {
			if op != nil {
				return u, op
			}
		}
		panic("empty instruction")
	}
	cases := []struct {
		name   string
		f      *ir.Func
		mutate func(b *Block)
		want   string
	}{
		{"dropped op", body, func(b *Block) {
			u, _ := firstOp(b.Instrs[0])
			b.Instrs[0].Slots[u] = nil
		}, "ops scheduled, want"},
		{"op issued twice", body, func(b *Block) {
			_, op := firstOp(b.Instrs[0])
			for _, in := range b.Instrs[1:] {
				for _, u := range units.unitsFor(op) {
					if in.Slots[u] == nil {
						in.Slots[u] = op
						return
					}
				}
			}
			panic("no free unit for a second copy")
		}, "scheduled twice"},
		{"foreign op", body, func(b *Block) {
			u, op := firstOp(b.Instrs[0])
			cp := *op
			b.Instrs[0].Slots[u] = &cp
		}, "outside its block"},
		{"wrong unit", body, func(b *Block) {
			u, op := firstOp(b.Instrs[0])
			v := 0
			for slices.Contains(units.unitsFor(op), machine.Unit(v)) || b.Instrs[0].Slots[v] != nil {
				v++
			}
			b.Instrs[0].Slots[u], b.Instrs[0].Slots[v] = nil, op
		}, "on unit"},
		{"consumer issued with its producer", body, func(b *Block) {
			// The first instruction holds the index constant alone; a
			// load reading it moves in beside it.
			for _, in := range b.Instrs[1:] {
				for u, op := range in.Slots {
					if op == nil || op.Kind != ir.OpLoad {
						continue
					}
					for _, v := range units.unitsFor(op) {
						if b.Instrs[0].Slots[v] == nil {
							in.Slots[u], b.Instrs[0].Slots[v] = nil, op
							return
						}
					}
				}
			}
			panic("no load to move")
		}, "strict dependence violated"},
		{"instructions reversed", body, func(b *Block) {
			slices.Reverse(b.Instrs)
		}, "dependence violated"},
		{"atomic pair split", atomicPairFunc(), func(b *Block) {
			u, op := firstOp(b.Instrs[0])
			b.Instrs[0].Slots[u] = nil
			split := new(Instr)
			split.Slots[u] = op
			b.Instrs = append(b.Instrs, split)
		}, "atomic pair split"},
	}
	warm := new(Scratch)
	for _, c := range cases {
		for _, s := range []*Scratch{new(Scratch), warm} {
			sched, err := Schedule(&ir.Program{Funcs: []*ir.Func{c.f}}, Config{Ports: machine.PortsBanked})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(sched); err != nil {
				t.Fatalf("%s: the unbroken schedule fails: %v", c.name, err)
			}
			c.mutate(sched.Funcs["t"].Blocks[0])
			if err := s.Validate(sched); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
			}
		}
	}
}
