package sim_test

import (
	"testing"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/sim"
)

// FuzzCyclicVsMachine pins the compiled engine's lowering of
// instructions with anti-dependence cycles to the reference. No
// compiled program packs such an instruction (FuzzCompiledVsMachine
// compiles its programs, so it never reaches them), so the target
// hand-packs them: every long instruction of the generated schedule
// holds a register rotation, and its other slots random integer, float,
// multiply-accumulate and memory operations. Both engines run it under
// every port model and must agree on whether the run faults and, if it
// does not, on every counter, bank word and register.
func FuzzCyclicVsMachine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ports := range []machine.PortModel{machine.PortsBanked, machine.PortsDualPorted, machine.PortsLowOrder} {
			sched := cyclicProgram(data, ports)
			ref := sim.NewMachine(sched)
			refErr := ref.Run()
			cp, err := sim.Compile(sched)
			if err != nil {
				t.Fatalf("%v: compile: %v", ports, err)
			}
			cm := cp.NewMachine()
			cmErr := cm.Run()
			if (refErr == nil) != (cmErr == nil) {
				t.Fatalf("%v: engines disagree on failure: machine=%v compiled=%v", ports, refErr, cmErr)
			}
			if refErr != nil {
				continue
			}
			if cm.Counters() != ref.Counters() {
				t.Fatalf("%v: counters diverge: compiled %+v, reference %+v", ports, cm.Counters(), ref.Counters())
			}
			for b := range cm.Banks {
				for i, w := range cm.Banks[b] {
					if w != ref.Banks[b][i] {
						t.Fatalf("%v: bank %d word %d: compiled %#x, reference %#x", ports, b, i, w, ref.Banks[b][i])
					}
				}
			}
			for reg := 1; reg < len(ref.Regs); reg++ {
				if cm.Regs[reg] != ref.Regs[reg] {
					t.Fatalf("%v: register %d: compiled %#x, reference %#x", ports, reg, cm.Regs[reg], ref.Regs[reg])
				}
			}
		}
	})
}

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// pick returns one element of regs chosen by the input.
func (b *fuzzBytes) pick(regs []ir.Reg) ir.Reg { return regs[b.next()%len(regs)] }

// cyclicProgram turns fuzz input into a hand-packed one-block schedule
// of one to eight long instructions, built as stagedProgram is. Each
// instruction rotates two or three registers of one class on integer
// units, then fills the remaining units at random, writing no register
// twice. Memory ops reach both 4-word arrays under the dual-ported and
// low-order models, and only their own unit's bank under the banked
// model. Index registers are written only with constants 0..4, so an
// indexed access faults only on the constant 4.
func cyclicProgram(data []byte, ports machine.PortModel) *compact.Program {
	in := fuzzBytes(data)
	a := &ir.Symbol{Name: "a", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 4, Dims: []int{4},
		Init: []uint32{3, 0xffffffff, 7, 0x40400000}}
	b := &ir.Symbol{Name: "b", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 4, Dims: []int{4},
		Init: []uint32{2, 5, 0xfffffff8, 0x3f800000}}
	if ports == machine.PortsLowOrder {
		b.Addr = 4 // one flat space; the address parity picks the bank
	} else {
		a.Bank, b.Bank = machine.BankX, machine.BankY
	}
	r, fr := ir.PhysInt, ir.PhysFloat
	idxRegs := []ir.Reg{r(1), r(2), r(3)}
	intRegs := []ir.Reg{r(4), r(5), r(6), r(7), r(8), r(9)}
	floatRegs := []ir.Reg{fr(1), fr(2), fr(3), fr(4)}
	anyInt := append(append([]ir.Reg{}, idxRegs...), intRegs...)
	anyReg := append(append([]ir.Reg{}, anyInt...), floatRegs...)
	dataRegs := append(append([]ir.Reg{}, intRegs...), floatRegs...)
	intKinds := []ir.OpKind{
		ir.OpConst, ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpNeg, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr, ir.OpMac,
		ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT, ir.OpSetLE, ir.OpSetGT, ir.OpSetGE,
	}
	floatKinds := []ir.OpKind{
		ir.OpFConst, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg, ir.OpFMac,
		ir.OpFSetEQ, ir.OpFSetNE, ir.OpFSetLT, ir.OpFSetLE, ir.OpFSetGT, ir.OpFSetGE,
		ir.OpIntToFloat, ir.OpFloatToInt,
	}

	n := 1 + in.next()%8
	instrs := make([][machine.NumUnits]*ir.Op, n)
	for i := range instrs {
		slots := &instrs[i]
		var written [65]bool
		// free returns an unwritten register of regs chosen by the input,
		// marking it written, or NoReg when every one is taken.
		free := func(regs []ir.Reg) ir.Reg {
			start := in.next()
			for k := range regs {
				if reg := regs[(start+k)%len(regs)]; !written[reg] {
					written[reg] = true
					return reg
				}
			}
			return ir.NoReg
		}

		// The rotation x0 <- x1 <- ... <- x0, one move per integer unit.
		class := [][]ir.Reg{idxRegs, intRegs, floatRegs}[in.next()%3]
		rot := make([]ir.Reg, 2+in.next()%2)
		for k := range rot {
			rot[k] = free(class)
		}
		units := []machine.Unit{machine.AU0, machine.AU1, machine.DU0, machine.DU1}
		shift := in.next() % len(units)
		units = append(units[shift:], units[:shift]...)
		for k, dst := range rot {
			slots[units[k]] = alu(ir.OpMov, dst, rot[(k+1)%len(rot)], 0)
		}

		for _, u := range units[len(rot):] {
			k := in.next()
			if k%4 == 0 {
				continue
			}
			op := alu(intKinds[k%len(intKinds)], ir.NoReg, in.pick(anyInt), in.pick(anyInt))
			dsts := intRegs
			switch op.Kind {
			case ir.OpConst:
				op.Args = [2]ir.Reg{}
				if v := in.next(); v%2 == 0 {
					dsts, op.Imm = idxRegs, int64(v/2%5)
				} else {
					op.Imm = int64(int8(in.next()))
				}
			case ir.OpMov, ir.OpNeg, ir.OpNot:
				op.Args[1] = ir.NoReg
			}
			if op.Dst = free(dsts); op.Dst != ir.NoReg {
				slots[u] = op
			}
		}
		for _, u := range []machine.Unit{machine.FPU0, machine.FPU1} {
			k := in.next()
			if k%4 == 0 {
				continue
			}
			op := alu(floatKinds[k%len(floatKinds)], ir.NoReg, in.pick(floatRegs), in.pick(floatRegs))
			dsts := floatRegs
			switch op.Kind {
			case ir.OpFConst:
				op.Args = [2]ir.Reg{}
				op.FImm = float64(int8(in.next())) / 4
			case ir.OpFNeg:
				op.Args[1] = ir.NoReg
			case ir.OpIntToFloat:
				op.Args = [2]ir.Reg{in.pick(anyInt)}
			case ir.OpFloatToInt:
				op.Args[1] = ir.NoReg
				dsts = intRegs
			case ir.OpFSetEQ, ir.OpFSetNE, ir.OpFSetLT, ir.OpFSetLE, ir.OpFSetGT, ir.OpFSetGE:
				dsts = intRegs
			}
			if op.Dst = free(dsts); op.Dst != ir.NoReg {
				slots[u] = op
			}
		}
		for j, u := range []machine.Unit{machine.MU0, machine.MU1} {
			k := in.next()
			if k%3 == 0 {
				continue
			}
			sym := []*ir.Symbol{a, b}[j]
			if ports != machine.PortsBanked {
				sym = []*ir.Symbol{a, b}[k/3%2]
			}
			idx := ir.NoReg
			if k/6%2 == 1 {
				idx = in.pick(idxRegs)
			}
			if k%3 == 1 {
				slots[u] = store(in.pick(anyReg), sym, idx)
			} else if dst := free(dataRegs); dst != ir.NoReg {
				slots[u] = load(dst, sym, idx)
			}
		}
	}
	instrs[n-1][machine.PCU] = alu(ir.OpRet, 0, 0, 0)
	return oneBlock(ports, instrs, a, b)
}
