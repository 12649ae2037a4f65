package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// This file implements the compiled execution engine: a scheduled
// compact.Program is lowered once into threaded code — per-basic-block
// dense arrays of specialized closures with registers as direct array
// indices, branch/call targets resolved to block indices, and
// statically-resolvable banks (and, under the low-order model,
// statically-resolvable address parities) baked in at lowering time.
// The engine dispatches one indirect call per operation and aggregates
// every statically-known counter delta (cycles, occupied slots, memory
// accesses, dual-access cycles, even low-order conflict stalls of
// direct accesses) to a single add per basic block.
//
// The reference interpreter evaluates every operation of a long
// instruction against the pre-instruction register file before any
// result commits. The lowering proves, per instruction, an execution
// order under which committing each result immediately is
// indistinguishable from that two-phase scheme (readers of a register
// or symbol ordered before its writer); instructions where no such
// order exists — a genuine anti-dependence cycle, e.g. a packed
// register swap — fall back to a staged form that buffers results in a
// pending-write array exactly like the reference, evaluating the dense
// operation records of oprecord.go so the semantics stay pinned.
//
// sim.Machine remains the reference; the differential suite pins this
// engine to identical cycle counts, bandwidth counters, and memory
// images across the whole benchmark suite.

// cOp is one compiled operation: a specialized closure over the
// executing machine. Closures capture only lowering-time constants, so
// one CompiledProgram is shared by any number of machines.
type cOp func(*CompiledMachine)

// ctrl kinds, a dense encoding of the PCU slot.
const (
	cNone uint8 = iota
	cBr
	cCondBr
	cRet
	cDo
	cEndDo
	cCall
)

// cInstr is one lowered long instruction.
type cInstr struct {
	ops []cOp
	// npend, when non-zero, marks the staged fallback: the ops buffer
	// npend results into the machine's pending-write array, committed
	// in slot order after the whole read phase.
	npend uint8
	// canFault gates the per-instruction fault check (indexed accesses,
	// division, and every staged instruction).
	canFault bool
	// dyn marks dynamic port accounting (low-order model with at least
	// one run-time-resolved access): the closures count ports and
	// finishDyn settles the bandwidth counters and conflict stall.
	dyn bool
	// statPX and statPY are the statically-resolved bank-0/bank-1
	// access counts a dyn instruction contributes on top of its
	// run-time ports (the low-order model is 2-bank only); statM is the
	// total static access count across every bank.
	statPX, statPY, statM int8

	ctrl    uint8
	ctrlReg uint8
	succ0   int32
	succ1   int32
	callee  *cFunc
}

// cBlock is one lowered basic block with its statically-aggregated
// counter deltas, applied in a single step at block entry.
type cBlock struct {
	instrs    []cInstr
	cycles    int64 // instruction count plus static low-order stalls
	nops      int64
	mem       int64
	dual      int64
	conflicts int64
}

// cFunc is one lowered function; blocks are indexed by ir block ID.
type cFunc struct {
	name   string
	blocks []cBlock
	entry  int32
}

// CompiledProgram is a program lowered for the compiled engine,
// produced by Compile and shared by any number of CompiledMachines.
type CompiledProgram struct {
	Prog *compact.Program

	main     *cFunc
	ports    machine.PortModel
	lowOrder bool
	// Bank geometry, resolved once from Prog.Spec.
	nbanks, pports int
	bankOf         [machine.MaxUnits]uint8
	// memWords is the per-bank arena length: the data high-water mark
	// of the program's symbol layout, so machines carry (and Reset
	// restores) kilobytes instead of the architectural full banks.
	memWords int
	// initBanks are the initial bank images, memWords long each.
	initBanks [][]uint32
}

// MemWords returns the per-bank arena length in words.
func (cp *CompiledProgram) MemWords() int { return cp.memWords }

// cPend is one buffered result of a staged instruction's read phase.
type cPend struct {
	val   uint32
	addr  int32
	reg   uint8
	isMem bool
	bank  uint8
}

// CompiledMachine executes a compiled program. It reproduces the
// reference Machine's observable behaviour exactly — cycle counts,
// bandwidth and conflict counters, and final memory images — with one
// indirect call per operation and a single counter update per basic
// block. Its memory arenas cover only the program's used address
// range, so allocating and resetting machines is cheap enough to do
// per run.
type CompiledMachine struct {
	cp *CompiledProgram

	// Banks are the data-memory bank arenas (MemWords long); X and Y
	// alias Banks[0] and Banks[1] (every spec has at least two).
	Banks [][]uint32
	X, Y  []uint32
	// Regs is the unified physical register file view.
	Regs [65]uint32

	// Cycles, OpsExecuted, MemAccesses, DualMemCycles and BankConflicts
	// mirror the reference Machine's counters.
	Cycles        int64
	OpsExecuted   int64
	MemAccesses   int64
	DualMemCycles int64
	BankConflicts int64
	// MaxCycles bounds execution.
	MaxCycles int64

	loops  [maxHWLoopDepth]int32
	nloops int

	portX, portY int32
	fault        error
	pend         [machine.MaxUnits]cPend

	cancel ctxCheck
}

// errCycleLimit marks a dynamic (conflict-stall) cycle-limit overrun.
var errCycleLimit = errors.New("cycle limit exceeded")

// Compile lowers a scheduled program for the compiled engine. The
// program must be in physical-register form.
func Compile(p *compact.Program) (*CompiledProgram, error) {
	spec := p.Spec.Norm()
	cp := &CompiledProgram{
		Prog:     p,
		ports:    p.Ports,
		lowOrder: p.Ports == machine.PortsLowOrder,
		nbanks:   spec.Banks,
		pports:   spec.PortsPerBank,
	}
	for u := range cp.bankOf {
		if i := spec.BankOfUnit(machine.Unit(u)).Index(); i >= 0 {
			cp.bankOf[u] = uint8(i)
		}
	}

	// Arena sizing: the allocator lays symbols out densely from word 0,
	// so the high-water mark of Addr+Size bounds every access either
	// engine can make.
	high := 0
	for _, s := range p.Src.Symbols() {
		if end := s.Addr + s.Size; end > high {
			high = end
		}
	}
	words := high
	if cp.lowOrder {
		words = (high + cp.nbanks - 1) / cp.nbanks
	}
	if words < 1 {
		words = 1
	}
	if words > machine.BankWords {
		words = machine.BankWords
	}
	cp.memWords = words
	cp.initBanks = make([][]uint32, cp.nbanks)
	for b := range cp.initBanks {
		cp.initBanks[b] = make([]uint32, words)
	}
	for _, s := range p.Src.Symbols() {
		for i, w := range s.Init {
			a := s.Addr + i
			if cp.lowOrder {
				cp.initBanks[a%cp.nbanks][a/cp.nbanks] = w
				continue
			}
			if s.Bank == machine.BankBoth {
				for b := range cp.initBanks {
					cp.initBanks[b][a] = w
				}
				continue
			}
			cp.initBanks[bankIndexOf(s.Bank, cp.nbanks)][a] = w
		}
	}

	funcs := make(map[string]*cFunc, len(p.Funcs))
	for name, f := range p.Funcs {
		if !f.Src.Phys() {
			return nil, fmt.Errorf("sim: compile %s: program must be in physical-register form", name)
		}
		funcs[name] = &cFunc{name: name, entry: int32(f.Src.Entry().ID)}
	}
	for name, f := range p.Funcs {
		cf := funcs[name]
		cf.blocks = make([]cBlock, len(f.Blocks))
		for bi, sb := range f.Blocks {
			cb := &cf.blocks[bi]
			cb.instrs = make([]cInstr, 0, len(sb.Instrs))
			for _, in := range sb.Instrs {
				ci, err := lowerInstr(in, sb, funcs, cp)
				if err != nil {
					return nil, fmt.Errorf("sim: compile %s: %w", name, err)
				}
				// Fold the instruction's static counter deltas into the
				// block aggregate.
				cb.cycles++
				cb.nops += instrNops(in)
				if !ci.dyn {
					px, py, sm := int(ci.statPX), int(ci.statPY), int(ci.statM)
					ci.statPX, ci.statPY, ci.statM = 0, 0, 0
					cb.mem += int64(sm)
					if sm >= 2 {
						cb.dual++
					}
					if cp.lowOrder && (px > 1 || py > 1) {
						cb.cycles++
						cb.conflicts++
						cb.dual--
					}
				}
				cb.instrs = append(cb.instrs, ci)
			}
		}
	}
	cp.main = funcs["main"]
	if cp.main == nil {
		return nil, fmt.Errorf("sim: compile: no main function")
	}
	return cp, nil
}

// instrNops counts occupied slots, including the control op.
func instrNops(in *compact.Instr) int64 {
	var n int64
	for _, op := range in.Slots {
		if op != nil {
			n++
		}
	}
	return n
}

// lowerInstr lowers one long instruction: control resolution, the
// anti-dependence analysis choosing direct vs staged form, and closure
// generation.
func lowerInstr(in *compact.Instr, sb *compact.Block, funcs map[string]*cFunc, cp *CompiledProgram) (cInstr, error) {
	ci := cInstr{ctrl: cNone, succ0: -1, succ1: -1}
	type dataOp struct {
		op   *ir.Op
		unit machine.Unit
	}
	var data []dataOp
	for u, op := range in.Slots {
		if op == nil {
			continue
		}
		switch op.Kind {
		case ir.OpBr:
			ci.ctrl = cBr
			ci.succ0 = int32(sb.Src.Succs[0].ID)
		case ir.OpCondBr:
			ci.ctrl = cCondBr
			ci.ctrlReg = uint8(op.Args[0])
			ci.succ0 = int32(sb.Src.Succs[0].ID)
			ci.succ1 = int32(sb.Src.Succs[1].ID)
		case ir.OpRet:
			ci.ctrl = cRet
		case ir.OpDo:
			ci.ctrl = cDo
			ci.ctrlReg = uint8(op.Args[0])
			ci.succ0 = int32(sb.Src.Succs[0].ID)
		case ir.OpEndDo:
			ci.ctrl = cEndDo
			ci.succ0 = int32(sb.Src.Succs[0].ID)
			ci.succ1 = int32(sb.Src.Succs[1].ID)
		case ir.OpCall:
			callee := funcs[op.Callee]
			if callee == nil {
				return cInstr{}, fmt.Errorf("call to unknown %s", op.Callee)
			}
			ci.ctrl = cCall
			ci.callee = callee
		default:
			data = append(data, dataOp{op: op, unit: machine.Unit(u)})
		}
	}
	if len(data) == 0 {
		return ci, nil
	}

	order, ok := commitOrder(func(i int) *ir.Op { return data[i].op }, len(data))
	lowOrder := cp.lowOrder
	if ok {
		// Direct form: execute in the proven order, commit immediately.
		ci.ops = make([]cOp, 0, len(data))
		for _, di := range order {
			d := data[di]
			f, canFault, dyn, bank, err := lowerDirect(d.op, d.unit, cp)
			if err != nil {
				return cInstr{}, err
			}
			ci.ops = append(ci.ops, f)
			ci.canFault = ci.canFault || canFault
			if d.op.IsMem() {
				if dyn {
					ci.dyn = true
				} else {
					ci.statM++
					switch bank {
					case 0:
						ci.statPX++
					case 1:
						ci.statPY++
					}
				}
			}
		}
		return ci, nil
	}

	// Staged form: a genuine anti-dependence cycle. Buffer every result
	// in slot order and commit after the read phase, exactly like the
	// reference's two-phase scheme. Under the low-order model all port
	// accounting goes dynamic — correctness over speed on this rare
	// path.
	ci.ops = make([]cOp, 0, len(data))
	ci.canFault = true
	for k, d := range data {
		po := predecodeOp(d.op, d.unit, cp.ports, &cp.bankOf, cp.nbanks)
		ci.ops = append(ci.ops, lowerStaged(d.op, po, k, lowOrder))
		if d.op.IsMem() {
			if lowOrder {
				ci.dyn = true
			} else {
				ci.statM++
				switch po.bank {
				case 0:
					ci.statPX++
				case 1:
					ci.statPY++
				}
			}
		}
	}
	ci.npend = uint8(len(data))
	return ci, nil
}

// commitOrder proves an immediate-commit execution order for n data
// operations: every reader of a register or symbol runs before that
// register's or symbol's writer, and writes to the same destination
// keep slot order. It returns the order (a permutation of 0..n-1,
// preferring slot order among ready operations so lowering is
// deterministic) and whether one exists; a cyclic anti-dependence —
// e.g. a packed register swap — has none.
func commitOrder(op func(int) *ir.Op, n int) ([]int, bool) {
	if n > machine.MaxUnits {
		return nil, false
	}
	var before [machine.MaxUnits][machine.MaxUnits]bool
	var uses [machine.MaxUnits][]ir.Reg
	var buf [4 * machine.MaxUnits]ir.Reg
	scratch := buf[:0]
	for i := 0; i < n; i++ {
		start := len(scratch)
		scratch = op(i).Uses(scratch)
		uses[i] = scratch[start:]
	}
	def := func(i int) ir.Reg {
		o := op(i)
		if o.Kind == ir.OpStore {
			return ir.NoReg
		}
		return o.Dst
	}
	for j := 0; j < n; j++ {
		oj := op(j)
		dj := def(j)
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			oi := op(i)
			// Register anti-dependence: i reads what j writes.
			if dj != ir.NoReg {
				for _, u := range uses[i] {
					if u == dj {
						before[i][j] = true
						break
					}
				}
			}
			// Memory anti-dependence: a load of a symbol runs before a
			// store to it.
			if oj.Kind == ir.OpStore && oi.Kind == ir.OpLoad && oi.Sym == oj.Sym {
				before[i][j] = true
			}
			// Output dependences keep slot order: stores to the same
			// symbol, or two writes of the same register.
			if i < j {
				if oj.Kind == ir.OpStore && oi.Kind == ir.OpStore && oi.Sym == oj.Sym {
					before[i][j] = true
				}
				if dj != ir.NoReg && def(i) == dj {
					before[i][j] = true
				}
			}
		}
	}
	order := make([]int, 0, n)
	var done [machine.MaxUnits]bool
	for len(order) < n {
		picked := -1
		for j := 0; j < n && picked < 0; j++ {
			if done[j] {
				continue
			}
			ready := true
			for i := 0; i < n; i++ {
				if !done[i] && i != j && before[i][j] {
					ready = false
					break
				}
			}
			if ready {
				picked = j
			}
		}
		if picked < 0 {
			return nil, false
		}
		done[picked] = true
		order = append(order, picked)
	}
	return order, true
}

// setFault records the first fault of an instruction's read phase.
func (m *CompiledMachine) setFault(err error) {
	if m.fault == nil {
		m.fault = err
	}
}

// lowerDirect generates the specialized immediate-commit closure for
// one data operation. canFault reports whether the closure can set the
// machine fault; for memory operations dyn reports a run-time-resolved
// bank (low-order indexed access) and bank the static bank index.
func lowerDirect(op *ir.Op, u machine.Unit, cp *CompiledProgram) (f cOp, canFault, dyn bool, bank uint8, err error) {
	if op.IsMem() {
		f, canFault, dyn, bank, err = lowerMemDirect(op, u, cp)
		return
	}
	f, canFault, err = lowerALUDirect(op)
	return
}

// lowerMemDirect lowers a load or store. Bank resolution follows the
// port model: the executing unit under the banked model, the
// operation's tag under the dual-ported model, the address low bits —
// static for direct accesses, run-time for indexed ones — under the
// low-order model. Banks 0 and 1 get closures over the dedicated X/Y
// aliases, exactly the classic machine's code; wider specs index the
// bank table.
func lowerMemDirect(op *ir.Op, u machine.Unit, cp *CompiledProgram) (f cOp, canFault, dyn bool, bank uint8, err error) {
	base := int32(op.Sym.Addr)
	size := int32(op.Sym.Size)
	load := op.Kind == ir.OpLoad
	dst := uint8(op.Dst)
	val := uint8(op.Args[0])
	idx := uint8(0)
	if op.Idx != ir.NoReg {
		idx = uint8(op.Idx)
	}

	lowOrder := cp.lowOrder
	switch cp.ports {
	case machine.PortsBanked:
		bank = cp.bankOf[u]
	case machine.PortsDualPorted:
		bank = uint8(bankIndexOf(op.Bank, cp.nbanks))
	}

	if idx == 0 {
		// Direct access: the address — and under the low-order model
		// its bank — is a lowering-time constant.
		if size < 1 {
			serr := fmt.Errorf("index 0 out of range (size %d)", size)
			return func(m *CompiledMachine) { m.setFault(serr) }, true, false, bank, nil
		}
		addr := base
		if lowOrder {
			bank = uint8(int(addr) % cp.nbanks)
			addr = int32(int(addr) / cp.nbanks)
		}
		bk := int(bank)
		switch {
		case load && bank == 1:
			f = func(m *CompiledMachine) { m.Regs[dst] = m.Y[addr] }
		case load && bank == 0:
			f = func(m *CompiledMachine) { m.Regs[dst] = m.X[addr] }
		case load:
			f = func(m *CompiledMachine) { m.Regs[dst] = m.Banks[bk][addr] }
		case bank == 1:
			f = func(m *CompiledMachine) { m.Y[addr] = m.Regs[val] }
		case bank == 0:
			f = func(m *CompiledMachine) { m.X[addr] = m.Regs[val] }
		default:
			f = func(m *CompiledMachine) { m.Banks[bk][addr] = m.Regs[val] }
		}
		return f, false, false, bank, nil
	}

	if lowOrder {
		// Indexed low-order access: parity, and therefore the bank and
		// the port it occupies, resolve at run time.
		if load {
			f = func(m *CompiledMachine) {
				i := int32(m.Regs[idx])
				if uint32(i) >= uint32(size) {
					m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
					return
				}
				a := base + i
				if a&1 == 0 {
					m.portX++
					m.Regs[dst] = m.X[a>>1]
				} else {
					m.portY++
					m.Regs[dst] = m.Y[a>>1]
				}
			}
		} else {
			f = func(m *CompiledMachine) {
				i := int32(m.Regs[idx])
				if uint32(i) >= uint32(size) {
					m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
					return
				}
				a := base + i
				if a&1 == 0 {
					m.portX++
					m.X[a>>1] = m.Regs[val]
				} else {
					m.portY++
					m.Y[a>>1] = m.Regs[val]
				}
			}
		}
		return f, true, true, 0, nil
	}

	bk := int(bank)
	switch {
	case load && bank == 1:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.Regs[dst] = m.Y[base+i]
		}
	case load && bank == 0:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.Regs[dst] = m.X[base+i]
		}
	case load:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.Regs[dst] = m.Banks[bk][base+i]
		}
	case bank == 1:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.Y[base+i] = m.Regs[val]
		}
	case bank == 0:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.X[base+i] = m.Regs[val]
		}
	default:
		f = func(m *CompiledMachine) {
			i := int32(m.Regs[idx])
			if uint32(i) >= uint32(size) {
				m.setFault(fmt.Errorf("index %d out of range (size %d)", i, size))
				return
			}
			m.Banks[bk][base+i] = m.Regs[val]
		}
	}
	return f, true, false, bank, nil
}

// errDivZero is the shared division fault.
var errDivZero = errors.New("integer division by zero")

// lowerALUDirect generates the specialized closure for one scalar
// operation; semantics match Machine.evalALU (and opt.EvalIntBin)
// exactly — 32-bit two's-complement wraparound, masked shift counts,
// arithmetic right shift, float32 arithmetic on raw bit patterns.
func lowerALUDirect(op *ir.Op) (cOp, bool, error) {
	dst := uint8(op.Dst)
	a0 := uint8(op.Args[0])
	a1 := uint8(op.Args[1])
	fb := math.Float32bits
	ff := math.Float32frombits

	switch op.Kind {
	case ir.OpConst:
		imm := uint32(int32(op.Imm))
		return func(m *CompiledMachine) { m.Regs[dst] = imm }, false, nil
	case ir.OpFConst:
		imm := fb(float32(op.FImm))
		return func(m *CompiledMachine) { m.Regs[dst] = imm }, false, nil
	case ir.OpMov:
		return func(m *CompiledMachine) { m.Regs[dst] = m.Regs[a0] }, false, nil
	case ir.OpAdd:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[a0]) + int32(m.Regs[a1]))
		}, false, nil
	case ir.OpSub:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[a0]) - int32(m.Regs[a1]))
		}, false, nil
	case ir.OpMul:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[a0]) * int32(m.Regs[a1]))
		}, false, nil
	case ir.OpDiv:
		return func(m *CompiledMachine) {
			b := int32(m.Regs[a1])
			if b == 0 {
				m.setFault(errDivZero)
				return
			}
			m.Regs[dst] = uint32(int32(m.Regs[a0]) / b)
		}, true, nil
	case ir.OpRem:
		return func(m *CompiledMachine) {
			b := int32(m.Regs[a1])
			if b == 0 {
				m.setFault(errDivZero)
				return
			}
			m.Regs[dst] = uint32(int32(m.Regs[a0]) % b)
		}, true, nil
	case ir.OpAnd:
		return func(m *CompiledMachine) { m.Regs[dst] = m.Regs[a0] & m.Regs[a1] }, false, nil
	case ir.OpOr:
		return func(m *CompiledMachine) { m.Regs[dst] = m.Regs[a0] | m.Regs[a1] }, false, nil
	case ir.OpXor:
		return func(m *CompiledMachine) { m.Regs[dst] = m.Regs[a0] ^ m.Regs[a1] }, false, nil
	case ir.OpShl:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[a0]) << (m.Regs[a1] & 31))
		}, false, nil
	case ir.OpShr:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[a0]) >> (m.Regs[a1] & 31))
		}, false, nil
	case ir.OpNeg:
		return func(m *CompiledMachine) { m.Regs[dst] = uint32(-int32(m.Regs[a0])) }, false, nil
	case ir.OpNot:
		return func(m *CompiledMachine) { m.Regs[dst] = ^m.Regs[a0] }, false, nil
	case ir.OpMac:
		return func(m *CompiledMachine) {
			m.Regs[dst] = uint32(int32(m.Regs[dst]) + int32(m.Regs[a0])*int32(m.Regs[a1]))
		}, false, nil
	case ir.OpSetEQ:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(m.Regs[a0] == m.Regs[a1]) }, false, nil
	case ir.OpSetNE:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(m.Regs[a0] != m.Regs[a1]) }, false, nil
	case ir.OpSetLT:
		return func(m *CompiledMachine) {
			m.Regs[dst] = cb2i(int32(m.Regs[a0]) < int32(m.Regs[a1]))
		}, false, nil
	case ir.OpSetLE:
		return func(m *CompiledMachine) {
			m.Regs[dst] = cb2i(int32(m.Regs[a0]) <= int32(m.Regs[a1]))
		}, false, nil
	case ir.OpSetGT:
		return func(m *CompiledMachine) {
			m.Regs[dst] = cb2i(int32(m.Regs[a0]) > int32(m.Regs[a1]))
		}, false, nil
	case ir.OpSetGE:
		return func(m *CompiledMachine) {
			m.Regs[dst] = cb2i(int32(m.Regs[a0]) >= int32(m.Regs[a1]))
		}, false, nil
	case ir.OpFAdd:
		return func(m *CompiledMachine) {
			m.Regs[dst] = fb(ff(m.Regs[a0]) + ff(m.Regs[a1]))
		}, false, nil
	case ir.OpFSub:
		return func(m *CompiledMachine) {
			m.Regs[dst] = fb(ff(m.Regs[a0]) - ff(m.Regs[a1]))
		}, false, nil
	case ir.OpFMul:
		return func(m *CompiledMachine) {
			m.Regs[dst] = fb(ff(m.Regs[a0]) * ff(m.Regs[a1]))
		}, false, nil
	case ir.OpFDiv:
		return func(m *CompiledMachine) {
			m.Regs[dst] = fb(ff(m.Regs[a0]) / ff(m.Regs[a1]))
		}, false, nil
	case ir.OpFNeg:
		return func(m *CompiledMachine) { m.Regs[dst] = fb(-ff(m.Regs[a0])) }, false, nil
	case ir.OpFMac:
		return func(m *CompiledMachine) {
			m.Regs[dst] = fb(ff(m.Regs[dst]) + ff(m.Regs[a0])*ff(m.Regs[a1]))
		}, false, nil
	case ir.OpFSetEQ:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) == ff(m.Regs[a1])) }, false, nil
	case ir.OpFSetNE:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) != ff(m.Regs[a1])) }, false, nil
	case ir.OpFSetLT:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) < ff(m.Regs[a1])) }, false, nil
	case ir.OpFSetLE:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) <= ff(m.Regs[a1])) }, false, nil
	case ir.OpFSetGT:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) > ff(m.Regs[a1])) }, false, nil
	case ir.OpFSetGE:
		return func(m *CompiledMachine) { m.Regs[dst] = cb2i(ff(m.Regs[a0]) >= ff(m.Regs[a1])) }, false, nil
	case ir.OpIntToFloat:
		return func(m *CompiledMachine) { m.Regs[dst] = fb(float32(int32(m.Regs[a0]))) }, false, nil
	case ir.OpFloatToInt:
		return func(m *CompiledMachine) { m.Regs[dst] = uint32(FloatToInt(ff(m.Regs[a0]))) }, false, nil
	}
	return nil, false, fmt.Errorf("cannot compile %s", op.Kind)
}

// cb2i is b2i for the compiled closures (branch-free enough in
// practice; the comparisons above use unsigned forms where the signed
// and unsigned results agree, i.e. EQ/NE).
func cb2i(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// lowerStaged generates one staged (two-phase) closure: it evaluates
// against the pre-commit register file via the operation-record
// evaluators — keeping this rare path pinned to the reference by
// construction — and buffers the result at pending slot k.
func lowerStaged(op *ir.Op, po pOp, k int, lowOrder bool) cOp {
	switch op.Kind {
	case ir.OpLoad:
		dst := uint8(op.Dst)
		return func(m *CompiledMachine) {
			addr, bank, err := resolvePOp(&m.Regs, &po, lowOrder)
			if err != nil {
				m.setFault(err)
				return
			}
			if lowOrder {
				if bank == 1 {
					m.portY++
				} else {
					m.portX++
				}
			}
			m.pend[k] = cPend{val: m.Banks[bank][addr], reg: dst}
		}
	case ir.OpStore:
		val := uint8(op.Args[0])
		return func(m *CompiledMachine) {
			addr, bank, err := resolvePOp(&m.Regs, &po, lowOrder)
			if err != nil {
				m.setFault(err)
				return
			}
			if lowOrder {
				if bank == 1 {
					m.portY++
				} else {
					m.portX++
				}
			}
			m.pend[k] = cPend{val: m.Regs[val], addr: addr, isMem: true, bank: bank}
		}
	default:
		dst := uint8(op.Dst)
		return func(m *CompiledMachine) {
			v, err := evalPOp(&m.Regs, &po)
			if err != nil {
				m.setFault(err)
				return
			}
			m.pend[k] = cPend{val: v, reg: dst}
		}
	}
}

// NewMachine builds a fresh CompiledMachine: arenas hold the initial
// images, registers are zero.
func (cp *CompiledProgram) NewMachine() *CompiledMachine {
	m := &CompiledMachine{
		cp:        cp,
		Banks:     make([][]uint32, cp.nbanks),
		MaxCycles: DefaultMaxSteps,
	}
	for b := range m.Banks {
		m.Banks[b] = make([]uint32, cp.memWords)
		copy(m.Banks[b], cp.initBanks[b])
	}
	m.X, m.Y = m.Banks[0], m.Banks[1]
	return m
}

// Reset restores the machine to its initial state so it can be run
// again without reallocating. It touches only the program's used
// address range.
func (m *CompiledMachine) Reset() {
	for b := range m.Banks {
		copy(m.Banks[b], m.cp.initBanks[b])
	}
	m.Regs = [65]uint32{}
	m.Cycles = 0
	m.OpsExecuted = 0
	m.MemAccesses = 0
	m.DualMemCycles = 0
	m.BankConflicts = 0
	m.nloops = 0
	m.portX, m.portY = 0, 0
	m.fault = nil
}

// Run executes main() to completion.
func (m *CompiledMachine) Run() error {
	return m.RunContext(context.Background())
}

// RunContext executes main() to completion, honoring ctx: the run loop
// polls for cancellation at basic-block boundaries with the same
// stride-256 decimation as the other engines.
func (m *CompiledMachine) RunContext(ctx context.Context) error {
	m.cancel.arm(ctx)
	defer m.cancel.disarm()
	return m.runFunc(m.cp.main)
}

// runFunc executes one function invocation until its ret.
func (m *CompiledMachine) runFunc(f *cFunc) error {
	bi := f.entry
block:
	for {
		if err := m.cancel.poll(); err != nil {
			return fmt.Errorf("sim: %s: %w", f.name, err)
		}
		b := &f.blocks[bi]
		// One aggregated counter update per block. The pre-added cycles
		// all retire by the block's end, so partial sums never exceed
		// the run's final total and the limit check cannot fire
		// spuriously; dynamic conflict stalls re-check in finishDyn.
		m.Cycles += b.cycles
		m.OpsExecuted += b.nops
		m.MemAccesses += b.mem
		m.DualMemCycles += b.dual
		m.BankConflicts += b.conflicts
		if m.Cycles > m.MaxCycles {
			return fmt.Errorf("sim: cycle limit exceeded in %s", f.name)
		}
		for ii := range b.instrs {
			in := &b.instrs[ii]
			for _, op := range in.ops {
				op(m)
			}
			if in.canFault && m.fault != nil {
				err := m.fault
				m.fault = nil
				return fmt.Errorf("sim: %s: %w", f.name, err)
			}
			if in.npend > 0 {
				m.commit(int(in.npend))
			}
			if in.dyn {
				m.finishDyn(in)
				if m.fault != nil {
					err := m.fault
					m.fault = nil
					return fmt.Errorf("sim: %s: %w", f.name, err)
				}
			}
			switch in.ctrl {
			case cNone:
			case cBr:
				bi = in.succ0
				continue block
			case cCondBr:
				if m.Regs[in.ctrlReg] != 0 {
					bi = in.succ0
				} else {
					bi = in.succ1
				}
				continue block
			case cRet:
				return nil
			case cDo:
				n := int32(m.Regs[in.ctrlReg])
				if n < 1 {
					return fmt.Errorf("sim: do with count %d in %s", n, f.name)
				}
				if m.nloops >= maxHWLoopDepth {
					return fmt.Errorf("sim: loop stack overflow in %s", f.name)
				}
				m.loops[m.nloops] = n
				m.nloops++
				bi = in.succ0
				continue block
			case cEndDo:
				if m.nloops == 0 {
					return fmt.Errorf("sim: enddo with empty loop stack in %s", f.name)
				}
				m.loops[m.nloops-1]--
				if m.loops[m.nloops-1] > 0 {
					bi = in.succ0
				} else {
					m.nloops--
					bi = in.succ1
				}
				continue block
			case cCall:
				if err := m.runFunc(in.callee); err != nil {
					return err
				}
			}
		}
		return fmt.Errorf("sim: block b%d of %s has no terminator", bi, f.name)
	}
}

// commit flushes the first n pending writes in slot order — the staged
// instruction's write phase.
func (m *CompiledMachine) commit(n int) {
	for i := 0; i < n; i++ {
		p := &m.pend[i]
		if p.isMem {
			m.Banks[p.bank][p.addr] = p.val
		} else {
			m.Regs[p.reg] = p.val
		}
	}
}

// finishDyn settles a dynamic-port instruction's bandwidth counters:
// run-time port counts plus the statically-resolved accesses, the
// dual-access credit, and the low-order same-bank conflict stall.
func (m *CompiledMachine) finishDyn(in *cInstr) {
	px := int32(in.statPX) + m.portX
	py := int32(in.statPY) + m.portY
	m.portX, m.portY = 0, 0
	total := px + py
	if total == 0 {
		return
	}
	m.MemAccesses += int64(total)
	if total >= 2 {
		m.DualMemCycles++
	}
	if px > 1 || py > 1 {
		m.Cycles++
		m.BankConflicts++
		m.DualMemCycles--
		if m.Cycles > m.MaxCycles {
			m.setFault(errCycleLimit)
		}
	}
}

// Word reads sym[idx], mirroring Machine.Word: the bank-0 copy for
// duplicated symbols, with a coherence check across every bank.
func (m *CompiledMachine) Word(sym *ir.Symbol, idx int) (uint32, error) {
	a := sym.Addr + idx
	if m.cp.lowOrder {
		return m.Banks[a%m.cp.nbanks][a/m.cp.nbanks], nil
	}
	if sym.Bank == machine.BankBoth {
		v := m.Banks[0][a]
		for b := 1; b < m.cp.nbanks; b++ {
			if m.Banks[b][a] != v {
				return 0, fmt.Errorf("sim: duplicated symbol %s[%d] incoherent: %s=%#x %s=%#x",
					sym, idx, machine.BankAt(0), v, machine.BankAt(b), m.Banks[b][a])
			}
		}
		return v, nil
	}
	return m.Banks[bankIndexOf(sym.Bank, m.cp.nbanks)][a], nil
}

// Int32 reads sym[idx] as an integer.
func (m *CompiledMachine) Int32(sym *ir.Symbol, idx int) (int32, error) {
	w, err := m.Word(sym, idx)
	return int32(w), err
}

// Float32 reads sym[idx] as a float.
func (m *CompiledMachine) Float32(sym *ir.Symbol, idx int) (float32, error) {
	w, err := m.Word(sym, idx)
	return math.Float32frombits(w), err
}
