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
// Every statically-known counter delta (cycles, occupied slots, memory
// accesses, dual-access cycles, even low-order conflict stalls of
// direct accesses) is aggregated to a single add per basic block.
//
// The reference interpreter evaluates every operation of a long
// instruction against the pre-instruction register file before any
// result commits. The lowering proves, per instruction, an execution
// order under which committing each result immediately is
// indistinguishable from that two-phase scheme (readers of a register
// or symbol ordered before its writer). Where no such order exists — a
// genuine anti-dependence cycle, e.g. a packed register swap — each
// register result goes to a shadow register above the program's 64
// instead, which leaves only memory edges to order, and one copy per
// result after the instruction's operations moves the shadows into
// place. Every instruction thus lowers to the same direct closures.
//
// Because every instruction commits as it goes, consecutive ones are
// one flat sequence of closures. A block is therefore lowered to one op
// list, cut into runs: a run ends only at an instruction that needs its
// own step after its operations — low-order port settlement or a call —
// or at the block's end. The engine calls a run's closures back to back
// and checks for a fault once, at the run's end. An operation that
// faults records the fault and leaves machine state alone, and every
// later one in the run is bounds-checked like any other, so running on
// to the end of the run is safe; the first fault is the one reported.
// A cyclic instruction's copies still move a faulted op's stale shadow
// into its register, which is harmless: state after a fault is not
// observable.
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

// Run-end steps, the post flags of a cRun.
const (
	// pFault: an operation of the run can fault.
	pFault uint8 = 1 << iota
	// pDyn: the last instruction's ports resolve at run time (low-order
	// model with an indexed access); finishDyn settles its bandwidth
	// counters and conflict stall.
	pDyn
	// pCall: the last instruction calls callee.
	pCall
)

// cRun is one step of a block: a flat run of op closures (one per data
// operation, plus an instruction's accumulator and shadow copies if its
// anti-dependences form a cycle), then the fault check and the own
// step of the run's last instruction, if it needs one.
type cRun struct {
	ops  []cOp
	post uint8
	// statPX and statPY are the statically-resolved bank-0/bank-1
	// access counts a pDyn instruction contributes on top of its
	// run-time ports (the low-order model is 2-bank only).
	statPX, statPY int8
	// callee is called after the run.
	callee *cFunc
}

// cBlock is one lowered basic block: its op list cut into runs, its
// terminator, and its statically-aggregated counter deltas, applied in
// a single step at block entry.
type cBlock struct {
	runs []cRun

	ctrl    uint8
	ctrlReg uint8
	succ0   int32
	succ1   int32

	cycles    int64 // instruction count plus static low-order stalls
	nops      int64
	mem       int64
	dual      int64
	conflicts int64
}

// cInstr summarizes one lowered long instruction for its block, whose
// op list already holds its closures: whether one can fault, whether
// its ports resolve at run time, its static memory accesses and its
// control op.
type cInstr struct {
	canFault bool
	dyn      bool
	// statPX, statPY and statM are the instruction's statically
	// resolved bank-0, bank-1 and total memory accesses.
	statPX, statPY, statM int8

	ctrl    uint8
	ctrlReg uint8
	succ0   int32
	succ1   int32
	callee  *cFunc
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

// CompiledMachine executes a compiled program. It reproduces the
// reference Machine's observable behaviour exactly — cycle counts,
// bandwidth and conflict counters, and final memory images — calling
// each block's closures in flat runs, with one fault check per run and
// a single counter update per basic block. Its memory arenas cover
// only the program's used address
// range, so allocating and resetting machines is cheap enough to do
// per run.
type CompiledMachine struct {
	cp *CompiledProgram

	// Banks are the data-memory bank arenas (MemWords long); X and Y
	// alias Banks[0] and Banks[1] (every spec has at least two).
	Banks [][]uint32
	X, Y  []uint32
	// Regs is the unified physical register file view, entries 1..64
	// as on the reference Machine. It spans every uint8, the closures'
	// register-number type, so no register access needs a bounds
	// check. Entries 65 to 64+machine.MaxUnits are the shadow registers
	// of instructions with an anti-dependence cycle: their base,
	// shadowBase, stays above 64, the highest register the compiler
	// allocates and the ROM decoder accepts, and at most
	// 256-MaxUnits. The entries past them are never written.
	Regs [256]uint32

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
			if err := lowerBlock(&cf.blocks[bi], sb, funcs, cp); err != nil {
				return nil, fmt.Errorf("sim: compile %s: %w", name, err)
			}
		}
	}
	cp.main = funcs["main"]
	if cp.main == nil {
		return nil, fmt.Errorf("sim: compile: no main function")
	}
	return cp, nil
}

// bankIndexOf maps a single-bank tag to its bank index; unassigned
// data lives in bank 0 (the baseline single-bank layout).
func bankIndexOf(b machine.Bank, nbanks int) int {
	if i := b.Index(); i >= 0 && i < nbanks {
		return i
	}
	return 0
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

// lowerBlock lowers one scheduled block: every instruction's ops go
// into one op list, cut into runs after each instruction that needs
// its own step, and the instructions' static counter deltas fold into
// the block aggregate. The first instruction with a terminating
// control op ends the block.
func lowerBlock(cb *cBlock, sb *compact.Block, funcs map[string]*cFunc, cp *CompiledProgram) error {
	var slots int64
	for _, in := range sb.Instrs {
		slots += instrNops(in)
	}
	// Every op fills a slot. Only an instruction with an anti-dependence
	// cycle lowers to more closures than it has ops, so only a block
	// holding one can regrow the list.
	ops := make([]cOp, 0, slots)
	var run cRun
	start := 0
	for _, in := range sb.Instrs {
		var ci cInstr
		var err error
		ops, ci, err = lowerInstr(ops, in, sb, funcs, cp)
		if err != nil {
			return err
		}
		cb.cycles++
		cb.nops += instrNops(in)
		if !ci.dyn {
			px, py, sm := int(ci.statPX), int(ci.statPY), int(ci.statM)
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
		if ci.canFault {
			run.post |= pFault
		}
		if ci.dyn {
			run.post |= pDyn
			run.statPX, run.statPY = ci.statPX, ci.statPY
		}
		if ci.ctrl == cCall {
			run.post |= pCall
			run.callee = ci.callee
		}
		if run.post&^pFault != 0 {
			run.ops = ops[start:]
			cb.runs = append(cb.runs, run)
			run, start = cRun{}, len(ops)
		}
		if ci.ctrl != cNone && ci.ctrl != cCall {
			cb.ctrl, cb.ctrlReg, cb.succ0, cb.succ1 = ci.ctrl, ci.ctrlReg, ci.succ0, ci.succ1
			break
		}
	}
	if len(ops) > start {
		run.ops = ops[start:]
		cb.runs = append(cb.runs, run)
	}
	return nil
}

// lowerInstr lowers one long instruction, appending its closures to
// ops: control resolution, then the data operations in an order under
// which each commits at once yet reads what the reference's read phase
// reads.
func lowerInstr(ops []cOp, in *compact.Instr, sb *compact.Block, funcs map[string]*cFunc, cp *CompiledProgram) ([]cOp, cInstr, error) {
	ci := cInstr{ctrl: cNone, succ0: -1, succ1: -1}
	type dataOp struct {
		op   *ir.Op
		unit machine.Unit
	}
	var buf [machine.MaxUnits]dataOp
	data := buf[:0]
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
				return ops, cInstr{}, fmt.Errorf("call to unknown %s", op.Callee)
			}
			ci.ctrl = cCall
			ci.callee = callee
		default:
			data = append(data, dataOp{op: op, unit: machine.Unit(u)})
		}
	}
	if len(data) == 0 {
		return ops, ci, nil
	}

	var orderBuf [machine.MaxUnits]int
	order, ok := commitOrder(func(i int) *ir.Op { return data[i].op }, len(data), orderBuf[:0])
	var shadow []ir.Op
	if !ok {
		// An anti-dependence cycle, e.g. a packed register swap: no order
		// commits every result at once. Each register result goes to the
		// op's shadow register instead, a multiply-accumulate's after its
		// accumulator is copied there, so no op writes a register another
		// reads. Only load-before-store and store-before-store edges
		// remain, and those always order.
		shadow = make([]ir.Op, len(data))
		for k, d := range data {
			shadow[k] = *d.op
			if d.op.Kind == ir.OpStore {
				continue
			}
			shadow[k].Dst = shadowBase + ir.Reg(k)
			if d.op.Kind == ir.OpMac || d.op.Kind == ir.OpFMac {
				ops = append(ops, copyReg(shadow[k].Dst, d.op.Dst))
			}
		}
		if order, ok = commitOrder(func(i int) *ir.Op { return &shadow[i] }, len(data), orderBuf[:0]); !ok {
			return ops, cInstr{}, fmt.Errorf("no commit order for %d ops through shadow registers", len(data))
		}
	}
	for _, di := range order {
		op := data[di].op
		if shadow != nil {
			op = &shadow[di]
		}
		f, canFault, dyn, bank, err := lowerDirect(op, data[di].unit, cp)
		if err != nil {
			return ops, cInstr{}, err
		}
		ops = append(ops, f)
		ci.canFault = ci.canFault || canFault
		if op.IsMem() {
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
	// The shadows move into place in slot order, as the reference's
	// write phase commits. A shadow whose op faulted is stale, and its
	// copy writes the stale value; the run's end reports the fault, and
	// state after a fault is not observable.
	for k := range shadow {
		if shadow[k].Kind != ir.OpStore {
			ops = append(ops, copyReg(data[k].op.Dst, shadow[k].Dst))
		}
	}
	return ops, ci, nil
}

// shadowBase is the first shadow register: data op k of an instruction
// with an anti-dependence cycle writes Regs[shadowBase+k]. It sits
// above the 64 program registers and leaves room for MaxUnits shadows
// in the 256-entry file, which the constant below checks.
const shadowBase = 65

const _ uint8 = shadowBase + machine.MaxUnits - 1

// copyReg generates a register copy: an accumulator into its shadow, or
// a shadow into its register.
func copyReg(dst, src ir.Reg) cOp {
	d, s := uint8(dst), uint8(src)
	return func(m *CompiledMachine) { m.Regs[d] = m.Regs[s] }
}

// commitOrder proves an immediate-commit execution order for n data
// operations: every reader of a register or symbol runs before that
// register's or symbol's writer, and writes to the same destination
// keep slot order. It appends the order (a permutation of 0..n-1,
// preferring slot order among ready operations so lowering is
// deterministic) to order and reports whether one exists; a cyclic
// anti-dependence — e.g. a packed register swap — has none.
func commitOrder(op func(int) *ir.Op, n int, order []int) ([]int, bool) {
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

// setFault records the first fault of a run; the run's end reports it.
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
		return func(m *CompiledMachine) { m.Regs[dst] = uint32(ir.FloatToInt(ff(m.Regs[a0]))) }, false, nil
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
	m.Regs = [256]uint32{}
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
	b := &f.blocks[bi]
	for {
		if err := m.cancel.poll(); err != nil {
			return fmt.Errorf("sim: %s: %w", f.name, err)
		}
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
		for ri := range b.runs {
			r := &b.runs[ri]
			for _, op := range r.ops {
				op(m)
			}
			if r.post != 0 {
				if err := m.endRun(r, f); err != nil {
					return err
				}
			}
		}
		switch b.ctrl {
		case cBr:
			bi = b.succ0
		case cCondBr:
			if m.Regs[b.ctrlReg] != 0 {
				bi = b.succ0
			} else {
				bi = b.succ1
			}
		case cRet:
			return nil
		case cDo:
			n := int32(m.Regs[b.ctrlReg])
			if n < 1 {
				return fmt.Errorf("sim: do with count %d in %s", n, f.name)
			}
			if m.nloops >= maxHWLoopDepth {
				return fmt.Errorf("sim: loop stack overflow in %s", f.name)
			}
			m.loops[m.nloops] = n
			m.nloops++
			bi = b.succ0
		case cEndDo:
			if m.nloops == 0 {
				return fmt.Errorf("sim: enddo with empty loop stack in %s", f.name)
			}
			top := &m.loops[m.nloops-1]
			if *top--; *top == 0 {
				m.nloops--
				bi = b.succ1
			} else {
				bi = b.succ0
			}
		default:
			return fmt.Errorf("sim: block b%d of %s has no terminator", bi, f.name)
		}
		b = &f.blocks[bi]
	}
}

// endRun does what follows a run's ops: the fault check, then the
// low-order port settlement and the call of the run's last
// instruction.
func (m *CompiledMachine) endRun(r *cRun, f *cFunc) error {
	if m.fault != nil {
		return m.takeFault(f)
	}
	if r.post&pDyn != 0 {
		m.finishDyn(r)
		if m.fault != nil {
			return m.takeFault(f)
		}
	}
	if r.post&pCall != 0 {
		return m.runFunc(r.callee)
	}
	return nil
}

// takeFault clears the recorded fault and returns it, wrapped with the
// function it arose in.
func (m *CompiledMachine) takeFault(f *cFunc) error {
	err := m.fault
	m.fault = nil
	return fmt.Errorf("sim: %s: %w", f.name, err)
}

// finishDyn settles a dynamic-port instruction's bandwidth counters:
// run-time port counts plus the statically-resolved accesses, the
// dual-access credit, and the low-order same-bank conflict stall.
func (m *CompiledMachine) finishDyn(r *cRun) {
	px := int32(r.statPX) + m.portX
	py := int32(r.statPY) + m.portY
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
