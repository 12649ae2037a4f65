package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
)

// ctxCheckStride is how many basic-block boundaries pass between
// cancellation polls when a run carries a context. Blocks retire in at
// most a few hundred cycles, so a stride of 256 keeps the poll cost
// invisible while bounding the reaction latency to well under a
// millisecond of simulated work.
const ctxCheckStride = 256

// ctxCheck is the shared cancellation state of the run loops: a
// context's done channel polled every ctxCheckStride block boundaries.
// The zero value (no context) never fires; polling costs one decrement
// per block.
type ctxCheck struct {
	ctx  context.Context
	done <-chan struct{}
	// left counts the polls until the next look at done.
	left int
}

// arm points the check at ctx for the duration of one run; a context
// that can never be cancelled leaves the check disarmed.
func (c *ctxCheck) arm(ctx context.Context) {
	c.ctx = ctx
	c.done = ctx.Done()
	c.left = ctxCheckStride
}

func (c *ctxCheck) disarm() { c.ctx, c.done = nil, nil }

// poll returns the context's error once it is cancelled; at most one
// poll per ctxCheckStride calls touches the channel. It inlines into
// the run loops.
func (c *ctxCheck) poll() error {
	if c.left--; c.left > 0 {
		return nil
	}
	return c.check()
}

// check looks at the done channel and restarts the count; disarmed,
// it puts the next look out of reach.
func (c *ctxCheck) check() error {
	if c.done == nil {
		c.left = math.MaxInt
		return nil
	}
	c.left = ctxCheckStride
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// Machine executes a scheduled VLIW program against the dual-bank
// memory system. One long instruction retires per cycle; within an
// instruction every operation reads its operands before any operation
// writes a result (this is what makes anti-dependent operations safe
// to pack together). The cycle count is the paper's performance
// metric.
type Machine struct {
	Prog *compact.Program

	// Banks holds the data-memory banks, indexed by bank index. X and Y
	// alias Banks[0] and Banks[1] — the classic pair every machine in
	// the generalized family retains.
	Banks [][]uint32
	// X and Y are the two classic data-memory banks (views of Banks).
	X, Y []uint32
	// Regs is the unified physical register file view: entries 1..32
	// are the integer file, 33..64 the float file.
	Regs [65]uint32

	// Cycles counts retired long instructions (plus stall cycles under
	// the low-order-interleaved port model).
	Cycles int64
	// OpsExecuted counts individual operations, for utilization stats.
	OpsExecuted int64
	// MemAccesses and DualMemCycles count dynamic memory traffic and
	// the cycles that issued two accesses — the exploited bandwidth.
	MemAccesses, DualMemCycles int64
	// BankConflicts counts run-time same-bank conflicts (stall cycles)
	// under the low-order-interleaved model.
	BankConflicts int64
	// MaxCycles bounds execution.
	MaxCycles int64

	// CheckPorts enables the per-cycle bank-port assertion: under the
	// banked model each single-ported bank may serve at most one access
	// per cycle. A violation is a scheduler bug.
	CheckPorts bool

	// AfterInstr, when non-nil, runs after each long instruction's
	// write phase commits — i.e. at every boundary where an interrupt
	// could be taken. Tests use it to probe the §3.2 hazard: an
	// interrupt observing a duplicated variable between the two halves
	// of its store pair. Returning an error aborts the run.
	AfterInstr func(m *Machine) error

	// Trace, when non-nil, receives one line per retired long
	// instruction: cycle, function, block, and the operations issued
	// per unit.
	Trace io.Writer

	loops []int32 // hardware loop-counter stack

	// regStamp[r] = cycle of the last write to r, for the
	// one-write-per-register-per-instruction assertion.
	regStamp [65]int64

	// Bank geometry, resolved once from Prog.Spec: bank count, ports
	// per bank, and the per-unit bank binding.
	nbanks, pports int
	bankOf         [machine.MaxUnits]int8

	cancel ctxCheck
}

// maxHWLoopDepth bounds the hardware loop stack.
const maxHWLoopDepth = 64

// NewMachine loads a scheduled program into a fresh machine: memory
// banks are zeroed and global initializers copied into their assigned
// locations (duplicated symbols into both banks).
func NewMachine(p *compact.Program) *Machine {
	spec := p.Spec.Norm()
	m := &Machine{
		Prog:       p,
		Banks:      make([][]uint32, spec.Banks),
		MaxCycles:  DefaultMaxSteps,
		CheckPorts: true,
		nbanks:     spec.Banks,
		pports:     spec.PortsPerBank,
	}
	for b := range m.Banks {
		m.Banks[b] = make([]uint32, machine.BankWords)
	}
	m.X, m.Y = m.Banks[0], m.Banks[1]
	for u := range m.bankOf {
		m.bankOf[u] = int8(spec.BankOfUnit(machine.Unit(u)).Index())
	}
	for _, s := range p.Src.Symbols() {
		for i, w := range s.Init {
			if p.Ports == machine.PortsLowOrder {
				m.storeFlat(s.Addr+i, w)
				continue
			}
			if s.Bank == machine.BankBoth {
				for b := range m.Banks {
					m.Banks[b][s.Addr+i] = w
				}
				continue
			}
			m.Banks[m.bankIdx(s.Bank)][s.Addr+i] = w
		}
	}
	return m
}

// bankIdx maps a single-bank tag to its bank index; unassigned data
// lives in bank 0 (the baseline single-bank layout).
func (m *Machine) bankIdx(b machine.Bank) int {
	if i := b.Index(); i >= 0 && i < m.nbanks {
		return i
	}
	return 0
}

// storeFlat and loadFlat implement the low-order-interleaved address
// map: bank = address modulo the bank count (even/odd on the classic
// pair), in-bank address = address divided by it.
func (m *Machine) storeFlat(addr int, w uint32) {
	m.Banks[addr%m.nbanks][addr/m.nbanks] = w
}

func (m *Machine) loadFlat(addr int) uint32 {
	return m.Banks[addr%m.nbanks][addr/m.nbanks]
}

// Run executes main() to completion.
func (m *Machine) Run() error {
	return m.RunContext(context.Background())
}

// RunContext executes main() to completion, honoring ctx: the run
// loop polls for cancellation at basic-block boundaries and returns an
// error wrapping ctx.Err() once the context is done, leaving the
// machine state wherever the simulation stopped.
func (m *Machine) RunContext(ctx context.Context) error {
	f := m.Prog.Funcs["main"]
	if f == nil {
		return fmt.Errorf("sim: no main function")
	}
	if !f.Src.Phys() {
		return fmt.Errorf("sim: program must be in physical-register form (run regalloc)")
	}
	m.cancel.arm(ctx)
	defer m.cancel.disarm()
	return m.runFunc(f)
}

// Word reads sym[idx] from the bank holding it (the bank-0 copy for
// duplicated symbols; every copy is checked to be coherent).
func (m *Machine) Word(sym *ir.Symbol, idx int) (uint32, error) {
	a := sym.Addr + idx
	if m.Prog.Ports == machine.PortsLowOrder {
		return m.loadFlat(a), nil
	}
	if sym.Bank == machine.BankBoth {
		v := m.Banks[0][a]
		for b := 1; b < m.nbanks; b++ {
			if m.Banks[b][a] != v {
				return 0, fmt.Errorf("sim: duplicated symbol %s[%d] incoherent: %s=%#x %s=%#x",
					sym, idx, machine.BankAt(0), v, machine.BankAt(b), m.Banks[b][a])
			}
		}
		return v, nil
	}
	return m.Banks[m.bankIdx(sym.Bank)][a], nil
}

// Int32 reads sym[idx] as an integer.
func (m *Machine) Int32(sym *ir.Symbol, idx int) (int32, error) {
	w, err := m.Word(sym, idx)
	return int32(w), err
}

// Float32 reads sym[idx] as a float.
func (m *Machine) Float32(sym *ir.Symbol, idx int) (float32, error) {
	w, err := m.Word(sym, idx)
	return math.Float32frombits(w), err
}

type pendingWrite struct {
	isReg bool
	reg   ir.Reg
	bank  int // bank index for memory writes
	addr  int
	val   uint32
}

// runFunc executes one function invocation and returns control when it
// hits a ret.
func (m *Machine) runFunc(f *compact.Func) error {
	b := f.Blocks[f.Src.Entry().ID]
	for {
		if err := m.cancel.poll(); err != nil {
			return fmt.Errorf("sim: %s: %w", f.Src.Name, err)
		}
		nextBlock, returned, err := m.runBlock(f, b)
		if err != nil {
			return err
		}
		if returned {
			return nil
		}
		b = f.Blocks[nextBlock.ID]
	}
}

// runBlock executes the instructions of one scheduled block. It
// returns the successor block, or returned=true for a ret.
func (m *Machine) runBlock(f *compact.Func, b *compact.Block) (next *ir.Block, returned bool, err error) {
	var writes []pendingWrite
	for _, instr := range b.Instrs {
		m.Cycles++
		if m.Cycles > m.MaxCycles {
			return nil, false, fmt.Errorf("sim: cycle limit exceeded in %s", f.Src.Name)
		}
		if m.Trace != nil {
			m.traceInstr(f, b, instr)
		}
		writes = writes[:0]
		var branchTo *ir.Block
		var doRet bool
		var callee *compact.Func
		var ports [machine.MaxBanks]int
		mem := 0

		// Read phase: evaluate every operation.
		for u, op := range instr.Slots {
			if op == nil {
				continue
			}
			m.OpsExecuted++
			switch op.Kind {
			case ir.OpBr:
				branchTo = b.Src.Succs[0]
			case ir.OpCondBr:
				if m.Regs[op.Args[0]] != 0 {
					branchTo = b.Src.Succs[0]
				} else {
					branchTo = b.Src.Succs[1]
				}
			case ir.OpRet:
				doRet = true
			case ir.OpDo:
				n := int32(m.Regs[op.Args[0]])
				if n < 1 {
					return nil, false, fmt.Errorf("sim: do with count %d in %s", n, f.Src.Name)
				}
				if len(m.loops) >= maxHWLoopDepth {
					return nil, false, fmt.Errorf("sim: loop stack overflow in %s", f.Src.Name)
				}
				m.loops = append(m.loops, n)
				branchTo = b.Src.Succs[0]
			case ir.OpEndDo:
				top := len(m.loops) - 1
				if top < 0 {
					return nil, false, fmt.Errorf("sim: enddo with empty loop stack in %s", f.Src.Name)
				}
				m.loops[top]--
				if m.loops[top] > 0 {
					branchTo = b.Src.Succs[0]
				} else {
					m.loops = m.loops[:top]
					branchTo = b.Src.Succs[1]
				}
			case ir.OpCall:
				callee = m.Prog.Funcs[op.Callee]
				if callee == nil {
					return nil, false, fmt.Errorf("sim: call to unknown %s", op.Callee)
				}
			case ir.OpLoad:
				bank, addr, err := m.resolve(op, machine.Unit(u))
				if err != nil {
					return nil, false, err
				}
				ports[bank]++
				mem++
				writes = append(writes, pendingWrite{isReg: true, reg: op.Dst, val: m.Banks[bank][addr]})
			case ir.OpStore:
				bank, addr, err := m.resolve(op, machine.Unit(u))
				if err != nil {
					return nil, false, err
				}
				ports[bank]++
				mem++
				writes = append(writes, pendingWrite{bank: bank, addr: addr, val: m.Regs[op.Args[0]]})
			default:
				v, err := m.evalALU(op)
				if err != nil {
					return nil, false, fmt.Errorf("sim %s: %s: %w", f.Src.Name, op, err)
				}
				writes = append(writes, pendingWrite{isReg: true, reg: op.Dst, val: v})
			}
		}

		if mem > 0 {
			m.MemAccesses += int64(mem)
			if mem >= 2 {
				m.DualMemCycles++
			}
		}
		switch m.Prog.Ports {
		case machine.PortsBanked:
			if m.CheckPorts {
				for b := 0; b < m.nbanks; b++ {
					if ports[b] > m.pports {
						return nil, false, fmt.Errorf("sim: bank port conflict (%s=%d accesses, %d ports) in %s",
							machine.BankAt(b), ports[b], m.pports, f.Src.Name)
					}
				}
			}
		case machine.PortsLowOrder:
			// A run-time same-bank conflict costs stall cycles: accesses
			// beyond a bank's port capacity are serialised by the memory
			// system, and the instruction retires with the slowest bank
			// (one stall per extra round). On the classic 2-bank,
			// 1-port machine this is the paper's single-cycle stall.
			stall := 0
			for b := 0; b < m.nbanks; b++ {
				if rounds := (ports[b] + m.pports - 1) / m.pports; rounds-1 > stall {
					stall = rounds - 1
				}
			}
			if stall > 0 {
				m.Cycles += int64(stall)
				m.BankConflicts += int64(stall)
				m.DualMemCycles--
			}
		}

		// Write phase: commit all results.
		for _, w := range writes {
			if w.isReg {
				if w.reg < 65 {
					if m.regStamp[w.reg] == m.Cycles {
						return nil, false, fmt.Errorf("sim: two writes to %s in one instruction", w.reg)
					}
					m.regStamp[w.reg] = m.Cycles
				}
				m.Regs[w.reg] = w.val
				continue
			}
			m.Banks[w.bank][w.addr] = w.val
		}

		if m.AfterInstr != nil {
			if err := m.AfterInstr(m); err != nil {
				return nil, false, err
			}
		}

		// Control transfer after the instruction completes.
		if callee != nil {
			if err := m.runFunc(callee); err != nil {
				return nil, false, err
			}
		}
		if doRet {
			return nil, true, nil
		}
		if branchTo != nil {
			return branchTo, false, nil
		}
	}
	return nil, false, fmt.Errorf("sim: block %s of %s has no terminator", b.Src, f.Src.Name)
}

// traceInstr emits one trace line for a retiring instruction.
func (m *Machine) traceInstr(f *compact.Func, b *compact.Block, in *compact.Instr) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8d %s b%d:", m.Cycles, f.Src.Name, b.Src.ID)
	for u, op := range in.Slots {
		if op == nil {
			continue
		}
		fmt.Fprintf(&sb, "  %s[%s]", machine.Unit(u), op)
	}
	sb.WriteByte('\n')
	io.WriteString(m.Trace, sb.String())
}

// resolve computes the bank index and in-bank word address of a memory
// access. Under the banked port model the executing unit determines
// the bank; under the dual-ported model the operation's own tag does;
// under the low-order model the address modulo the bank count does.
func (m *Machine) resolve(op *ir.Op, u machine.Unit) (int, int, error) {
	idx := 0
	if op.Idx != ir.NoReg {
		idx = int(int32(m.Regs[op.Idx]))
	}
	if idx < 0 || idx >= op.Sym.Size {
		return 0, 0, fmt.Errorf("sim: index %d out of range for %s (size %d)", idx, op.Sym, op.Sym.Size)
	}
	addr := op.Sym.Addr + idx
	switch m.Prog.Ports {
	case machine.PortsBanked:
		return int(m.bankOf[u]), addr, nil
	case machine.PortsLowOrder:
		return addr % m.nbanks, addr / m.nbanks, nil
	default: // dual-ported
		return m.bankIdx(op.Bank), addr, nil
	}
}

// evalALU computes a scalar operation's result from the current
// register file (read phase).
func (m *Machine) evalALU(op *ir.Op) (uint32, error) {
	iv := func(r ir.Reg) int32 { return int32(m.Regs[r]) }
	fv := func(r ir.Reg) float32 { return math.Float32frombits(m.Regs[r]) }
	fb := math.Float32bits

	switch op.Kind {
	case ir.OpConst:
		return uint32(int32(op.Imm)), nil
	case ir.OpFConst:
		return fb(float32(op.FImm)), nil
	case ir.OpMov:
		return m.Regs[op.Args[0]], nil
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT,
		ir.OpSetLE, ir.OpSetGT, ir.OpSetGE:
		return uint32(opt.EvalIntBin(op.Kind, iv(op.Args[0]), iv(op.Args[1]))), nil
	case ir.OpDiv, ir.OpRem:
		if iv(op.Args[1]) == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return uint32(opt.EvalIntBin(op.Kind, iv(op.Args[0]), iv(op.Args[1]))), nil
	case ir.OpNeg:
		return uint32(-iv(op.Args[0])), nil
	case ir.OpNot:
		return uint32(^iv(op.Args[0])), nil
	case ir.OpMac:
		return uint32(iv(op.Dst) + iv(op.Args[0])*iv(op.Args[1])), nil
	case ir.OpFAdd:
		return fb(fv(op.Args[0]) + fv(op.Args[1])), nil
	case ir.OpFSub:
		return fb(fv(op.Args[0]) - fv(op.Args[1])), nil
	case ir.OpFMul:
		return fb(fv(op.Args[0]) * fv(op.Args[1])), nil
	case ir.OpFDiv:
		return fb(fv(op.Args[0]) / fv(op.Args[1])), nil
	case ir.OpFNeg:
		return fb(-fv(op.Args[0])), nil
	case ir.OpFMac:
		return fb(fv(op.Dst) + fv(op.Args[0])*fv(op.Args[1])), nil
	case ir.OpFSetEQ:
		return uint32(b2i(fv(op.Args[0]) == fv(op.Args[1]))), nil
	case ir.OpFSetNE:
		return uint32(b2i(fv(op.Args[0]) != fv(op.Args[1]))), nil
	case ir.OpFSetLT:
		return uint32(b2i(fv(op.Args[0]) < fv(op.Args[1]))), nil
	case ir.OpFSetLE:
		return uint32(b2i(fv(op.Args[0]) <= fv(op.Args[1]))), nil
	case ir.OpFSetGT:
		return uint32(b2i(fv(op.Args[0]) > fv(op.Args[1]))), nil
	case ir.OpFSetGE:
		return uint32(b2i(fv(op.Args[0]) >= fv(op.Args[1]))), nil
	case ir.OpIntToFloat:
		return fb(float32(iv(op.Args[0]))), nil
	case ir.OpFloatToInt:
		return uint32(ir.FloatToInt(fv(op.Args[0]))), nil
	}
	return 0, fmt.Errorf("sim: cannot execute %s", op.Kind)
}
