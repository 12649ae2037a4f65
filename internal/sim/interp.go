// Package sim executes compiled programs. It provides two engines:
//
//   - Interp walks the IR directly (any pipeline stage). It is the
//     reference semantics: tests compare its memory image against Go
//     reference implementations, and the profiler uses it to collect
//     basic-block execution counts for the profile-driven edge-weight
//     policy (Pr).
//   - Machine executes scheduled VLIW code against the two-bank memory
//     system with read-before-write instruction semantics and counts
//     cycles — the paper's performance metric.
//
// Both engines share the architecture's arithmetic semantics, so any
// divergence between them is a compiler bug; the integration tests
// exploit this.
package sim

import (
	"context"
	"fmt"
	"math"

	"dualbank/internal/ir"
	"dualbank/internal/opt"
)

// DefaultMaxSteps bounds interpreter execution (operations) and
// simulator execution (cycles) to catch runaway programs.
const DefaultMaxSteps = 1 << 32

// Interp is the IR-level interpreter.
type Interp struct {
	Prog *ir.Program
	// MaxSteps bounds the number of executed operations.
	MaxSteps int64
	// Steps is the number of operations executed.
	Steps int64
	// Profile enables basic-block execution counting into
	// ir.Block.ExecCount.
	Profile bool

	// counts, set by BlockCounts, holds each function's block counts,
	// indexed by block ID.
	counts map[*ir.Func][]int64

	mem   map[*ir.Symbol][]uint32
	regs  []uint32 // global file when the program is in physical form
	phys  bool
	loops []int32 // hardware loop-counter stack

	cancel ctxCheck
}

// maxLoopDepth bounds the hardware loop stack, like real DSP loop
// hardware.
const maxLoopDepth = 64

// NewInterp prepares an interpreter with freshly initialized memory.
func NewInterp(p *ir.Program) *Interp {
	in := &Interp{Prog: p, MaxSteps: DefaultMaxSteps, mem: make(map[*ir.Symbol][]uint32)}
	for _, s := range p.Symbols() {
		w := make([]uint32, s.Size)
		copy(w, s.Init)
		in.mem[s] = w
	}
	if len(p.Funcs) > 0 && p.Funcs[0].Phys() {
		in.phys = true
		in.regs = make([]uint32, 65)
	}
	return in
}

// Run executes main().
func (in *Interp) Run() error {
	return in.RunContext(context.Background())
}

// RunContext executes main(), honoring ctx: the step loop polls for
// cancellation at control-transfer boundaries and returns an error
// wrapping ctx.Err() once the context is done.
func (in *Interp) RunContext(ctx context.Context) error {
	in.cancel.arm(ctx)
	defer in.cancel.disarm()
	mainF := in.Prog.Func("main")
	if mainF == nil {
		return fmt.Errorf("interp: no main function")
	}
	if in.Profile {
		for _, f := range in.Prog.Funcs {
			for _, b := range f.Blocks {
				b.ExecCount = 0
			}
		}
	}
	_, err := in.call(mainF)
	return err
}

// BlockCounts executes main() like RunContext and returns the number of
// times each basic block ran, in function then block order. Unlike
// Profile it writes nothing into the program, so a program other
// goroutines are reading can be profiled. The program must pass
// ir.Verify, which makes every block's ID its index.
func (in *Interp) BlockCounts(ctx context.Context) ([]int64, error) {
	n := 0
	for _, f := range in.Prog.Funcs {
		n += len(f.Blocks)
	}
	flat := make([]int64, n)
	in.counts = make(map[*ir.Func][]int64, len(in.Prog.Funcs))
	n = 0
	for _, f := range in.Prog.Funcs {
		in.counts[f] = flat[n : n+len(f.Blocks)]
		n += len(f.Blocks)
	}
	defer func() { in.counts = nil }()
	if err := in.RunContext(ctx); err != nil {
		return nil, err
	}
	return flat, nil
}

// Word returns the raw word at sym[idx].
func (in *Interp) Word(sym *ir.Symbol, idx int) uint32 { return in.mem[sym][idx] }

// Int32 returns sym[idx] as an integer.
func (in *Interp) Int32(sym *ir.Symbol, idx int) int32 { return int32(in.mem[sym][idx]) }

// Float32 returns sym[idx] as a float.
func (in *Interp) Float32(sym *ir.Symbol, idx int) float32 {
	return math.Float32frombits(in.mem[sym][idx])
}

// GlobalByName finds a global symbol for test inspection.
func (in *Interp) GlobalByName(name string) *ir.Symbol {
	for _, g := range in.Prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func (in *Interp) call(f *ir.Func) (uint32, error) {
	// In physical form the whole program shares one register file and
	// the functions' own prologues/epilogues preserve state across
	// calls; in virtual form each invocation gets a private frame.
	regs := in.regs
	if !in.phys {
		regs = make([]uint32, f.NumRegs())
	}

	counts := in.counts[f]
	b := f.Entry()
	for i := 0; i < len(b.Ops); {
		op := b.Ops[i]
		in.Steps++
		if in.Steps > in.MaxSteps {
			return 0, fmt.Errorf("interp: step limit exceeded in %s", f.Name)
		}
		if i == 0 {
			if err := in.cancel.poll(); err != nil {
				return 0, fmt.Errorf("interp: %s: %w", f.Name, err)
			}
			if counts != nil {
				counts[b.ID]++
			} else if in.Profile {
				b.ExecCount++
			}
		}
		switch op.Kind {
		case ir.OpBr:
			b = b.Succs[0]
			i = 0
			continue
		case ir.OpCondBr:
			if regs[op.Args[0]] != 0 {
				b = b.Succs[0]
			} else {
				b = b.Succs[1]
			}
			i = 0
			continue
		case ir.OpDo:
			n := int32(regs[op.Args[0]])
			if n < 1 {
				return 0, fmt.Errorf("interp: do with count %d in %s", n, f.Name)
			}
			if len(in.loops) >= maxLoopDepth {
				return 0, fmt.Errorf("interp: loop stack overflow in %s", f.Name)
			}
			in.loops = append(in.loops, n)
			b = b.Succs[0]
			i = 0
			continue
		case ir.OpEndDo:
			top := len(in.loops) - 1
			if top < 0 {
				return 0, fmt.Errorf("interp: enddo with empty loop stack in %s", f.Name)
			}
			in.loops[top]--
			if in.loops[top] > 0 {
				b = b.Succs[0]
			} else {
				in.loops = in.loops[:top]
				b = b.Succs[1]
			}
			i = 0
			continue
		case ir.OpRet:
			if op.Args[0] != ir.NoReg {
				return regs[op.Args[0]], nil
			}
			return 0, nil
		case ir.OpCall:
			callee := in.Prog.Func(op.Callee)
			v, err := in.call(callee)
			if err != nil {
				return 0, err
			}
			if op.Dst != ir.NoReg {
				regs[op.Dst] = v
			}
		default:
			if err := in.exec(f, op, regs); err != nil {
				return 0, fmt.Errorf("%s: %s: %w", f.Name, op, err)
			}
		}
		i++
	}
	return 0, fmt.Errorf("interp: fell off end of block in %s", f.Name)
}

func (in *Interp) exec(f *ir.Func, op *ir.Op, regs []uint32) error {
	iv := func(r ir.Reg) int32 { return int32(regs[r]) }
	fv := func(r ir.Reg) float32 { return math.Float32frombits(regs[r]) }
	setI := func(v int32) { regs[op.Dst] = uint32(v) }
	setF := func(v float32) { regs[op.Dst] = math.Float32bits(v) }

	switch op.Kind {
	case ir.OpConst:
		setI(int32(op.Imm))
	case ir.OpFConst:
		setF(float32(op.FImm))
	case ir.OpMov:
		regs[op.Dst] = regs[op.Args[0]]
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT,
		ir.OpSetLE, ir.OpSetGT, ir.OpSetGE:
		setI(opt.EvalIntBin(op.Kind, iv(op.Args[0]), iv(op.Args[1])))
	case ir.OpDiv, ir.OpRem:
		if iv(op.Args[1]) == 0 {
			return fmt.Errorf("integer division by zero")
		}
		setI(opt.EvalIntBin(op.Kind, iv(op.Args[0]), iv(op.Args[1])))
	case ir.OpNeg:
		setI(-iv(op.Args[0]))
	case ir.OpNot:
		setI(^iv(op.Args[0]))
	case ir.OpMac:
		setI(iv(op.Dst) + iv(op.Args[0])*iv(op.Args[1]))
	case ir.OpFAdd:
		setF(fv(op.Args[0]) + fv(op.Args[1]))
	case ir.OpFSub:
		setF(fv(op.Args[0]) - fv(op.Args[1]))
	case ir.OpFMul:
		setF(fv(op.Args[0]) * fv(op.Args[1]))
	case ir.OpFDiv:
		setF(fv(op.Args[0]) / fv(op.Args[1]))
	case ir.OpFNeg:
		setF(-fv(op.Args[0]))
	case ir.OpFMac:
		setF(fv(op.Dst) + fv(op.Args[0])*fv(op.Args[1]))
	case ir.OpFSetEQ:
		setI(b2i(fv(op.Args[0]) == fv(op.Args[1])))
	case ir.OpFSetNE:
		setI(b2i(fv(op.Args[0]) != fv(op.Args[1])))
	case ir.OpFSetLT:
		setI(b2i(fv(op.Args[0]) < fv(op.Args[1])))
	case ir.OpFSetLE:
		setI(b2i(fv(op.Args[0]) <= fv(op.Args[1])))
	case ir.OpFSetGT:
		setI(b2i(fv(op.Args[0]) > fv(op.Args[1])))
	case ir.OpFSetGE:
		setI(b2i(fv(op.Args[0]) >= fv(op.Args[1])))
	case ir.OpIntToFloat:
		setF(float32(iv(op.Args[0])))
	case ir.OpFloatToInt:
		setI(FloatToInt(fv(op.Args[0])))
	case ir.OpLoad:
		idx, err := in.memIndex(op, regs)
		if err != nil {
			return err
		}
		regs[op.Dst] = in.mem[op.Sym][idx]
	case ir.OpStore:
		idx, err := in.memIndex(op, regs)
		if err != nil {
			return err
		}
		in.mem[op.Sym][idx] = regs[op.Args[0]]
	default:
		return fmt.Errorf("interp: cannot execute %s", op.Kind)
	}
	return nil
}

func (in *Interp) memIndex(op *ir.Op, regs []uint32) (int, error) {
	idx := 0
	if op.Idx != ir.NoReg {
		idx = int(int32(regs[op.Idx]))
	}
	if idx < 0 || idx >= op.Sym.Size {
		return 0, fmt.Errorf("index %d out of range for %s (size %d)", idx, op.Sym, op.Sym.Size)
	}
	return idx, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// FloatToInt defines the architecture's float-to-int conversion:
// truncation toward zero with saturation and NaN mapping to zero,
// making the operation fully deterministic.
func FloatToInt(f float32) int32 {
	switch {
	case f != f: // NaN
		return 0
	case f >= 2147483647:
		return math.MaxInt32
	case f <= -2147483648:
		return math.MinInt32
	}
	return int32(f)
}
