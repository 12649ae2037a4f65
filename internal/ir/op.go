package ir

import (
	"fmt"
	"math"
	"strings"

	"dualbank/internal/machine"
)

// FloatToInt defines the architecture's float-to-int conversion
// (OpFloatToInt): truncation toward zero with saturation and NaN
// mapping to zero, making the operation fully deterministic. Every
// simulator and constant initializers convert through it.
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

// OpKind enumerates the machine operations of the model architecture.
type OpKind int8

const (
	OpInvalid OpKind = iota

	// Constants and moves.
	OpConst  // Dst = Imm (int)
	OpFConst // Dst = FImm (float)
	OpMov    // Dst = Args[0] (same type)

	// Integer arithmetic and logic (ClassInteger).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr // arithmetic shift right
	OpMac // Dst = Dst + Args[0]*Args[1] (multiply-accumulate)

	// Integer comparisons, producing 0 or 1 (ClassInteger).
	OpSetEQ
	OpSetNE
	OpSetLT
	OpSetLE
	OpSetGT
	OpSetGE

	// Floating-point arithmetic (ClassFloat).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFMac // Dst = Dst + Args[0]*Args[1]

	// Floating-point comparisons, producing int 0 or 1 (ClassFloat).
	OpFSetEQ
	OpFSetNE
	OpFSetLT
	OpFSetLE
	OpFSetGT
	OpFSetGE

	// Conversions (execute on the unit of their source domain).
	OpIntToFloat
	OpFloatToInt // FloatToInt: truncates toward zero, saturating

	// Memory (ClassMemory). Address = Sym.Addr + Idx (+ frame base for
	// locals). Idx == NoReg means a direct scalar access.
	OpLoad  // Dst = mem[Sym + Idx]
	OpStore // mem[Sym + Idx] = Args[0]

	// Control (ClassControl). These terminate blocks, except OpCall.
	OpBr     // unconditional branch to Block.Succs[0]
	OpCondBr // if Args[0] != 0 goto Succs[0] else Succs[1]
	OpRet    // return Args[0] (or nothing for void)
	OpCall   // Dst = Callee(CallArgs...)

	// Low-overhead looping hardware (ClassControl). OpDo pushes a loop
	// counter (Args[0], must be >= 1) and enters Succs[0]; OpEndDo
	// decrements the top counter and repeats to Succs[0] while it is
	// non-zero, otherwise pops and falls through to Succs[1]. These
	// model the zero-overhead DO/REP mechanism of DSPs like the
	// DSP56001 (Figure 1 of the paper).
	OpDo
	OpEndDo
)

var opNames = map[OpKind]string{
	OpConst: "const", OpFConst: "fconst", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpNeg: "neg", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpMac: "mac",
	OpSetEQ: "seteq", OpSetNE: "setne", OpSetLT: "setlt",
	OpSetLE: "setle", OpSetGT: "setgt", OpSetGE: "setge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFMac: "fmac",
	OpFSetEQ: "fseteq", OpFSetNE: "fsetne", OpFSetLT: "fsetlt",
	OpFSetLE: "fsetle", OpFSetGT: "fsetgt", OpFSetGE: "fsetge",
	OpIntToFloat: "itof", OpFloatToInt: "ftoi",
	OpLoad: "load", OpStore: "store",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpCall: "call",
	OpDo: "do", OpEndDo: "enddo",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int8(k))
}

// Class returns the functional-unit class that executes operations of
// this kind.
func (k OpKind) Class() machine.Class {
	switch k {
	case OpLoad, OpStore:
		return machine.ClassMemory
	case OpBr, OpCondBr, OpRet, OpCall, OpDo, OpEndDo:
		return machine.ClassControl
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpFMac,
		OpFSetEQ, OpFSetNE, OpFSetLT, OpFSetLE, OpFSetGT, OpFSetGE,
		OpFConst, OpIntToFloat, OpFloatToInt:
		return machine.ClassFloat
	default:
		return machine.ClassInteger
	}
}

// IsTerminator reports whether the kind ends a basic block.
func (k OpKind) IsTerminator() bool {
	return k == OpBr || k == OpCondBr || k == OpRet || k == OpDo || k == OpEndDo
}

// Op is one machine operation.
type Op struct {
	Kind OpKind
	Type Type // result type (TVoid if no result)
	Dst  Reg
	Args [2]Reg
	Idx  Reg // index register for Load/Store (NoReg = direct)

	Imm  int64   // OpConst
	FImm float64 // OpFConst (stored as float64, rounded to float32 by the simulator)

	// Sym is the symbol accessed by Load/Store.
	Sym *Symbol

	// Callee and CallArgs describe OpCall.
	Callee   string
	CallArgs []Reg

	// Bank is the memory bank this Load/Store is tagged with after data
	// allocation ("each memory operation is tagged with the bank that
	// stores the data it is accessing", §3.1). For a load from a
	// duplicated symbol this stays BankBoth, leaving the scheduler free
	// to use either memory unit.
	Bank machine.Bank

	// DupPair links the two stores produced by expanding a store to a
	// duplicated symbol; used by the store-lock/store-unlock interrupt
	// mode and by statistics.
	DupPair *Op

	// Atomic marks the two halves of a duplicated-store pair that must
	// issue in the same long instruction, the store-lock/store-unlock
	// interrupt-safety discipline of §3.2.
	Atomic bool
}

// Uses returns the registers the operation reads, appended to dst.
func (o *Op) Uses(dst []Reg) []Reg {
	for _, a := range o.Args {
		if a != NoReg {
			dst = append(dst, a)
		}
	}
	if o.Idx != NoReg {
		dst = append(dst, o.Idx)
	}
	// Multiply-accumulate reads its accumulator.
	if o.Kind == OpMac || o.Kind == OpFMac {
		dst = append(dst, o.Dst)
	}
	dst = append(dst, o.CallArgs...)
	return dst
}

// IsMem reports whether the op accesses data memory.
func (o *Op) IsMem() bool { return o.Kind == OpLoad || o.Kind == OpStore }

func (o *Op) String() string {
	var b strings.Builder
	if o.Dst != NoReg {
		fmt.Fprintf(&b, "%s = ", o.Dst)
	}
	b.WriteString(o.Kind.String())
	switch o.Kind {
	case OpConst:
		fmt.Fprintf(&b, " %d", o.Imm)
	case OpFConst:
		fmt.Fprintf(&b, " %g", o.FImm)
	case OpLoad:
		fmt.Fprintf(&b, " %s", o.Sym)
		if o.Idx != NoReg {
			fmt.Fprintf(&b, "[%s]", o.Idx)
		}
		if o.Bank != machine.BankNone {
			fmt.Fprintf(&b, " !%s", o.Bank)
		}
	case OpStore:
		fmt.Fprintf(&b, " %s", o.Sym)
		if o.Idx != NoReg {
			fmt.Fprintf(&b, "[%s]", o.Idx)
		}
		fmt.Fprintf(&b, ", %s", o.Args[0])
		if o.Bank != machine.BankNone {
			fmt.Fprintf(&b, " !%s", o.Bank)
		}
	case OpCall:
		fmt.Fprintf(&b, " %s(", o.Callee)
		for i, a := range o.CallArgs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	default:
		sep := " "
		for _, a := range o.Args {
			if a != NoReg {
				b.WriteString(sep)
				b.WriteString(a.String())
				sep = ", "
			}
		}
	}
	return b.String()
}
