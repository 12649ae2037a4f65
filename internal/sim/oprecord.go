package sim

import (
	"fmt"
	"math"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
)

// This file holds the dense operation records the compiled engine's
// staged (two-phase) instruction path evaluates: one flat record per
// data operation, with registers as physical-file indices and the
// memory bank resolved at lowering time wherever the port model makes
// it static. The evaluators read an explicit register file, so a
// staged instruction can evaluate every operation against the
// pre-commit registers exactly like the reference Machine.

// pOp is one flattened non-control operation. Register fields are
// physical-file indices into the machine's Regs; for memory operations
// base/size describe the accessed symbol and bank carries the
// statically resolved bank index (meaningless under the low-order port
// model, where the address low bits decide at run time).
type pOp struct {
	kind ir.OpKind
	bank uint8
	dst  uint8
	a0   uint8
	a1   uint8
	idx  uint8 // index register, 0 = direct access
	imm  uint32
	base int32
	size int32
}

// bankIndexOf maps a single-bank tag to its bank index; unassigned
// data lives in bank 0 (the baseline single-bank layout).
func bankIndexOf(b machine.Bank, nbanks int) int {
	if i := b.Index(); i >= 0 && i < nbanks {
		return i
	}
	return 0
}

// predecodeOp flattens one data operation, resolving the memory bank
// where the port model makes it static: under the banked model the
// executing unit determines the bank, under the dual-ported model the
// operation's own tag does.
func predecodeOp(op *ir.Op, u machine.Unit, ports machine.PortModel, bankOf *[machine.MaxUnits]uint8, nbanks int) pOp {
	po := pOp{
		kind: op.Kind,
		dst:  uint8(op.Dst),
		a0:   uint8(op.Args[0]),
		a1:   uint8(op.Args[1]),
	}
	switch op.Kind {
	case ir.OpConst:
		po.imm = uint32(int32(op.Imm))
	case ir.OpFConst:
		po.imm = math.Float32bits(float32(op.FImm))
	case ir.OpLoad, ir.OpStore:
		if op.Idx != ir.NoReg {
			po.idx = uint8(op.Idx)
		}
		po.base = int32(op.Sym.Addr)
		po.size = int32(op.Sym.Size)
		switch ports {
		case machine.PortsBanked:
			po.bank = bankOf[u]
		case machine.PortsDualPorted:
			po.bank = uint8(bankIndexOf(op.Bank, nbanks))
		}
	}
	return po
}

// resolvePOp computes the in-bank word address and bank index of a
// memory access against register file r. The bank is resolved at
// lowering time except under the low-order model, which is defined on
// the classic 2-bank machine (wider specs reject it at allocation), so
// its address split is the parity.
func resolvePOp(r *[256]uint32, op *pOp, lowOrder bool) (int32, uint8, error) {
	idx := int32(0)
	if op.idx != 0 {
		idx = int32(r[op.idx])
	}
	if idx < 0 || idx >= op.size {
		return 0, 0, fmt.Errorf("index %d out of range (size %d)", idx, op.size)
	}
	addr := op.base + idx
	if lowOrder {
		return addr >> 1, uint8(addr & 1), nil
	}
	return addr, op.bank, nil
}

// evalPOp computes a scalar operation's result from register file r;
// semantics match Machine.evalALU exactly.
func evalPOp(r *[256]uint32, op *pOp) (uint32, error) {
	iv := func(i uint8) int32 { return int32(r[i]) }
	fv := func(i uint8) float32 { return math.Float32frombits(r[i]) }
	fb := math.Float32bits

	switch op.kind {
	case ir.OpConst, ir.OpFConst:
		return op.imm, nil
	case ir.OpMov:
		return r[op.a0], nil
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT,
		ir.OpSetLE, ir.OpSetGT, ir.OpSetGE:
		return uint32(opt.EvalIntBin(op.kind, iv(op.a0), iv(op.a1))), nil
	case ir.OpDiv, ir.OpRem:
		if iv(op.a1) == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return uint32(opt.EvalIntBin(op.kind, iv(op.a0), iv(op.a1))), nil
	case ir.OpNeg:
		return uint32(-iv(op.a0)), nil
	case ir.OpNot:
		return uint32(^iv(op.a0)), nil
	case ir.OpMac:
		return uint32(iv(op.dst) + iv(op.a0)*iv(op.a1)), nil
	case ir.OpFAdd:
		return fb(fv(op.a0) + fv(op.a1)), nil
	case ir.OpFSub:
		return fb(fv(op.a0) - fv(op.a1)), nil
	case ir.OpFMul:
		return fb(fv(op.a0) * fv(op.a1)), nil
	case ir.OpFDiv:
		return fb(fv(op.a0) / fv(op.a1)), nil
	case ir.OpFNeg:
		return fb(-fv(op.a0)), nil
	case ir.OpFMac:
		return fb(fv(op.dst) + fv(op.a0)*fv(op.a1)), nil
	case ir.OpFSetEQ:
		return uint32(b2i(fv(op.a0) == fv(op.a1))), nil
	case ir.OpFSetNE:
		return uint32(b2i(fv(op.a0) != fv(op.a1))), nil
	case ir.OpFSetLT:
		return uint32(b2i(fv(op.a0) < fv(op.a1))), nil
	case ir.OpFSetLE:
		return uint32(b2i(fv(op.a0) <= fv(op.a1))), nil
	case ir.OpFSetGT:
		return uint32(b2i(fv(op.a0) > fv(op.a1))), nil
	case ir.OpFSetGE:
		return uint32(b2i(fv(op.a0) >= fv(op.a1))), nil
	case ir.OpIntToFloat:
		return fb(float32(iv(op.a0))), nil
	case ir.OpFloatToInt:
		return uint32(ir.FloatToInt(fv(op.a0))), nil
	}
	return 0, fmt.Errorf("sim: cannot execute %s", op.kind)
}
