// Package asm renders scheduled VLIW programs as readable assembly,
// one long instruction per line with its operations grouped by
// functional unit — the moral equivalent of the two-column
// DSP56001-style listing in Figure 1(b) of the paper.
package asm

import (
	"fmt"
	"strings"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Print renders the whole program.
func Print(p *compact.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %s  (ports: %s, %d long instructions)\n",
		p.Src.Name, p.Ports, p.StaticInstrs())
	for _, g := range p.Src.Globals {
		fmt.Fprintf(&sb, "; %-6s %-16s bank=%-2s addr=%-5d size=%d\n",
			g.Elem, g.Name, g.Bank, g.Addr, g.Size)
	}
	for _, f := range p.Src.Funcs {
		sb.WriteString(PrintFunc(p, f.Name))
	}
	return sb.String()
}

// PrintFunc renders one function.
func PrintFunc(p *compact.Program, name string) string {
	sf := p.Funcs[name]
	if sf == nil {
		return fmt.Sprintf("; no function %q\n", name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%s:\n", name)
	for _, b := range sf.Blocks {
		fmt.Fprintf(&sb, ".%s_b%d:", name, b.Src.ID)
		if b.Src.LoopDepth > 0 {
			fmt.Fprintf(&sb, "\t\t; loop depth %d", b.Src.LoopDepth)
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			sb.WriteString("    ")
			first := true
			for u := 0; u < machine.MaxUnits; u++ {
				op := in.Slots[u]
				if op == nil {
					continue
				}
				if !first {
					sb.WriteString(" || ")
				}
				first = false
				fmt.Fprintf(&sb, "%s: %s", machine.Unit(u), formatOp(op, b.Src))
			}
			if first {
				sb.WriteString("nop")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func formatOp(op *ir.Op, b *ir.Block) string {
	switch op.Kind {
	case ir.OpBr:
		return fmt.Sprintf("br b%d", b.Succs[0].ID)
	case ir.OpCondBr:
		return fmt.Sprintf("br.nz %s, b%d, b%d", op.Args[0], b.Succs[0].ID, b.Succs[1].ID)
	case ir.OpDo:
		return fmt.Sprintf("do %s, b%d", op.Args[0], b.Succs[0].ID)
	case ir.OpEndDo:
		return fmt.Sprintf("enddo b%d, b%d", b.Succs[0].ID, b.Succs[1].ID)
	case ir.OpLoad:
		return fmt.Sprintf("%s = %s:%s", op.Dst, op.Bank, addrOf(op))
	case ir.OpStore:
		return fmt.Sprintf("%s:%s = %s", op.Bank, addrOf(op), op.Args[0])
	default:
		return op.String()
	}
}

func addrOf(op *ir.Op) string {
	if op.Idx != ir.NoReg {
		return fmt.Sprintf("%s[%s]", op.Sym, op.Idx)
	}
	return op.Sym.String()
}
