package alloc

import (
	"fmt"

	"dualbank/internal/core"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// This file is the k-way generalization of the allocation pass for
// non-default machine.BankSpec geometries: the same pipeline — assign
// banks, expand duplicated stores, tag memory operations, lay out
// addresses — over k banks instead of two. The default 2-bank spec
// never reaches this code (NewPlan and Apply branch before it), so the
// historical allocation stays bit for bit intact.

// planK decides the allocation for a non-default bank spec.
func planK(p *ir.Program, g *core.Graph, opts Options) (*Plan, error) {
	spec := opts.Spec.Norm()
	k := spec.Banks
	perm := kPerm(opts.BankPerm, k)
	if err := checkPerm(perm, k); err != nil {
		return nil, err
	}
	bankAt := func(b int) machine.Bank { return machine.BankAt(perm[b]) }

	pl := newPlan(p, opts)
	switch opts.Mode {
	case SingleBank:
		pl.fill(bankAt(0))
	case Ideal, LowOrder:
		// Both modes are defined against the paper's fixed 2-bank
		// machine: Ideal is its dual-ported upper bound, LowOrder its
		// address-interleaved rival. Multi-port upper bounds on wider
		// machines are expressed as PortsPerBank > 1 instead.
		return nil, fmt.Errorf("alloc: mode %v requires the default 2-bank machine (spec %s)",
			opts.Mode, spec)
	case FullDup:
		pl.fill(machine.BankBoth)
	case CB, CBProfiled, CBDup:
		part := g.PartitionK(k, opts.Method, opts.fmPasses())
		pl.Graph, pl.PartK = g, part
		for b, set := range part.Sets {
			for _, s := range set {
				pl.Banks[g.NodeIndex(s)] = bankAt(b)
			}
		}
		pl.duplicate(g, opts)
		// Save/restore slots rotate through the banks mechanically, in
		// permutation order — the k-ary form of §3.1's alternation.
		rot := make([]machine.Bank, k)
		for b := range rot {
			rot[b] = bankAt(b)
		}
		pl.rotateSaves(p, rot)
	default:
		return nil, fmt.Errorf("alloc: unknown mode %v", opts.Mode)
	}
	if opts.InterruptSafe && k > 2 {
		// The store-lock discipline is a pairwise instruction-bundling
		// contract; an atomic k-way bundle is not modeled.
		return nil, fmt.Errorf("alloc: interrupt-safe duplication requires the 2-bank machine (%d banks)", k)
	}
	return pl, nil
}

// kPerm returns perm, or the identity on k banks when perm is nil.
func kPerm(perm []int, k int) []int {
	if perm != nil {
		return perm
	}
	perm = make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// checkPerm validates a bank permutation for k banks.
func checkPerm(perm []int, k int) error {
	if len(perm) != k {
		return fmt.Errorf("alloc: bank permutation %v has %d entries, want %d", perm, len(perm), k)
	}
	seen := make([]bool, k)
	for _, b := range perm {
		if b < 0 || b >= k || seen[b] {
			return fmt.Errorf("alloc: bank permutation %v is not a permutation of 0..%d", perm, k-1)
		}
		seen[b] = true
	}
	return nil
}

// insertCoherenceStoresK expands every store to a duplicated symbol
// into k stores: the original targets the permutation's first bank and
// k-1 clones, inserted immediately after it, target the remaining
// banks in permutation order. Each carries a distinct single-bank tag,
// so the dependence graph lets all k issue in one long instruction
// when enough memory units are free.
func insertCoherenceStoresK(p *ir.Program, interruptSafe bool, res *Result, perm []int) {
	k := len(perm)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []*ir.Op
			for _, op := range b.Ops {
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					op.Bank = machine.BankAt(perm[0])
					out = append(out, op)
					for c := 1; c < k; c++ {
						clone := &ir.Op{
							Kind: ir.OpStore,
							Args: op.Args,
							Idx:  op.Idx,
							Sym:  op.Sym,
							Bank: machine.BankAt(perm[c]),
						}
						if c == 1 {
							op.DupPair, clone.DupPair = clone, op
							if interruptSafe {
								op.Atomic, clone.Atomic = true, true
							}
						}
						out = append(out, clone)
						res.DupStores++
					}
					continue
				}
				out = append(out, op)
			}
			b.Ops = out
		}
	}
	for _, s := range p.Symbols() {
		if s.Duplicated {
			res.Duplicated = append(res.Duplicated, s)
		}
	}
}

// layoutK assigns word addresses over k banks: first the duplicated
// region (equal addresses in every bank), then each bank's globals,
// then the static stack frames, with one cursor per bank.
func layoutK(p *ir.Program, res *Result, k int) error {
	cursorDup := 0
	for _, s := range p.Symbols() {
		if s.Duplicated {
			s.Addr = cursorDup
			cursorDup += s.Size
		}
	}
	res.DupWords = cursorDup

	cur := make([]int, k)
	for b := range cur {
		cur[b] = cursorDup
	}
	bankOf := func(s *ir.Symbol) int {
		if i := s.Bank.Index(); i >= 0 && i < k {
			return i
		}
		return 0 // unassigned data lives in bank 0 (baseline layout)
	}
	place := func(s *ir.Symbol) {
		b := bankOf(s)
		s.Addr = cur[b]
		cur[b] += s.Size
	}
	for _, s := range p.Globals {
		if !s.Duplicated {
			place(s)
		}
	}
	res.GlobalBank = make([]int, k)
	for b := range cur {
		res.GlobalBank[b] = cur[b] - cursorDup
	}

	afterGlobals := append([]int(nil), cur...)
	for _, f := range p.Funcs {
		fx, fy := 0, 0
		for _, s := range f.Locals {
			if s.Duplicated {
				continue
			}
			switch bankOf(s) {
			case 0:
				fx += s.Size
			case 1:
				fy += s.Size
			}
		}
		f.FrameWordsX, f.FrameWordsY = fx, fy
		for _, s := range f.Locals {
			if !s.Duplicated {
				place(s)
			}
		}
	}
	res.StackBank = make([]int, k)
	for b := range cur {
		res.StackBank[b] = cur[b] - afterGlobals[b]
	}
	res.GlobalX, res.GlobalY = res.GlobalBank[0], res.GlobalBank[1]
	res.StackX, res.StackY = res.StackBank[0], res.StackBank[1]

	for b, c := range cur {
		if c > machine.BankWords {
			return fmt.Errorf("alloc: data exceeds bank %d capacity (%d words, capacity %d)",
				b, c, machine.BankWords)
		}
	}
	return nil
}
