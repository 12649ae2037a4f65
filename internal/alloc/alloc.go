// Package alloc implements the data allocation pass of the paper's
// back-end (§3). It runs after register allocation and before the
// operation-compaction pass, and decides where every variable and array
// lives:
//
//   - Under CB partitioning it builds the interference graph, runs the
//     greedy min-cost bipartition, and assigns each symbol to bank X or
//     bank Y. Callee-save slots are assigned to alternating banks
//     mechanically, outside the graph, exactly as §3.1 prescribes.
//   - Under partial duplication it additionally replicates every array
//     the graph marked for duplication into both banks and inserts the
//     coherence store that keeps the second copy current after each
//     store to the first.
//   - Full duplication replicates everything; the single-bank baseline
//     and the Ideal dual-ported configuration disable partitioning.
//
// Finally the pass assigns word addresses. Duplicated symbols are laid
// out first, at equal addresses in both banks, so one address (or one
// frame offset) reaches either copy (§3.2); bank-private globals and
// the static stack frames follow. Every memory operation is then
// tagged with the bank holding its data, the information the
// compaction pass uses to pick memory units.
package alloc

import (
	"fmt"

	"dualbank/internal/core"
	_ "dualbank/internal/exact" // registers the MethodExact backend
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Mode selects the data-allocation strategy; these are the experiment
// arms of Figures 7–8 and Table 3.
type Mode int8

const (
	// SingleBank disables the allocation pass: all data in bank X.
	// This is the paper's unoptimized reference.
	SingleBank Mode = iota
	// CB is compaction-based partitioning with static (loop-depth)
	// edge weights.
	CB
	// CBProfiled is CB with profile-derived edge weights (Pr).
	CBProfiled
	// CBDup is CB plus partial data duplication (Dup).
	CBDup
	// FullDup duplicates every variable and array in both banks.
	FullDup
	// Ideal models dual-ported memory cells: placement is irrelevant
	// because either memory unit reaches either bank.
	Ideal
	// LowOrder models the alternative memory organisation the paper
	// argues against: consecutive addresses interleave across the
	// banks, the compiler issues accesses pairwise and the hardware
	// stalls a cycle on a run-time bank conflict. Used by the
	// organisation-comparison study.
	LowOrder
)

var modeNames = map[Mode]string{
	SingleBank: "single-bank", CB: "CB", CBProfiled: "Pr",
	CBDup: "Dup", FullDup: "full-dup", Ideal: "Ideal",
	LowOrder: "low-order",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int8(m))
}

// MarshalText renders the mode by name, so JSON maps keyed by Mode use
// "CB", "Dup", ... rather than raw integers.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name produced by MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	for mode, name := range modeNames {
		if name == string(text) {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("alloc: unknown mode %q", text)
}

// Partitioned reports whether the mode runs the CB partitioner.
func (m Mode) Partitioned() bool { return m == CB || m == CBProfiled || m == CBDup }

// Options configures the pass.
type Options struct {
	Mode Mode
	// InterruptSafe brackets each duplicated-store pair so both copies
	// commit in one instruction (the store-lock/store-unlock discipline
	// discussed in §3.2). Off by default, as in the paper's evaluation.
	InterruptSafe bool
	// DupFilter, when non-nil, selects exactly which partitioned
	// arrays CBDup mode duplicates: every array node the filter
	// accepts is replicated, whether or not the interference analysis
	// marked it. When nil, duplication follows the paper's policy and
	// replicates the marked arrays only. The selective-duplication
	// refinement of §5 and the design-space explorer both drive this.
	DupFilter func(*ir.Symbol) bool
	// Method selects the graph-partitioning algorithm (greedy by
	// default; Kernighan-Lin refinement, simulated annealing, and the
	// gain-bucket FM partitioner are available for the
	// algorithm-comparison study).
	Method core.Method
	// FMPasses bounds the FM partitioner's refinement passes: 0 means
	// the library default, negative stops after the greedy-equivalent
	// first phase. Ignored unless Method is core.MethodFM.
	FMPasses int
	// Profiled forces profile-derived interference-edge weights for
	// any partitioned mode, decoupling the weighting policy from the
	// CBProfiled mode so the explorer can combine profiling with
	// duplication. The caller must have run a profiling pass first
	// (the pipeline does when asked).
	Profiled bool
	// Scanner, when non-nil, supplies reusable scratch storage for
	// interference-graph construction, so pipelines that allocate many
	// programs back to back avoid rebuilding it each time.
	Scanner *core.Scanner
	// Spec is the bank/port geometry. The zero value is the classic
	// 2-bank, 1-port machine, which takes the historical allocation
	// path bit for bit; other specs run the k-way generalization.
	// Non-default specs support the placement-steered modes only
	// (SingleBank, CB, CBProfiled, CBDup, FullDup) — Ideal and
	// LowOrder are defined on the paper's 2-bank machine.
	Spec machine.BankSpec
	// BankPerm relabels the spec's banks by a permutation: a symbol
	// the pass would place in bank b lands in bank BankPerm[b],
	// including the save-slot rotation and the coherence-store order.
	// Nil means identity; on the classic machine {1, 0} mirrors the
	// whole X/Y assignment. The banks are architecturally identical,
	// so a permuted allocation schedules and simulates to the same
	// cycle count — the metamorphic invariance the test suites and the
	// corpus gauntlet assert. Modes that do not steer banks (LowOrder,
	// FullDup, Ideal ports) are unaffected.
	BankPerm []int
}

// Result describes the allocation for reporting and the cost model.
type Result struct {
	Mode  Mode
	Graph *core.Graph     // nil unless the mode partitions
	Part  *core.Partition // nil unless the mode partitions (2-bank runs)
	// PartK is the k-way partition for non-default specs (nil on the
	// default machine, where Part carries the bipartition).
	PartK *core.KPartition

	Duplicated []*ir.Symbol
	DupStores  int // coherence stores inserted

	// Word accounting for the cost model: the shared duplicated region
	// (present in all banks), per-bank globals, and per-bank static
	// stack (locals, parameter slots, spills, save slots).
	DupWords         int
	GlobalX, GlobalY int
	StackX, StackY   int
	// GlobalBank and StackBank are the per-bank accounts for banks
	// beyond the classic pair; nil on the default machine. When set,
	// their first two entries equal GlobalX/GlobalY and StackX/StackY.
	GlobalBank []int
	StackBank  []int

	Ports machine.PortModel
	// Spec echoes the bank/port geometry the allocation ran under.
	Spec machine.BankSpec
}

// Run performs data allocation on p according to opts. It mutates
// symbol bank/address assignments and memory-op tags, and inserts
// coherence stores for duplicated data.
func Run(p *ir.Program, opts Options) (*Result, error) {
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if !opts.Spec.IsDefault() {
		return runK(p, opts)
	}
	// Default 2-bank machine: the permutation is the identity or the
	// X/Y swap, and the historical path runs bit for bit on the
	// (possibly swapped) bank pair.
	bankX, bankY := machine.BankX, machine.BankY
	if perm := opts.BankPerm; perm != nil {
		if len(perm) != 2 || perm[0] == perm[1] || perm[0] < 0 || perm[0] > 1 {
			return nil, fmt.Errorf("alloc: bank permutation %v invalid for 2 banks", perm)
		}
		if perm[0] == 1 {
			bankX, bankY = bankY, bankX
		}
	}
	res := &Result{Mode: opts.Mode, Ports: machine.PortsBanked, Spec: opts.Spec}

	switch opts.Mode {
	case SingleBank:
		for _, s := range p.Symbols() {
			s.Bank = bankX
			s.Duplicated = false
		}
	case Ideal:
		res.Ports = machine.PortsDualPorted
		for _, s := range p.Symbols() {
			s.Bank = bankX
			s.Duplicated = false
		}
	case LowOrder:
		res.Ports = machine.PortsLowOrder
		// Placement cannot steer banks: the bank is the address parity.
		// Symbols are laid out flat; memory operations stay untagged
		// and the scheduler pairs them freely, betting on the hardware.
		for _, s := range p.Symbols() {
			s.Bank = machine.BankNone
			s.Duplicated = false
		}
	case FullDup:
		for _, s := range p.Symbols() {
			s.Bank = machine.BankBoth
			s.Duplicated = true
		}
	case CB, CBProfiled, CBDup:
		policy := core.WeightStatic
		if opts.Mode == CBProfiled || opts.Profiled {
			policy = core.WeightProfiled
		}
		sc := opts.Scanner
		if sc == nil {
			sc = new(core.Scanner)
		}
		g := sc.BuildGraph(p, policy)
		fmPasses := -1
		if opts.FMPasses > 0 {
			fmPasses = opts.FMPasses
		} else if opts.FMPasses < 0 {
			fmPasses = 0
		}
		part := g.PartitionWithPasses(opts.Method, fmPasses)
		res.Graph, res.Part = g, part
		for _, s := range part.SetX {
			s.Bank = bankX
			s.Duplicated = false
		}
		for _, s := range part.SetY {
			s.Bank = bankY
			s.Duplicated = false
		}
		if opts.Mode == CBDup {
			// Partial duplication. With no filter, replicate the arrays
			// flagged while building the graph — those with simultaneous
			// data-ready accesses that no partition can separate
			// (Figure 6). With a filter, the caller names the exact
			// duplication set: any partitioned array it accepts is
			// replicated, marked or not, which is how the explorer
			// searches duplication subsets beyond the paper's policy.
			for _, s := range g.Nodes {
				if !s.IsArray() {
					continue
				}
				if opts.DupFilter != nil {
					if !opts.DupFilter(s) {
						continue
					}
				} else if !g.DupMarks[s] {
					continue
				}
				s.Bank = machine.BankBoth
				s.Duplicated = true
			}
		}
		// Save/restore slots are partitioned mechanically: successive
		// slots of each function alternate between the banks.
		for _, f := range p.Funcs {
			next := bankX
			for _, s := range f.Locals {
				if !s.Save {
					continue
				}
				s.Bank = next
				s.Duplicated = false
				next = next.Other()
			}
		}
	default:
		return nil, fmt.Errorf("alloc: unknown mode %v", opts.Mode)
	}

	insertCoherenceStores(p, opts, res, bankX, bankY)
	tagMemOps(p)
	if err := layout(p, res); err != nil {
		return nil, err
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return res, nil
}

// insertCoherenceStores doubles every store to a duplicated symbol:
// the original targets bankX's copy and a clone, inserted immediately
// after it, targets bankY's (X then Y, swapped under BankPerm {1, 0}).
// The two stores carry different bank tags, so the dependence graph
// lets them issue in the same long instruction when both memory units
// are free.
func insertCoherenceStores(p *ir.Program, opts Options, res *Result, bankX, bankY machine.Bank) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []*ir.Op
			for _, op := range b.Ops {
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					op.Bank = bankX
					clone := &ir.Op{
						Kind: ir.OpStore,
						Args: op.Args,
						Idx:  op.Idx,
						Sym:  op.Sym,
						Bank: bankY,
					}
					op.DupPair, clone.DupPair = clone, op
					if opts.InterruptSafe {
						op.Atomic, clone.Atomic = true, true
					}
					out = append(out, op, clone)
					res.DupStores++
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

// tagMemOps stamps every remaining memory operation with its symbol's
// bank. Loads from duplicated symbols stay BankBoth: the scheduler may
// satisfy them from either copy.
func tagMemOps(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if !op.IsMem() {
					continue
				}
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					continue // already tagged by the expansion
				}
				op.Bank = op.Sym.Bank
			}
		}
	}
}

// layout assigns word addresses: first the duplicated region (equal
// addresses in both banks), then each bank's globals, then the static
// stack frames.
func layout(p *ir.Program, res *Result) error {
	cursorDup := 0
	for _, s := range p.Symbols() {
		if s.Duplicated {
			s.Addr = cursorDup
			cursorDup += s.Size
		}
	}
	res.DupWords = cursorDup

	x, y := cursorDup, cursorDup
	place := func(s *ir.Symbol) {
		switch s.Bank {
		case machine.BankY:
			s.Addr = y
			y += s.Size
		default:
			s.Addr = x
			x += s.Size
		}
	}
	for _, s := range p.Globals {
		if !s.Duplicated {
			place(s)
		}
	}
	res.GlobalX, res.GlobalY = x-cursorDup, y-cursorDup

	gx, gy := x, y
	for _, f := range p.Funcs {
		fx, fy := 0, 0
		for _, s := range f.Locals {
			if s.Duplicated {
				continue
			}
			if s.Bank == machine.BankY {
				fy += s.Size
			} else {
				fx += s.Size
			}
		}
		f.FrameWordsX, f.FrameWordsY = fx, fy
		for _, s := range f.Locals {
			if !s.Duplicated {
				place(s)
			}
		}
	}
	res.StackX, res.StackY = x-gx, y-gy

	if x > machine.BankWords || y > machine.BankWords {
		return fmt.Errorf("alloc: data exceeds bank capacity (X=%d Y=%d words, capacity %d)",
			x, y, machine.BankWords)
	}
	return nil
}
