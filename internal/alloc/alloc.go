// Package alloc implements the data allocation pass of the paper's
// back-end (§3). It runs after register allocation and before the
// operation-compaction pass, and decides where every variable and array
// lives:
//
//   - Under CB partitioning it builds the interference graph, runs the
//     greedy min-cost partition, and assigns each symbol to one bank —
//     X or Y on the paper's machine, one of k on a wider BankSpec.
//     Callee-save slots rotate through the banks mechanically, outside
//     the graph, exactly as §3.1 prescribes.
//   - Under partial duplication it additionally replicates every array
//     the graph marked for duplication into every bank and inserts the
//     coherence stores that keep the other copies current after each
//     store to the first.
//   - Full duplication replicates everything; the single-bank baseline
//     and the Ideal dual-ported configuration disable partitioning.
//
// Finally the pass assigns word addresses. Duplicated symbols are laid
// out first, at equal addresses in every bank, so one address (or one
// frame offset) reaches any copy (§3.2); bank-private globals and the
// static stack frames follow. Every memory operation is then tagged
// with the bank holding its data, the information the compaction pass
// uses to pick memory units. One code path serves every geometry; the
// paper's 2×1 machine is its k = 2 case.
//
// The pass runs in two steps. NewPlan decides each symbol's bank: it
// reads the program and its interference graph and writes neither, so
// one program and graph can be planned from many goroutines. Apply
// carries a plan out on a program — the planned one or any clone of
// it — inserting the coherence stores, tagging the memory operations
// and laying out the banks. Run does both on one program.
package alloc

import (
	"fmt"
	"slices"
	"strings"

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

// shortNames are the command-line tools' short mode names.
var shortNames = map[string]Mode{
	"single": SingleBank, "cb": CB, "pr": CBProfiled, "dup": CBDup,
	"fulldup": FullDup, "ideal": Ideal, "loworder": LowOrder,
}

// ParseMode resolves a mode name: first the canonical names the modes
// themselves print, then the short names, in any case.
func ParseMode(s string) (Mode, error) {
	var m Mode
	if err := m.UnmarshalText([]byte(s)); err == nil {
		return m, nil
	}
	if m, ok := shortNames[strings.ToLower(s)]; ok {
		return m, nil
	}
	names := make([]string, 0, len(modeNames))
	for m := SingleBank; m <= LowOrder; m++ {
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("unknown mode %q (want one of %s or dspcc short forms)", s, strings.Join(names, ", "))
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
	// Run's interference-graph construction, so pipelines that allocate
	// many programs back to back avoid rebuilding it each time. NewPlan
	// takes its graph ready-made and ignores it.
	Scanner *core.Scanner
	// Spec is the bank/port geometry; the zero value is the paper's
	// 2-bank, 1-port machine. Every spec runs the same pass. Ideal and
	// LowOrder are port models of the paper's machine and require it;
	// the placement-steered modes (SingleBank, CB, CBProfiled, CBDup,
	// FullDup) run on any spec.
	Spec machine.BankSpec
	// BankPerm relabels the spec's banks by a permutation: a symbol
	// the pass would place in bank b lands in bank BankPerm[b],
	// including the save-slot rotation and the coherence-store order.
	// Nil means identity; on the paper's machine {1, 0} mirrors the
	// whole X/Y assignment. The banks are architecturally identical,
	// so a permuted allocation schedules and simulates to the same
	// cycle count — the metamorphic invariance the test suites and the
	// corpus gauntlet assert. Modes that do not steer banks (LowOrder,
	// FullDup, Ideal ports) are unaffected.
	BankPerm []int
}

// Result describes the allocation for reporting and the cost model.
// Graph and Part come from the applied Plan: they name the planned
// program's symbols, which are the allocated program's own only when
// the plan was applied in place, and are shared read-only.
type Result struct {
	Mode  Mode
	Graph *core.Graph      // nil unless the mode partitions
	Part  *core.KPartition // nil unless the mode partitions

	Duplicated []*ir.Symbol
	DupStores  int // coherence stores inserted

	// Word accounting for the cost model: the shared duplicated region
	// (present in every bank), and each bank's globals and static stack
	// (locals, parameter slots, spills, save slots), indexed by bank.
	DupWords int
	Global   []int
	Stack    []int

	Ports machine.PortModel
	// Spec echoes the bank/port geometry the allocation ran under.
	Spec machine.BankSpec
}

// Policy returns the interference-graph weight policy the options
// partition under, and false when the mode does not partition.
func (o Options) Policy() (core.WeightPolicy, bool) {
	switch {
	case !o.Mode.Partitioned():
		return 0, false
	case o.Mode == CBProfiled || o.Profiled:
		return core.WeightProfiled, true
	}
	return core.WeightStatic, true
}

// fmPasses maps Options.FMPasses onto core's pass-bound convention.
func (o Options) fmPasses() int {
	switch {
	case o.FMPasses > 0:
		return o.FMPasses
	case o.FMPasses < 0:
		return 0
	}
	return -1
}

// Plan is the allocation decision for one program: every symbol's
// bank, and how Apply carries the decision out. A Plan is a value over
// the program's symbol indexes, not its symbols, so it applies to any
// clone of the planned program. It is never modified after NewPlan
// returns.
type Plan struct {
	Mode  Mode
	Ports machine.PortModel
	Spec  machine.BankSpec
	// BankPerm is the validated bank permutation; nil is the identity.
	BankPerm      []int
	InterruptSafe bool
	// Banks holds each symbol's bank, indexed like the program's
	// Symbols(). BankBoth marks a duplicated symbol.
	Banks []machine.Bank

	// Graph and Part are the analysis behind the decision, for reports;
	// nil unless the mode partitions. They name the planned program's
	// symbols and are shared by every application of the plan.
	Graph *core.Graph
	Part  *core.KPartition
}

// Key returns the plan's decision as a compact string. Plans with
// equal keys make the same program out of clones of one planned
// program, and compaction schedules it alike: the key holds the
// geometry, port model, permutation (identity as nil), interrupt-safe
// flag and every symbol's bank. The mode and the analysis are left
// out, so modes that reach one decision share a key.
func (pl *Plan) Key() string {
	spec := pl.Spec.Norm()
	perm := pl.BankPerm
	if isIdentity(perm) {
		perm = nil
	}
	safe := byte(0)
	if pl.InterruptSafe {
		safe = 1
	}
	buf := make([]byte, 0, 6+len(perm)+len(spec.UnitBinding)+len(pl.Banks))
	buf = append(buf, byte(spec.Banks), byte(spec.PortsPerBank), byte(pl.Ports), safe, byte(len(perm)))
	for _, b := range perm {
		buf = append(buf, byte(b))
	}
	buf = append(buf, byte(len(spec.UnitBinding)))
	for _, b := range spec.UnitBinding {
		buf = append(buf, byte(b))
	}
	for _, b := range pl.Banks {
		buf = append(buf, byte(b))
	}
	return string(buf)
}

// isIdentity reports whether perm maps every bank to itself.
func isIdentity(perm []int) bool {
	for i, b := range perm {
		if b != i {
			return false
		}
	}
	return true
}

// NewPlan decides the allocation of p under opts. g is p's
// interference graph under opts.Policy(), built by the caller; modes
// that do not partition ignore it, and may pass nil. NewPlan reads p
// and g and writes neither, so concurrent calls may share both once
// g's CSR view is built.
func NewPlan(p *ir.Program, g *core.Graph, opts Options) (*Plan, error) {
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if _, ok := opts.Policy(); ok && (g == nil || len(g.Nodes) != numSymbols(p)) {
		return nil, fmt.Errorf("alloc: mode %v needs the program's interference graph", opts.Mode)
	}
	k := opts.Spec.Norm().Banks
	if err := checkPerm(opts.BankPerm, k); err != nil {
		return nil, err
	}
	if (opts.Mode == Ideal || opts.Mode == LowOrder) && !opts.Spec.IsDefault() {
		// Both modes are port models of the paper's 2-bank machine:
		// Ideal is its dual-ported upper bound, LowOrder its
		// address-interleaved rival. Multi-port upper bounds on wider
		// machines are expressed as PortsPerBank > 1 instead.
		return nil, fmt.Errorf("alloc: mode %v requires the default 2-bank machine (spec %s)",
			opts.Mode, opts.Spec)
	}
	pl := newPlan(p, opts)
	switch opts.Mode {
	case SingleBank:
		pl.fill(pl.bankAt(0))
	case Ideal:
		pl.Ports = machine.PortsDualPorted
		pl.fill(pl.bankAt(0))
	case LowOrder:
		// Placement cannot steer banks: the bank is the address parity.
		// Symbols are laid out flat; memory operations stay untagged
		// and the scheduler pairs them freely, betting on the hardware.
		pl.Ports = machine.PortsLowOrder
		pl.fill(machine.BankNone)
	case FullDup:
		pl.fill(machine.BankBoth)
	case CB, CBProfiled, CBDup:
		part := g.PartitionK(k, opts.Method, opts.fmPasses())
		pl.Graph, pl.Part = g, part
		for b, set := range part.Sets {
			for _, s := range set {
				pl.Banks[g.NodeIndex(s)] = pl.bankAt(b)
			}
		}
		pl.duplicate(g, opts)
		// Save/restore slots are partitioned mechanically: successive
		// slots of each function rotate through the banks in
		// permutation order (§3.1's alternation on two banks).
		pl.rotateSaves(p, k)
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

// checkPerm validates a bank permutation for k banks; nil is the
// identity.
func checkPerm(perm []int, k int) error {
	if perm == nil {
		return nil
	}
	if len(perm) != k {
		return fmt.Errorf("alloc: bank permutation %v has %d entries, want %d", perm, len(perm), k)
	}
	var seen [machine.MaxBanks]bool
	for _, b := range perm {
		if b < 0 || b >= k || seen[b] {
			return fmt.Errorf("alloc: bank permutation %v is not a permutation of 0..%d", perm, k-1)
		}
		seen[b] = true
	}
	return nil
}

// bankAt returns the bank the plan's permutation maps bank index b to.
func (pl *Plan) bankAt(b int) machine.Bank {
	if pl.BankPerm != nil {
		b = pl.BankPerm[b]
	}
	return machine.BankAt(b)
}

// numSymbols returns len(p.Symbols()) without building the slice.
func numSymbols(p *ir.Program) int {
	n := len(p.Globals)
	for _, f := range p.Funcs {
		n += len(f.Locals)
	}
	return n
}

// newPlan returns an empty plan for p under opts: every symbol
// unassigned, the ports banked.
func newPlan(p *ir.Program, opts Options) *Plan {
	return &Plan{
		Mode: opts.Mode, Ports: machine.PortsBanked, Spec: opts.Spec,
		BankPerm: slices.Clone(opts.BankPerm), InterruptSafe: opts.InterruptSafe,
		Banks: make([]machine.Bank, numSymbols(p)),
	}
}

// fill places every symbol in bank b.
func (pl *Plan) fill(b machine.Bank) {
	for i := range pl.Banks {
		pl.Banks[i] = b
	}
}

// duplicate marks CBDup's replicated arrays. With no filter, replicate
// the arrays flagged while building the graph — those with
// simultaneous data-ready accesses that no partition can separate
// (Figure 6). With a filter, the caller names the exact duplication
// set: any partitioned array it accepts is replicated, marked or not,
// which is how the explorer searches duplication subsets beyond the
// paper's policy.
func (pl *Plan) duplicate(g *core.Graph, opts Options) {
	if opts.Mode != CBDup {
		return
	}
	for i, s := range g.Nodes {
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
		pl.Banks[i] = machine.BankBoth
	}
}

// rotateSaves deals each function's save/restore slots through the k
// banks in turn, outside the graph, as §3.1 prescribes.
func (pl *Plan) rotateSaves(p *ir.Program, k int) {
	i := len(p.Globals)
	for _, f := range p.Funcs {
		next := 0
		for _, s := range f.Locals {
			if s.Save {
				pl.Banks[i] = pl.bankAt(next)
				next = (next + 1) % k
			}
			i++
		}
	}
}

// Apply carries plan out on p, which must be the planned program or a
// clone of it. It sets every symbol's bank and duplication, inserts
// coherence stores for duplicated data, tags the memory operations and
// assigns addresses, then verifies the program.
func Apply(p *ir.Program, plan *Plan) (*Result, error) {
	if n := numSymbols(p); n != len(plan.Banks) {
		return nil, fmt.Errorf("alloc: plan covers %d symbols, program has %d", len(plan.Banks), n)
	}
	i := 0
	place := func(syms []*ir.Symbol) {
		for _, s := range syms {
			s.Bank = plan.Banks[i]
			s.Duplicated = s.Bank == machine.BankBoth
			i++
		}
	}
	place(p.Globals)
	for _, f := range p.Funcs {
		place(f.Locals)
	}
	res := &Result{
		Mode: plan.Mode, Graph: plan.Graph, Part: plan.Part,
		Ports: plan.Ports, Spec: plan.Spec,
	}
	k := plan.Spec.Norm().Banks
	insertCoherenceStores(p, plan, res, k)
	tagMemOps(p)
	if err := layout(p, res, k); err != nil {
		return nil, err
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return res, nil
}

// Run performs data allocation on p according to opts: it builds p's
// interference graph when the mode partitions, plans, and applies the
// plan to p itself. It mutates symbol bank/address assignments and
// memory-op tags, and inserts coherence stores for duplicated data.
// The profiled policy reads p's blocks' ExecCount.
func Run(p *ir.Program, opts Options) (*Result, error) {
	var g *core.Graph
	if policy, ok := opts.Policy(); ok {
		sc := opts.Scanner
		if sc == nil {
			sc = new(core.Scanner)
		}
		g = sc.BuildGraph(p, policy)
	}
	plan, err := NewPlan(p, g, opts)
	if err != nil {
		return nil, err
	}
	return Apply(p, plan)
}

// insertCoherenceStores expands every store to a duplicated symbol
// into k stores: the original targets the permutation's first bank and
// k-1 clones, inserted immediately after it, target the remaining
// banks in permutation order (X then Y on the paper's machine, swapped
// under BankPerm {1, 0}). Each carries a distinct single-bank tag, so
// the dependence graph lets all k issue in one long instruction when
// enough memory units are free. The first clone is the original's
// pair, which the interrupt-safe discipline commits atomically.
func insertCoherenceStores(p *ir.Program, plan *Plan, res *Result, k int) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []*ir.Op
			for _, op := range b.Ops {
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					op.Bank = plan.bankAt(0)
					out = append(out, op)
					for c := 1; c < k; c++ {
						clone := &ir.Op{
							Kind: ir.OpStore,
							Args: op.Args,
							Idx:  op.Idx,
							Sym:  op.Sym,
							Bank: plan.bankAt(c),
						}
						if c == 1 {
							op.DupPair, clone.DupPair = clone, op
							if plan.InterruptSafe {
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

// layout assigns word addresses over k banks: first the duplicated
// region (equal addresses in every bank), then each bank's globals,
// then the static stack frames, with one cursor per bank.
func layout(p *ir.Program, res *Result, k int) error {
	cursorDup := 0
	for _, s := range p.Symbols() {
		if s.Duplicated {
			s.Addr = cursorDup
			cursorDup += s.Size
		}
	}
	res.DupWords = cursorDup

	var cur [machine.MaxBanks]int
	for b := 0; b < k; b++ {
		cur[b] = cursorDup
	}
	place := func(s *ir.Symbol) {
		b := s.Bank.Index()
		if b < 0 || b >= k {
			b = 0 // unassigned data lives in bank 0 (baseline layout)
		}
		s.Addr = cur[b]
		cur[b] += s.Size
	}
	for _, s := range p.Globals {
		if !s.Duplicated {
			place(s)
		}
	}
	afterGlobals := cur
	for _, f := range p.Funcs {
		for _, s := range f.Locals {
			if !s.Duplicated {
				place(s)
			}
		}
	}
	words := make([]int, 2*k)
	res.Global, res.Stack = words[:k:k], words[k:]
	for b := 0; b < k; b++ {
		res.Global[b] = afterGlobals[b] - cursorDup
		res.Stack[b] = cur[b] - afterGlobals[b]
	}

	for b, c := range cur[:k] {
		if c > machine.BankWords {
			return fmt.Errorf("alloc: data exceeds bank %d capacity (%d words, capacity %d)",
				b, c, machine.BankWords)
		}
	}
	return nil
}
