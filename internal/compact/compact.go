// Package compact implements the operation-compaction pass: the
// list-scheduling algorithm (based on local microcode compaction) that
// packs independent machine operations into VLIW long instructions,
// honouring functional-unit capacities and the memory-unit/bank binding
// established by the data allocation pass. It is the same algorithm the
// interference-graph builder dry-runs (Figure 3), now with both memory
// units usable because every memory operation carries a bank tag.
package compact

import (
	"fmt"

	"dualbank/internal/ddg"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Instr is one VLIW long instruction: at most one operation per
// functional unit, all executing in a single cycle with operands read
// before results are written. The slot array is sized for the widest
// machine in the generalized family (machine.MaxUnits); on the default
// 2-bank machine only the classic nine slots are ever occupied.
type Instr struct {
	Slots [machine.MaxUnits]*ir.Op
}

// Ops returns the instruction's operations in unit order.
func (in *Instr) Ops() []*ir.Op {
	var out []*ir.Op
	for _, op := range in.Slots {
		if op != nil {
			out = append(out, op)
		}
	}
	return out
}

// Count returns the number of occupied slots.
func (in *Instr) Count() int {
	n := 0
	for _, op := range in.Slots {
		if op != nil {
			n++
		}
	}
	return n
}

// Block is a scheduled basic block.
type Block struct {
	Src    *ir.Block
	Instrs []*Instr
}

// Func is a scheduled function.
type Func struct {
	Src    *ir.Func
	Blocks []*Block // indexed by ir block ID
}

// Program is a fully scheduled program, the input to the simulator and
// the assembly printer.
type Program struct {
	Src   *ir.Program
	Funcs map[string]*Func
	Ports machine.PortModel
	// Spec is the bank/port geometry the program was scheduled for;
	// the zero value is the classic 2-bank, 1-port machine.
	Spec machine.BankSpec
}

// StaticInstrs returns the total number of long instructions in the
// program — the instruction-memory size I in the cost model (the paper
// assumes one word per instruction).
func (p *Program) StaticInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Config parameterises scheduling.
type Config struct {
	// Ports is the memory port model: banked (MU0=X, MU1=Y) or
	// dual-ported (Ideal). Non-default Specs always use the banked
	// model (each memory unit is one port of one bank).
	Ports machine.PortModel
	// Spec is the bank/port geometry; the zero value is the classic
	// 2-bank, 1-port machine, which takes the historical scheduling
	// path bit for bit.
	Spec machine.BankSpec
	// BankPerm is the bank permutation the allocation ran under: the
	// unit preference for operations free to use any memory unit
	// (duplicated loads tagged BankBoth) tries banks in BankPerm order
	// (BankPerm[0]'s units first). Nil means identity. It makes the
	// schedule of a permuted allocation the exact permutation image of
	// the original — the swap-invariance the metamorphic tests assert,
	// which a fixed MU0-first order would otherwise break.
	BankPerm []int

	// mu1First is normalize's 2-bank form of BankPerm {1, 0}: the
	// historical scheduler tries MU1 before MU0 for bank-free
	// operations.
	mu1First bool
}

// specUnits is the per-Config unit-preference table for non-default
// bank specs, built once per ScheduleWith (and per Validate) so the
// per-operation unitsFor lookup stays allocation-free.
type specUnits struct {
	// forBank[b] lists the memory units wired to bank b, ordinal order.
	forBank [][]machine.Unit
	// anyBank is the preference order for bank-free operations
	// (duplicated loads tagged BankBoth): banks in permutation order,
	// each bank's ports in ordinal order.
	anyBank []machine.Unit
}

// normalize resolves the Config's spec/permutation pair: it returns
// nil for configurations the historical 2-bank scheduler handles
// (setting mu1First for the swap {1, 0}), and a freshly built
// specUnits table otherwise.
func (cfg *Config) normalize() *specUnits {
	perm := cfg.BankPerm
	if cfg.Spec.IsDefault() {
		switch {
		case perm == nil, len(perm) == 2 && perm[0] == 0 && perm[1] == 1:
			return nil
		case len(perm) == 2 && perm[0] == 1 && perm[1] == 0:
			cfg.mu1First = true
			return nil
		}
	}
	spec := cfg.Spec.Norm()
	if perm == nil {
		perm = make([]int, spec.Banks)
		for i := range perm {
			perm[i] = i
		}
	}
	su := &specUnits{forBank: make([][]machine.Unit, spec.Banks)}
	for b := 0; b < spec.Banks; b++ {
		su.forBank[b] = spec.UnitsForBankIndex(b)
	}
	for _, b := range perm {
		su.anyBank = append(su.anyBank, su.forBank[b]...)
	}
	return su
}

// Scratch holds the scheduler's reusable working state: the
// dependence-graph builder, the per-op bookkeeping arrays, and the
// instruction arena blocks are scheduled into before being sealed.
// A warm Scratch makes scheduleBlock allocation-free in steady state
// (only the sealed per-block output is freshly allocated), so repeated
// compiles — the experiment harness compiles every benchmark under
// seven machine modes — stop churning the garbage collector. A Scratch
// is not safe for concurrent use; give each worker its own.
type Scratch struct {
	ddg       ddg.Builder
	scheduled []bool
	cycleOf   []int
	pairIdx   []int32 // index of op.DupPair within the block, -1 if none
	opIdx     map[*ir.Op]int32
	drs       []int    // data-ready set, rebuilt each fill iteration
	inDRS     []uint32 // epoch stamp marking membership of drs
	drsEpoch  uint32
	arena     []Instr // per-block instruction arena, reused across blocks
	remaining int
}

// ensure grows the per-op scratch arrays to cover n operations.
func (s *Scratch) ensure(n int) {
	if cap(s.scheduled) < n {
		s.scheduled = make([]bool, n)
		s.cycleOf = make([]int, n)
		s.pairIdx = make([]int32, n)
		s.inDRS = make([]uint32, n)
		s.drs = make([]int, 0, n)
	}
	s.scheduled = s.scheduled[:n]
	s.cycleOf = s.cycleOf[:n]
	s.pairIdx = s.pairIdx[:n]
	s.inDRS = s.inDRS[:n]
	if s.opIdx == nil {
		s.opIdx = make(map[*ir.Op]int32, n)
	}
}

// Schedule compacts every block of every function.
func Schedule(p *ir.Program, cfg Config) (*Program, error) {
	return ScheduleWith(p, cfg, new(Scratch))
}

// ScheduleWith is Schedule with caller-provided scratch state, for
// pipelines that compile many programs back to back.
func ScheduleWith(p *ir.Program, cfg Config, s *Scratch) (*Program, error) {
	if s == nil {
		s = new(Scratch)
	}
	su := cfg.normalize()
	out := &Program{Src: p, Funcs: make(map[string]*Func, len(p.Funcs)), Ports: cfg.Ports, Spec: cfg.Spec}
	for _, f := range p.Funcs {
		sf := &Func{Src: f, Blocks: make([]*Block, 0, len(f.Blocks))}
		for _, b := range f.Blocks {
			n, err := s.scheduleBlock(b, cfg, su)
			if err != nil {
				return nil, fmt.Errorf("compact %s %s: %w", f.Name, b, err)
			}
			sf.Blocks = append(sf.Blocks, s.seal(b, n))
		}
		out.Funcs[f.Name] = sf
	}
	return out, nil
}

// unitsMemoryMirror is the both-memory-units candidate list in MU1-
// first order, used when Config.BankPerm swaps the classic banks.
var unitsMemoryMirror = []machine.Unit{machine.MU1, machine.MU0}

// unitsFor lists the functional units that may execute op, most
// preferred first. The returned slice is shared and read-only. su is
// nil on the default 2-bank machine (the historical path) and the
// prebuilt preference table otherwise.
func unitsFor(op *ir.Op, cfg Config, su *specUnits) []machine.Unit {
	cls := op.Kind.Class()
	if cls != machine.ClassMemory {
		return machine.UnitsOf(cls)
	}
	if su != nil {
		if b := op.Bank.Index(); b >= 0 {
			return su.forBank[b]
		}
		if op.Bank == machine.BankBoth {
			return su.anyBank
		}
		// Unassigned data lives in bank 0 (the baseline layout).
		return su.forBank[0]
	}
	units := cfg.Ports.UnitsForBank(op.Bank)
	if cfg.mu1First && len(units) == 2 {
		return unitsMemoryMirror
	}
	return units
}

// scheduleBlock list-schedules one block into the scratch arena and
// returns the number of long instructions emitted. With a warm Scratch
// it performs no heap allocations: the dependence graph, bookkeeping
// arrays, and instruction storage are all reused (enforced by
// TestScheduleBlockZeroAlloc).
func (s *Scratch) scheduleBlock(b *ir.Block, cfg Config, su *specUnits) (int, error) {
	g := s.ddg.Build(b)
	n := len(g.Ops)
	s.arena = s.arena[:0]
	if n == 0 {
		return 0, nil
	}
	s.ensure(n)
	for i := 0; i < n; i++ {
		s.scheduled[i] = false
		s.cycleOf[i] = -1
		s.pairIdx[i] = -1
	}

	// Resolve duplicated-store pairs to block-local indices once, so
	// the inner loop needs no map lookups. The two halves of a pair
	// point at each other.
	hasPairs := false
	for _, op := range g.Ops {
		if op.Atomic && op.DupPair != nil {
			hasPairs = true
			break
		}
	}
	if hasPairs {
		clear(s.opIdx)
		for i, op := range g.Ops {
			if op.Atomic && op.DupPair != nil {
				s.opIdx[op] = int32(i)
			}
		}
		for i, op := range g.Ops {
			if op.Atomic && op.DupPair != nil {
				if j, ok := s.opIdx[op.DupPair]; ok {
					s.pairIdx[i] = j
				}
			}
		}
	}

	s.remaining = n
	for cycle := 0; s.remaining > 0; cycle++ {
		s.arena = append(s.arena, Instr{})
		instr := &s.arena[len(s.arena)-1] // no appends until the cycle ends
		remBefore := s.remaining

		// Fill the instruction to a fixed point: scheduling an
		// operation can make its anti-dependent successors data-ready
		// within the same cycle (operands are read before results are
		// written), so the data-ready set is recalculated until the
		// instruction stops growing.
		for {
			s.drs = s.drs[:0]
			s.drsEpoch++
			if s.drsEpoch == 0 { // wrapped: stamps are stale, restart
				clear(s.inDRS)
				s.drsEpoch = 1
			}
			for i := 0; i < n; i++ {
				if s.scheduled[i] {
					continue
				}
				ready := true
				for _, e := range g.Pred[i] {
					if !s.scheduled[e.To] {
						ready = false
						break
					}
				}
				if ready {
					s.drs = append(s.drs, i)
					s.inDRS[i] = s.drsEpoch
				}
			}
			ddg.SortByPriority(s.drs, g.Priority)

			placed := false
			for _, i := range s.drs {
				if s.scheduled[i] || !s.compatible(g, i, cycle) {
					continue
				}
				op := g.Ops[i]
				// Atomic duplicated-store pairs must commit in the same
				// instruction: schedule both or neither.
				if op.Atomic && op.DupPair != nil {
					j := int(s.pairIdx[i])
					if j < 0 || s.scheduled[j] || s.inDRS[j] != s.drsEpoch || !s.compatible(g, j, cycle) {
						continue
					}
					if s.place(g, instr, cfg, su, i, cycle) {
						if s.place(g, instr, cfg, su, j, cycle) {
							placed = true
						} else {
							// Undo: both halves wait for the next cycle.
							for u := range instr.Slots {
								if instr.Slots[u] == op {
									instr.Slots[u] = nil
								}
							}
							s.scheduled[i] = false
							s.cycleOf[i] = -1
							s.remaining++
						}
					}
					continue
				}
				if s.place(g, instr, cfg, su, i, cycle) {
					placed = true
				}
			}
			if !placed {
				break
			}
		}
		if s.remaining == remBefore {
			return 0, fmt.Errorf("scheduler made no progress at cycle %d", cycle)
		}
	}
	return len(s.arena), nil
}

// compatible reports whether op i may join the instruction being built
// for this cycle: none of its strict predecessors may issue in the
// same cycle.
func (s *Scratch) compatible(g *ddg.Graph, i, cycle int) bool {
	for _, e := range g.Pred[i] {
		if e.Strict && s.cycleOf[e.To] == cycle {
			return false
		}
	}
	return true
}

// place puts op i into the first free unit that can execute it.
func (s *Scratch) place(g *ddg.Graph, instr *Instr, cfg Config, su *specUnits, i, cycle int) bool {
	for _, u := range unitsFor(g.Ops[i], cfg, su) {
		if instr.Slots[u] == nil {
			instr.Slots[u] = g.Ops[i]
			s.scheduled[i] = true
			s.cycleOf[i] = cycle
			s.remaining--
			return true
		}
	}
	return false
}

// seal copies the first n arena instructions into an exact-size block —
// the only per-block allocations the scheduler retains.
func (s *Scratch) seal(b *ir.Block, n int) *Block {
	sb := &Block{Src: b}
	if n == 0 {
		return sb
	}
	instrs := make([]Instr, n)
	copy(instrs, s.arena[:n])
	sb.Instrs = make([]*Instr, n)
	for i := range instrs {
		sb.Instrs[i] = &instrs[i]
	}
	return sb
}

// Validate checks that the schedule respects all dependences and unit
// constraints; tests run it over every compiled benchmark.
func Validate(p *Program) error {
	var bu ddg.Builder // reused across blocks; the graph is read per block
	vcfg := Config{Ports: p.Ports, Spec: p.Spec}
	vsu := vcfg.normalize()
	for name, f := range p.Funcs {
		for _, sb := range f.Blocks {
			cycle := make(map[*ir.Op]int)
			for c, in := range sb.Instrs {
				for u, op := range in.Slots {
					if op == nil {
						continue
					}
					cycle[op] = c
					cls := op.Kind.Class()
					okUnit := false
					for _, au := range unitsFor(op, vcfg, vsu) {
						if machine.Unit(u) == au {
							okUnit = true
						}
					}
					if !okUnit {
						return fmt.Errorf("%s: op %s of class %s on unit %s", name, op, cls, machine.Unit(u))
					}
				}
			}
			// Every op scheduled exactly once.
			if len(cycle) != len(sb.Src.Ops) {
				return fmt.Errorf("%s %s: %d ops scheduled, want %d", name, sb.Src, len(cycle), len(sb.Src.Ops))
			}
			g := bu.Build(sb.Src)
			for i, op := range g.Ops {
				for _, e := range g.Succ[i] {
					to := g.Ops[e.To]
					if e.Strict && cycle[to] <= cycle[op] {
						return fmt.Errorf("%s: strict dependence violated: %s -> %s", name, op, to)
					}
					if !e.Strict && cycle[to] < cycle[op] {
						return fmt.Errorf("%s: anti dependence violated: %s -> %s", name, op, to)
					}
				}
			}
			// Atomic pairs share an instruction.
			for op, c := range cycle {
				if op.Atomic && op.DupPair != nil && cycle[op.DupPair] != c {
					return fmt.Errorf("%s: atomic pair split across instructions", name)
				}
			}
		}
	}
	return nil
}
