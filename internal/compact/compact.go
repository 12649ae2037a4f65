// Package compact implements the operation-compaction pass: the
// list-scheduling algorithm (based on local microcode compaction) that
// packs independent machine operations into VLIW long instructions,
// honouring functional-unit capacities and the memory-unit/bank binding
// established by the data allocation pass. The interference-graph
// builder runs this same scheduler before allocation, with one usable
// memory unit (Conflicts, Figure 3); compaction runs it after, when
// every memory operation carries a bank tag.
package compact

import (
	"fmt"
	"slices"

	"dualbank/internal/ddg"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Instr is one VLIW long instruction: at most one operation per
// functional unit, all executing in a single cycle with operands read
// before results are written. The slot array is sized for the widest
// machine in the generalized family (machine.MaxUnits); on the paper's
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
	// the zero value is the paper's 2-bank, 1-port machine.
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
	// Ports is the memory port model: banked (each memory unit reaches
	// the one bank its spec binds it to), or the paper's dual-ported
	// (Ideal) and low-order models, where every memory unit reaches
	// every bank.
	Ports machine.PortModel
	// Spec is the bank/port geometry; the zero value is the paper's
	// 2-bank, 1-port machine. Every spec schedules through the same
	// unit-preference table.
	Spec machine.BankSpec
	// BankPerm is the bank permutation the allocation ran under: the
	// unit preference for operations free to use any memory unit
	// (duplicated loads tagged BankBoth, and every memory operation
	// under the dual-ported and low-order models) tries banks in
	// BankPerm order (BankPerm[0]'s units first). Nil means identity.
	// It makes the schedule of a permuted allocation the exact
	// permutation image of the original — the swap-invariance the
	// metamorphic tests assert, which a fixed MU0-first order would
	// otherwise break.
	BankPerm []int
}

// unitTable is one schedule's memory-unit preference: the units wired
// to each bank, and the order in which an operation free to use any
// memory unit tries them. It lives in fixed arrays and is built once
// per ScheduleWith (into the Scratch), per Validate (on the stack) and
// for the interference scan (scanUnits), so the per-operation unitsFor
// lookup allocates nothing.
type unitTable struct {
	ports machine.PortModel
	banks int
	// byBank holds the memory units grouped by bank, ordinal order
	// within a bank; bank b's are byBank[start[b]:start[b+1]].
	byBank [machine.MaxMemUnits]machine.Unit
	start  [machine.MaxBanks + 1]int8
	// anyBank is the preference order for bank-free operations: banks
	// in permutation order, each bank's ports in ordinal order.
	anyBank [machine.MaxMemUnits]machine.Unit
}

// build fills the table for cfg.
func (t *unitTable) build(cfg Config) {
	spec := cfg.Spec.Norm()
	t.ports, t.banks = cfg.Ports, spec.Banks
	n, units := 0, spec.NumMemUnits()
	for b := 0; b < spec.Banks; b++ {
		t.start[b] = int8(n)
		for j := 0; j < units; j++ {
			if spec.BankOfMemUnit(j) == b {
				t.byBank[n] = machine.MemUnit(j)
				n++
			}
		}
	}
	t.start[spec.Banks] = int8(n)
	n = 0
	for i := 0; i < spec.Banks; i++ {
		b := i
		if cfg.BankPerm != nil {
			b = cfg.BankPerm[i]
		}
		n += copy(t.anyBank[n:], t.forBank(b))
	}
}

// forBank returns the memory units wired to bank index b.
func (t *unitTable) forBank(b int) []machine.Unit {
	return t.byBank[t.start[b]:t.start[b+1]]
}

// unitsFor lists the functional units that may execute op, most
// preferred first. The returned slice is shared and read-only.
func (t *unitTable) unitsFor(op *ir.Op) []machine.Unit {
	cls := op.Kind.Class()
	if cls != machine.ClassMemory {
		return machine.UnitsOf(cls)
	}
	if !t.ports.BindsUnits() || op.Bank == machine.BankBoth {
		return t.anyBank[:t.start[t.banks]]
	}
	if b := op.Bank.Index(); b >= 0 && b < t.banks {
		return t.forBank(b)
	}
	// Unassigned data lives in bank 0 (the baseline layout).
	return t.forBank(0)
}

// Scratch holds the scheduler's reusable working state: the
// dependence-graph builder and the per-op bookkeeping arrays. The
// scheduler records each operation's cycle and unit, and seal builds a
// block's instructions from them once; Validate reuses the same state
// to check a finished schedule. A warm Scratch makes scheduleBlock and
// Validate allocation-free in steady state (only the sealed per-block
// output is freshly allocated), so repeated compiles — the experiment
// harness compiles every benchmark under seven machine modes — stop
// churning the garbage collector. The zero value is ready to use. A
// Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	ddg       ddg.Builder
	cycleOf   []int            // op's cycle, -1 while unscheduled
	unitOf    []machine.Unit   // op's unit, once scheduled
	blocked   []int            // cycle of the op's last recorded conflict, -1 if none
	pairIdx   []int32          // index of op.DupPair within the block, -1 if none
	opIdx     map[*ir.Op]int32 // block-local op index, for pairs and Validate
	drs       []int            // data-ready set, rebuilt each fill iteration
	inDRS     []uint32         // epoch stamp marking membership of drs
	drsEpoch  uint32
	remaining int
	// holder is the instruction being filled: 1 + the index of the op
	// on each unit, 0 while the unit is free.
	holder [machine.MaxUnits]int32
	// conflicts are the block's memory-unit conflicts, see Conflicts.
	conflicts [][2]int32
	units     unitTable // the current schedule's memory-unit preference
}

// scanUnits is the interference scan's machine: the paper's 2×1 banked
// table for every geometry. Unallocated memory operations carry
// BankNone, which it binds to MU0, so an instruction issues at most
// one memory access — Figure 3's single usable memory unit.
var scanUnits = func() (t unitTable) {
	t.build(Config{Ports: machine.PortsBanked})
	return t
}()

// ensure grows the per-op scratch arrays to cover n operations.
func (s *Scratch) ensure(n int) {
	if cap(s.cycleOf) < n {
		s.cycleOf = make([]int, n)
		s.unitOf = make([]machine.Unit, n)
		s.blocked = make([]int, n)
		s.pairIdx = make([]int32, n)
		s.inDRS = make([]uint32, n)
		s.drs = make([]int, 0, n)
	}
	s.cycleOf = s.cycleOf[:n]
	s.unitOf = s.unitOf[:n]
	s.blocked = s.blocked[:n]
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
	s.units.build(cfg)
	out := &Program{Src: p, Funcs: make(map[string]*Func, len(p.Funcs)), Ports: cfg.Ports, Spec: cfg.Spec}
	for _, f := range p.Funcs {
		sf := &Func{Src: f, Blocks: make([]*Block, 0, len(f.Blocks))}
		for _, b := range f.Blocks {
			n, err := s.scheduleBlock(b, &s.units)
			if err != nil {
				return nil, fmt.Errorf("compact %s %s: %w", f.Name, b, err)
			}
			sf.Blocks = append(sf.Blocks, s.seal(b, n))
		}
		out.Funcs[f.Name] = sf
	}
	return out, nil
}

// Conflicts list-schedules b on the interference scan's machine and
// returns the memory-unit conflicts it met: pairs of b.Ops indexes, the
// operation holding the unit and a data-ready, data-compatible memory
// operation that found it taken, in the order met, each blocked
// operation at most once per instruction. The result aliases the
// Scratch and is valid until its next use. Conflicts writes nothing to
// b or its operations, so goroutines may scan one shared program at
// once, each with its own Scratch. b must be unallocated (no bank tags,
// no atomic store pairs): on tagged IR, BankY and BankBoth operations
// reach MU1 too, and an atomic pair can stall the scheduler (an error).
func (s *Scratch) Conflicts(b *ir.Block) ([][2]int32, error) {
	_, err := s.scheduleBlock(b, &scanUnits)
	return s.conflicts, err
}

// scheduleBlock list-schedules one block, recording each op's cycle
// and unit, and returns the number of long instructions. With a warm
// Scratch it performs no heap allocations: the dependence graph and
// the bookkeeping arrays are all reused (enforced by
// TestScheduleBlockZeroAlloc).
func (s *Scratch) scheduleBlock(b *ir.Block, t *unitTable) (int, error) {
	g := s.ddg.Build(b)
	n := len(g.Ops)
	s.conflicts = s.conflicts[:0]
	if n == 0 {
		return 0, nil
	}
	s.ensure(n)
	for i := 0; i < n; i++ {
		s.cycleOf[i] = -1
		s.blocked[i] = -1
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
	cycle := 0
	for ; s.remaining > 0; cycle++ {
		clear(s.holder[:])
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
				if s.cycleOf[i] >= 0 {
					continue
				}
				ready := true
				for _, e := range g.Pred[i] {
					if s.cycleOf[e.To] < 0 {
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
				if s.cycleOf[i] >= 0 || !s.compatible(g, i, cycle) {
					continue
				}
				op := g.Ops[i]
				// Atomic duplicated-store pairs must commit in the same
				// instruction: schedule both or neither.
				if op.Atomic && op.DupPair != nil {
					j := int(s.pairIdx[i])
					if j < 0 || s.cycleOf[j] >= 0 || s.inDRS[j] != s.drsEpoch || !s.compatible(g, j, cycle) {
						continue
					}
					if s.place(g, t, i, cycle) {
						if s.place(g, t, j, cycle) {
							placed = true
						} else {
							// Undo: both halves wait for the next cycle.
							s.holder[s.unitOf[i]] = 0
							s.cycleOf[i] = -1
							s.remaining++
						}
					}
					continue
				}
				if s.place(g, t, i, cycle) {
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
	return cycle, nil
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

// place puts op i into the first free unit that can execute it. A
// memory operation that finds every such unit taken records a conflict
// with the op in its first-choice unit, once per cycle: the fill loop
// retries blocked ops.
func (s *Scratch) place(g *ddg.Graph, t *unitTable, i, cycle int) bool {
	units := t.unitsFor(g.Ops[i])
	for _, u := range units {
		if s.holder[u] == 0 {
			s.holder[u] = int32(i + 1)
			s.cycleOf[i] = cycle
			s.unitOf[i] = u
			s.remaining--
			return true
		}
	}
	if g.Ops[i].IsMem() && s.blocked[i] != cycle {
		s.blocked[i] = cycle
		s.conflicts = append(s.conflicts, [2]int32{s.holder[units[0]] - 1, int32(i)})
	}
	return false
}

// seal builds block b's n instructions from the cycles and units
// scheduleBlock recorded — the only per-block allocations the
// scheduler retains.
func (s *Scratch) seal(b *ir.Block, n int) *Block {
	sb := &Block{Src: b}
	if n == 0 {
		return sb
	}
	instrs := make([]Instr, n)
	sb.Instrs = make([]*Instr, n)
	for i := range instrs {
		sb.Instrs[i] = &instrs[i]
	}
	for i, op := range b.Ops {
		instrs[s.cycleOf[i]].Slots[s.unitOf[i]] = op
	}
	return sb
}

// Validate checks that the schedule respects all dependences and unit
// constraints; tests run it over every compiled benchmark.
func Validate(p *Program) error { return new(Scratch).Validate(p) }

// Validate is the package-level Validate on s: it rebuilds each
// block's dependences with s's builder and records each operation's
// cycle in s's per-operation arrays, so a warm Scratch checks a
// schedule without allocating.
func (s *Scratch) Validate(p *Program) error {
	var units unitTable
	units.build(Config{Ports: p.Ports, Spec: p.Spec})
	for name, f := range p.Funcs {
		for _, sb := range f.Blocks {
			if err := s.validateBlock(name, sb, &units); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateBlock checks one scheduled block of function name: every
// operation of its source block on a unit that can execute it, exactly
// once, after its strict predecessors and no earlier than its weak
// ones, and each atomic pair in one instruction.
func (s *Scratch) validateBlock(name string, sb *Block, units *unitTable) error {
	ops := sb.Src.Ops
	n := len(ops)
	s.ensure(n)
	clear(s.opIdx)
	for i, op := range ops {
		s.opIdx[op] = int32(i)
		s.cycleOf[i] = -1
	}
	placed := 0
	for c, in := range sb.Instrs {
		for u, op := range in.Slots {
			if op == nil {
				continue
			}
			if !slices.Contains(units.unitsFor(op), machine.Unit(u)) {
				return fmt.Errorf("%s: op %s of class %s on unit %s", name, op, op.Kind.Class(), machine.Unit(u))
			}
			i, ok := s.opIdx[op]
			if !ok || s.cycleOf[i] >= 0 {
				return fmt.Errorf("%s %s: op %s scheduled twice or outside its block", name, sb.Src, op)
			}
			s.cycleOf[i] = c
			placed++
		}
	}
	if placed != n {
		return fmt.Errorf("%s %s: %d ops scheduled, want %d", name, sb.Src, placed, n)
	}
	cycle := s.cycleOf
	g := s.ddg.Build(sb.Src)
	for i, op := range g.Ops {
		for _, e := range g.Succ[i] {
			to := g.Ops[e.To]
			if e.Strict && cycle[e.To] <= cycle[i] {
				return fmt.Errorf("%s: strict dependence violated: %s -> %s", name, op, to)
			}
			if !e.Strict && cycle[e.To] < cycle[i] {
				return fmt.Errorf("%s: anti dependence violated: %s -> %s", name, op, to)
			}
		}
	}
	for i, op := range ops {
		if !op.Atomic || op.DupPair == nil {
			continue
		}
		if j, ok := s.opIdx[op.DupPair]; !ok || cycle[j] != cycle[i] {
			return fmt.Errorf("%s: atomic pair split across instructions", name)
		}
	}
	return nil
}
