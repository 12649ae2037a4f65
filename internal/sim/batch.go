package sim

import "context"

// Batch amortizes CompiledMachine allocation across many runs: one
// Batch owns a machine whose arenas are grown to the largest program
// seen and re-sliced per run, so evaluating a family of configuration
// variants — the explorer's duplication subsets, the misses a harness
// runs on its lent compilers — performs one lowering per variant and
// zero steady-state machine allocations. A Batch is not safe for
// concurrent use; give each worker its own.
type Batch struct {
	m CompiledMachine
}

// MachineFor readies the batch's machine for one run of cp: arenas are
// re-sliced (growing only when cp needs more than any earlier program)
// and reset to cp's initial images. The returned machine aliases the
// batch's storage — it is invalidated by the next MachineFor or Run
// call, so callers must finish reading results before reusing the
// batch.
func (b *Batch) MachineFor(cp *CompiledProgram) *CompiledMachine {
	m := &b.m
	if cap(m.Banks) < cp.nbanks {
		nb := make([][]uint32, cp.nbanks)
		copy(nb, m.Banks[:cap(m.Banks)])
		m.Banks = nb
	} else {
		m.Banks = m.Banks[:cp.nbanks]
	}
	for i := range m.Banks {
		if cap(m.Banks[i]) < cp.memWords {
			m.Banks[i] = make([]uint32, cp.memWords)
		} else {
			m.Banks[i] = m.Banks[i][:cp.memWords]
		}
	}
	m.X, m.Y = m.Banks[0], m.Banks[1]
	m.cp = cp
	m.MaxCycles = DefaultMaxSteps
	m.Reset()
	return m
}

// Run executes cp on the batch's recycled machine and returns it for
// result inspection. A failed or cancelled run leaves the batch
// reusable: the next call re-slices and resets the same storage, so
// one cancelled variant cannot poison its siblings.
func (b *Batch) Run(ctx context.Context, cp *CompiledProgram) (*CompiledMachine, error) {
	m := b.MachineFor(cp)
	if err := m.RunContext(ctx); err != nil {
		return nil, err
	}
	return m, nil
}
