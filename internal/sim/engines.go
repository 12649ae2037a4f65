package sim

// CycleCount returns the retired-cycle counter; with Word it forms the
// minimal surface shared by both engines, letting engine-generic
// callers (the benchmark harness) treat them uniformly.
func (m *Machine) CycleCount() int64 { return m.Cycles }

// CycleCount returns the retired-cycle counter.
func (m *CompiledMachine) CycleCount() int64 { return m.Cycles }

// Counters is the full bandwidth-counter set every engine maintains,
// for callers (the dspsim driver) that report more than the cycle
// count.
type Counters struct {
	Cycles        int64
	OpsExecuted   int64
	MemAccesses   int64
	DualMemCycles int64
	BankConflicts int64
}

// Counters snapshots the bandwidth counters.
func (m *Machine) Counters() Counters {
	return Counters{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts}
}

// Counters snapshots the bandwidth counters.
func (m *CompiledMachine) Counters() Counters {
	return Counters{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts}
}
