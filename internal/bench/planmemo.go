package bench

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the harness's back-end memo. A design-space sweep
// measures each program under many configurations, and most of them
// reach an allocation already measured: partitioners, FM pass bounds,
// profile weighting and empty duplication sets often converge on one
// bank assignment. Every measurement first plans its allocation from
// the program's shared interference graph, which clones nothing. When
// the program's memo already holds that plan's measurement on the
// requested engine, the measurement is reused, and the clone, Apply,
// compaction, validation, simulation and output check are all skipped.
//
// The memo is sound because its key fixes everything the skipped steps
// read. The memo lives on the program's front-end memo entry, so the
// prepared program is fixed. alloc.Plan.Key fixes every symbol's bank
// and duplication, the geometry, the port model, the bank permutation
// and the interrupt-safe flag. Apply and compaction are deterministic
// functions of those two, and the simulation and output check are
// functions of their output. The engine completes the key: results are
// engine-independent, but a measurement on one engine never stands in
// for the other. Like the run cache, the memo takes a program's output
// check to be fixed by its name and source.

// memoKey identifies one full back end of a prepared program.
type memoKey struct {
	plan   string
	engine Engine
}

// planMemo is one program's back-end memo. It holds only measurements
// that validated, simulated and passed the output check; a cancelled,
// faulting or failing measurement stores nothing. Concurrent misses on
// one plan each run the back end and store equal results.
type planMemo struct {
	// sims counts the simulations run on a memo miss: the owning
	// harness's counter, shared by all of its memos.
	sims *atomic.Int64

	mu  sync.Mutex
	res map[memoKey]*Result
}

// lookup returns the stored measurement for key, its duplication list
// copied so the caller owns it. A nil memo never hits.
func (m *planMemo) lookup(key memoKey) (Result, bool) {
	if m == nil {
		return Result{}, false
	}
	m.mu.Lock()
	stored := m.res[key]
	m.mu.Unlock()
	if stored == nil {
		return Result{}, false
	}
	res := *stored
	res.Duplicated = slices.Clone(res.Duplicated)
	return res, true
}

// store records a measurement that passed its output check, keeping
// its own copy of the duplication list. A nil memo stores nothing.
func (m *planMemo) store(key memoKey, res Result) {
	if m == nil {
		return
	}
	res.Duplicated = slices.Clone(res.Duplicated)
	m.mu.Lock()
	if m.res == nil {
		m.res = make(map[memoKey]*Result)
	}
	m.res[key] = &res
	m.mu.Unlock()
}

// simulating counts one simulation about to run. A nil memo counts
// nothing.
func (m *planMemo) simulating() {
	if m != nil {
		m.sims.Add(1)
	}
}
