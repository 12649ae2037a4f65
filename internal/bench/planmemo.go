package bench

// This file is the harness's back-end memo. A design-space sweep
// measures each program under many configurations, and most of them
// reach an allocation already measured: partitioners, FM pass bounds,
// profile weighting and empty duplication sets often converge on one
// bank assignment. Every measurement first plans its allocation from
// the program's shared interference graph, which clones nothing. When
// the program's memo already holds that plan's measurement on the
// requested engine, or another request is measuring it, the
// measurement is shared, and the clone, Apply, compaction, validation,
// simulation and output check are all skipped. The memo (a memo
// instance, bounded at backEndMemoSize plans) keeps only measurements
// that validated, simulated and passed the output check.
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
