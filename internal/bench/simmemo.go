package bench

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"dualbank/internal/compact"
	"dualbank/internal/encode"
)

// This file is the harness's simulation memo. A design-space sweep
// measures each program under many configurations, and most of them
// compile to a schedule already measured: partitioners, FM pass bounds
// and profile weighting often converge on one allocation. The memo
// fingerprints each validated schedule by its ROM image and, when that
// image was already simulated on the requested engine, reuses the
// cycle count instead of lowering, running and checking it again.
//
// The memo is sound because the image describes the whole program:
// geometry, symbol layout and initial data, control flow, and every
// operation in every slot. Decoding an image yields a program that
// simulates exactly like its source (the encode round-trip tests and
// FuzzImageRoundTrip pin this on both engines), so two schedules with
// equal images simulate alike. Allocation, compaction, validation and
// the cost model still run for every measurement; only the simulation
// and the output check, which already passed on that exact image, are
// skipped.

// simKey identifies one simulation: the SHA-256 of the schedule's ROM
// image plus the engine that runs it. Results are engine-independent,
// but a measurement on one engine never stands in for the other.
type simKey struct {
	image  [sha256.Size]byte
	engine Engine
}

// simMemo is one program's simulation memo. It lives on the program's
// front-end memo entry, so it is scoped to one (name, source) and
// evicted with its Prepared. Like the run cache, it takes a program's
// output check to be fixed by its name and source. It holds only
// measurements that simulated and passed the output check; a
// cancelled, faulting or failing simulation stores nothing. Concurrent
// misses on one image each simulate and store the same count.
type simMemo struct {
	// sims counts the simulations run on a memo miss: the owning
	// harness's counter, shared by all of its memos.
	sims *atomic.Int64

	mu     sync.Mutex
	cycles map[simKey]int64
}

// encoders recycles image buffers across fingerprints: an image is
// rebuilt for every measurement, and some carry kilobytes of initial
// data.
var encoders = sync.Pool{New: func() any { return new(encode.Encoder) }}

// fingerprint returns sched's memo key under engine.
func fingerprint(sched *compact.Program, engine Engine) (simKey, error) {
	e := encoders.Get().(*encode.Encoder)
	defer encoders.Put(e)
	img, err := e.Encode(sched)
	if err != nil {
		return simKey{}, fmt.Errorf("fingerprint: %w", err)
	}
	return simKey{image: sha256.Sum256(img), engine: engine}, nil
}

// lookup fingerprints sched and returns the memoized cycle count of
// its image on engine, if any, with the key a fresh measurement is
// stored under. A miss counts the simulation the caller runs instead.
// A nil memo never hits and counts nothing.
func (sm *simMemo) lookup(sched *compact.Program, engine Engine) (key simKey, cycles int64, hit bool, err error) {
	if sm == nil {
		return simKey{}, 0, false, nil
	}
	if key, err = fingerprint(sched, engine); err != nil {
		return simKey{}, 0, false, err
	}
	sm.mu.Lock()
	cycles, hit = sm.cycles[key]
	sm.mu.Unlock()
	if !hit {
		sm.sims.Add(1)
	}
	return key, cycles, hit, nil
}

// store records the cycle count of a schedule that simulated and
// passed its output check. A nil memo stores nothing.
func (sm *simMemo) store(key simKey, cycles int64) {
	if sm == nil {
		return
	}
	sm.mu.Lock()
	if sm.cycles == nil {
		sm.cycles = make(map[simKey]int64)
	}
	sm.cycles[key] = cycles
	sm.mu.Unlock()
}
