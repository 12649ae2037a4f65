package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// This file is the N=2 equivalence wall: spelling the paper's 2×1
// geometry out as an explicit BankSpec must change nothing. Allocation
// and compaction run one code path for every spec, so the wall guards
// what still reads the spec value itself — its normalization, the
// Ideal/LowOrder guard and both simulators' bank wiring. It compares,
// for every Table 1/2 benchmark under every allocation mode and every
// simulation engine, a compilation with the zero-value BankSpec against
// one with the spec spelled out — five counters and the complete final
// bank images must match. The back-end golden
// (internal/pipeline/testdata/backend.golden) pins what the one path
// produces on every geometry.

// equivRun captures one engine's observable outcome: the five pinned
// counters and the full per-bank memory images.
type equivRun struct {
	cycles, ops, mem, dual, conf int64
	banks                        [][]uint32
}

func captureRef(t *testing.T, c *pipeline.Compiled) equivRun {
	t.Helper()
	m := sim.NewMachine(c.Sched)
	if err := m.Run(); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return equivRun{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts, m.Banks}
}

func captureCompiled(t *testing.T, c *pipeline.Compiled, batch *sim.Batch) equivRun {
	t.Helper()
	cp, err := sim.Compile(c.Sched)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	m, err := batch.Run(context.Background(), cp)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	// The batch recycles its arenas, so copy the images out before the
	// next engine run reuses them.
	banks := make([][]uint32, len(m.Banks))
	for b := range m.Banks {
		banks[b] = append([]uint32(nil), m.Banks[b]...)
	}
	return equivRun{m.Cycles, m.OpsExecuted, m.MemAccesses, m.DualMemCycles, m.BankConflicts, banks}
}

// sameRun compares two engine outcomes counter for counter and word
// for word. The compiled engine's arenas cover only the used prefix of
// each bank, so image comparison runs over the shorter image and then
// requires the longer one to be zero beyond it — the same discipline
// the engine differential suite uses.
func sameRun(t *testing.T, label string, a, b equivRun) {
	t.Helper()
	type ctr struct {
		name string
		x, y int64
	}
	for _, c := range []ctr{
		{"cycles", a.cycles, b.cycles},
		{"ops executed", a.ops, b.ops},
		{"mem accesses", a.mem, b.mem},
		{"dual-mem cycles", a.dual, b.dual},
		{"bank conflicts", a.conf, b.conf},
	} {
		if c.x != c.y {
			t.Errorf("%s: %s: zero-spec %d, explicit-spec %d", label, c.name, c.x, c.y)
		}
	}
	if len(a.banks) != len(b.banks) {
		t.Fatalf("%s: %d banks vs %d", label, len(a.banks), len(b.banks))
	}
	for bank := range a.banks {
		ab, bb := a.banks[bank], b.banks[bank]
		n := len(ab)
		if len(bb) < n {
			n = len(bb)
		}
		for i := 0; i < n; i++ {
			if ab[i] != bb[i] {
				t.Fatalf("%s: bank %s word %#x: zero-spec %#x, explicit-spec %#x",
					label, machine.BankAt(bank), i, ab[i], bb[i])
			}
		}
		for i := n; i < len(ab); i++ {
			if ab[i] != 0 {
				t.Fatalf("%s: bank %s word %#x nonzero beyond shorter image", label, machine.BankAt(bank), i)
			}
		}
		for i := n; i < len(bb); i++ {
			if bb[i] != 0 {
				t.Fatalf("%s: bank %s word %#x nonzero beyond shorter image", label, machine.BankAt(bank), i)
			}
		}
	}
}

// TestDefaultSpecEquivalenceWall runs the full 23-benchmark × 7-mode ×
// 2-engine matrix twice — once through the zero-value options and once
// with the paper's geometry spelled out as an explicit BankSpec — and
// requires bit-for-bit agreement on all five counters and the complete
// bank images, so no committed baseline (dspbench tables,
// BENCH_explore.json, BENCH_gaps.json, BENCH_corpus.json) can depend on
// how a caller spells the paper's machine.
func TestDefaultSpecEquivalenceWall(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence wall in short mode")
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	explicit := machine.BankSpec{Banks: 2, PortsPerBank: 1}
	if !explicit.IsDefault() {
		t.Fatal("explicit 2x1 spec must be the default geometry")
	}
	progs := append(Kernels(), Applications()...)
	if len(progs) != 23 {
		t.Fatalf("suite has %d benchmarks, wall expects 23", len(progs))
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var batch sim.Batch
			for _, mode := range modes {
				zc, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%v: compile (zero spec): %v", mode, err)
				}
				ec, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode, Spec: explicit})
				if err != nil {
					t.Fatalf("%v: compile (explicit spec): %v", mode, err)
				}
				sameRun(t, p.Name+"/"+mode.String()+"/reference", captureRef(t, zc), captureRef(t, ec))
				sameRun(t, p.Name+"/"+mode.String()+"/compiled",
					captureCompiled(t, zc, &batch), captureCompiled(t, ec, &batch))
			}
		})
	}
}

// TestDefaultSpecKeysIdentical pins the cache-key side of the wall:
// an explicit classic spec must produce the same harness memo key and
// the same config fingerprint as the zero value, so warm caches and
// the on-disk store survive the generalization.
func TestDefaultSpecKeysIdentical(t *testing.T) {
	p, _ := ByName("fir_32_1")
	for _, mode := range []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup} {
		zero := CacheKey(p, mode, RunOptions{})
		expl := CacheKey(p, mode, RunOptions{Banks: 2, Ports: 1})
		if zero != expl {
			t.Errorf("%v: cache key %q (zero) != %q (explicit 2x1)", mode, zero, expl)
		}
		if got, zero := FingerprintSpec(mode, machine.BankSpec{Banks: 2, PortsPerBank: 1}), FingerprintSpec(mode, machine.BankSpec{}); got != zero {
			t.Errorf("%v: fingerprint %q (explicit) != %q (zero)", mode, got, zero)
		}
		hw := CacheKey(p, mode, RunOptions{Banks: 4})
		if hw == zero {
			t.Errorf("%v: 4-bank cache key collides with the classic key %q", mode, zero)
		}
	}
}
