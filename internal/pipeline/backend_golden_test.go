package pipeline_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/asm"
	"dualbank/internal/bench"
	"dualbank/internal/cost"
	"dualbank/internal/genmc"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
)

// backendCell is one back-end configuration of the golden matrix.
type backendCell struct {
	spec machine.BankSpec
	mode alloc.Mode
	perm []int
	safe bool
}

// backendCells is the golden matrix run on every program: the seven
// modes under the identity and the swapped bank order on the paper's
// 2×1 machine, Dup and swapped full duplication interrupt-safe, and
// the five placement modes under the identity and the reversed bank
// order on each other BENCH_hw.json geometry.
func backendCells() []backendCell {
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled, alloc.CBDup,
		alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	swap := []int{1, 0}
	var cells []backendCell
	for _, mode := range modes {
		cells = append(cells, backendCell{mode: mode}, backendCell{mode: mode, perm: swap})
	}
	cells = append(cells,
		backendCell{mode: alloc.CBDup, safe: true},
		backendCell{mode: alloc.FullDup, perm: swap, safe: true})
	for _, spec := range []machine.BankSpec{
		{Banks: 3, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 1},
		{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2},
	} {
		rev := make([]int, spec.Banks)
		for i := range rev {
			rev[i] = spec.Banks - 1 - i
		}
		for _, mode := range modes[:5] {
			cells = append(cells, backendCell{spec: spec, mode: mode}, backendCell{spec: spec, mode: mode, perm: rev})
		}
	}
	return cells
}

// backendFingerprint hashes what a back end produces: the allocated
// IR, every memory operation's bank tag and atomic flag, every
// symbol's bank, address and duplication, the assembly listing, the
// cost model's footprint, the coherence-store count and the
// interference graph.
func backendFingerprint(c *pipeline.Compiled) [32]byte {
	var b strings.Builder
	b.WriteString(c.IR.String())
	for _, f := range c.IR.Funcs {
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if op.IsMem() {
					fmt.Fprintf(&b, "%v %v\n", op.Bank, op.Atomic)
				}
			}
		}
	}
	for _, s := range c.IR.Symbols() {
		fmt.Fprintf(&b, "%s %v %d %v\n", s.Name, s.Bank, s.Addr, s.Duplicated)
	}
	b.WriteString(asm.Print(c.Sched))
	fmt.Fprintf(&b, "%+v\ndup stores %d\n", cost.Of(c.Alloc, c.Sched), c.Alloc.DupStores)
	if c.Alloc.Graph != nil {
		b.WriteString(c.Alloc.Graph.String())
	}
	return sha256.Sum256([]byte(b.String()))
}

// backendGolden returns one line per cell of the matrix for the 23
// benchmarks and a 30-program generated sample: program, geometry,
// mode, permutation, interrupt-safe flag and the back end's
// fingerprint.
func backendGolden(t *testing.T) []string {
	t.Helper()
	progs := append(bench.Kernels(), bench.Applications()...)
	for _, k := range genmc.Population(30, 1) {
		g := genmc.Generate(k)
		progs = append(progs, bench.Program{Name: g.Name, Source: g.Source})
	}
	cells := backendCells()
	cc := new(pipeline.Compiler)
	var lines []string
	for _, p := range progs {
		prep, err := pipeline.Prepare(context.Background(), p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, cell := range cells {
			c, err := cc.Finish(context.Background(), prep, pipeline.Options{
				Mode: cell.mode, InterruptSafe: cell.safe, Spec: cell.spec, BankPerm: cell.perm,
			})
			if err != nil {
				t.Fatalf("%s %s %v %v: %v", p.Name, cell.spec, cell.mode, cell.perm, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %v %v %v %x",
				p.Name, cell.spec, cell.mode, cell.perm, cell.safe, backendFingerprint(c)))
		}
	}
	return lines
}

// TestBackendGolden pins every back end — allocation plan, coherence
// stores, layout and schedule — over every bank geometry, permutation
// and mode the allocation and compaction passes distinguish, so a
// refactor of either pass cannot move a single bank tag, address or
// long instruction unnoticed. The file changes only with a back-end
// change meant to change its output.
func TestBackendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("back-end golden matrix in short mode")
	}
	golden := filepath.Join("testdata", "backend.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := backendGolden(t)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", golden, i+1, got[i], want[i])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, want %d", golden, len(got), len(want))
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "backend-*.golden")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
			t.Fatal(err)
		}
		t.Logf("if the change is intended, regenerate with:\n  cp %s internal/pipeline/%s", f.Name(), golden)
	}
}
