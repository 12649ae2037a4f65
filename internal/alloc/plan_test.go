package alloc_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// allocFingerprint renders everything the allocation pass decides on
// p: the program text with its memory-op bank tags, and every symbol's
// bank, address and duplication.
func allocFingerprint(p *ir.Program) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if op.IsMem() {
					fmt.Fprintf(&b, "%v%v", op.Bank, op.Atomic)
				}
			}
		}
	}
	for _, s := range p.Symbols() {
		fmt.Fprintf(&b, "%s %v %d %v\n", s.Name, s.Bank, s.Addr, s.Duplicated)
	}
	return b.String()
}

// resultString renders every Result field, symbols by name.
func resultString(r *alloc.Result) string {
	var dup []string
	for _, s := range r.Duplicated {
		dup = append(dup, s.Name)
	}
	s := fmt.Sprintf("mode=%v ports=%v spec=%+v dup=%v stores=%d words=%d global=%v stack=%v",
		r.Mode, r.Ports, r.Spec, dup, r.DupStores, r.DupWords, r.Global, r.Stack)
	if r.Graph != nil {
		s += "\ngraph:\n" + r.Graph.String()
	}
	if r.Part != nil {
		s += fmt.Sprintf("\npart:\n%v\ntrace %v", r.Part, r.Part.Trace)
	}
	return s
}

// TestApplyPlanMatchesRun pins the two-step pass to the one-step one:
// planning on a shared prepared program and applying the plan to a
// clone must produce exactly the IR and Result that Run produces on a
// program of its own, while the planned program stays untouched. It
// covers the 23 benchmarks under all seven modes on the classic
// machine, identity and swapped, and the partitioned modes at every
// hardware-sweep geometry with the bank order reversed.
func TestApplyPlanMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation matrix in short mode")
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	var cells []alloc.Options
	for _, perm := range [][]int{nil, {1, 0}} {
		for _, mode := range modes {
			cells = append(cells, alloc.Options{Mode: mode, BankPerm: perm})
		}
	}
	for _, spec := range []machine.BankSpec{
		{Banks: 2, PortsPerBank: 2}, {Banks: 3, PortsPerBank: 1}, {Banks: 3, PortsPerBank: 2},
		{Banks: 4, PortsPerBank: 1}, {Banks: 4, PortsPerBank: 2},
	} {
		perm := make([]int, spec.Banks)
		for i := range perm {
			perm[i] = spec.Banks - 1 - i
		}
		for _, mode := range modes {
			if mode.Partitioned() {
				cells = append(cells, alloc.Options{Mode: mode, Spec: spec}, alloc.Options{Mode: mode, Spec: spec, BankPerm: perm})
			}
		}
	}
	ctx := context.Background()
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		prep, err := pipeline.Prepare(ctx, p.Source, p.Name, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shared := prep.IR()
		before := allocFingerprint(shared)
		counts, err := sim.NewInterp(shared).BlockCounts(ctx)
		if err != nil {
			t.Fatal(err)
		}
		graphs := map[core.WeightPolicy]*core.Graph{
			core.WeightStatic:   new(core.Scanner).BuildGraph(shared, core.WeightStatic),
			core.WeightProfiled: new(core.Scanner).BuildProfiledGraph(shared, counts),
		}
		for _, opts := range cells {
			name := fmt.Sprintf("%s %v %s perm=%v", p.Name, opts.Mode, opts.Spec, opts.BankPerm)
			own := shared.Clone()
			if policy, _ := opts.Policy(); policy == core.WeightProfiled {
				in := sim.NewInterp(own)
				in.Profile = true
				if err := in.Run(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := alloc.Run(own, opts)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			policy, _ := opts.Policy()
			plan, err := alloc.NewPlan(shared, graphs[policy], opts)
			if err != nil {
				t.Fatalf("%s: plan: %v", name, err)
			}
			clone := shared.Clone()
			got, err := alloc.Apply(clone, plan)
			if err != nil {
				t.Fatalf("%s: apply: %v", name, err)
			}
			if allocFingerprint(clone) != allocFingerprint(own) {
				t.Errorf("%s: applied IR differs from Run's", name)
			}
			if g, w := resultString(got), resultString(want); g != w {
				t.Errorf("%s: applied result\n%s\nRun's\n%s", name, g, w)
			}
		}
		if allocFingerprint(shared) != before {
			t.Fatalf("%s: planning wrote the shared program", p.Name)
		}
	}
}

// TestPlanKey checks the key separates every decision a plan carries
// and nothing else: the mode and the analysis are not part of it.
func TestPlanKey(t *testing.T) {
	p := build(t, pairSrc)
	g := core.BuildGraph(p, core.WeightStatic)
	plan := func(o alloc.Options) *alloc.Plan {
		t.Helper()
		pl, err := alloc.NewPlan(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	base := plan(alloc.Options{Mode: alloc.SingleBank}).Key()
	for _, o := range []alloc.Options{
		{Mode: alloc.CB},
		{Mode: alloc.FullDup},
		{Mode: alloc.Ideal},
		{Mode: alloc.LowOrder},
		{Mode: alloc.SingleBank, BankPerm: []int{1, 0}},
		{Mode: alloc.SingleBank, InterruptSafe: true},
		{Mode: alloc.SingleBank, Spec: machine.BankSpec{Banks: 3, PortsPerBank: 1}},
		{Mode: alloc.SingleBank, Spec: machine.BankSpec{Banks: 2, PortsPerBank: 2}},
		{Mode: alloc.SingleBank, Spec: machine.BankSpec{Banks: 2, PortsPerBank: 1, UnitBinding: []int8{1, 0}}},
	} {
		if plan(o).Key() == base {
			t.Errorf("%+v: same key as the single-bank plan", o)
		}
	}
	// Full duplication places every symbol alike under any permutation,
	// but the permutation still orders the coherence stores and the
	// scheduler's units.
	if plan(alloc.Options{Mode: alloc.FullDup, BankPerm: []int{1, 0}}).Key() == plan(alloc.Options{Mode: alloc.FullDup}).Key() {
		t.Error("swapped full duplication keys like the unswapped one")
	}
	for _, o := range []alloc.Options{
		{Mode: alloc.SingleBank, BankPerm: []int{0, 1}},
		{Mode: alloc.SingleBank, Spec: machine.BankSpec{Banks: 2, PortsPerBank: 1}},
		{Mode: alloc.SingleBank, Method: core.MethodFM},
	} {
		if plan(o).Key() != base {
			t.Errorf("%+v: key differs from the equivalent single-bank plan", o)
		}
	}
	cb := plan(alloc.Options{Mode: alloc.CB}).Key()
	if plan(alloc.Options{Mode: alloc.CBDup, DupFilter: func(*ir.Symbol) bool { return false }}).Key() != cb {
		t.Error("Dup with nothing duplicated keys apart from CB")
	}
}

// TestPlanErrors covers the failures the plan step reports before any
// program is touched, and Apply's guard against a foreign plan.
func TestPlanErrors(t *testing.T) {
	p := build(t, pairSrc)
	g := core.BuildGraph(p, core.WeightStatic)
	for _, tc := range []struct {
		o    alloc.Options
		g    *core.Graph
		want string
	}{
		{alloc.Options{Mode: alloc.CB}, nil, "needs the program's interference graph"},
		{alloc.Options{Mode: alloc.Mode(99)}, g, "unknown mode"},
		{alloc.Options{Mode: alloc.CB, BankPerm: []int{0, 0}}, g, "is not a permutation of 0..1"},
		{alloc.Options{Mode: alloc.CB, Spec: machine.BankSpec{Banks: 4}, BankPerm: []int{0, 1}}, g, "has 2 entries"},
		{alloc.Options{Mode: alloc.Ideal, Spec: machine.BankSpec{Banks: 4}}, g, "requires the default 2-bank machine"},
		{alloc.Options{Mode: alloc.CBDup, Spec: machine.BankSpec{Banks: 3}, InterruptSafe: true}, g, "interrupt-safe"},
		{alloc.Options{Mode: alloc.CB, Spec: machine.BankSpec{Banks: 99}}, g, "out of range"},
	} {
		_, err := alloc.NewPlan(p, tc.g, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want %q", tc.o, err, tc.want)
		}
	}
	pl, err := alloc.NewPlan(p, g, alloc.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.Apply(build(t, dupSrc), pl); err == nil || !strings.Contains(err.Error(), "plan covers") {
		t.Errorf("applying a plan to another program: %v", err)
	}
}
