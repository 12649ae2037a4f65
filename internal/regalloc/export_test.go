package regalloc

import "dualbank/internal/ir"

// InterferenceLists builds f's interference graph and returns its
// adjacency lists and spill costs.
func InterferenceLists(f *ir.Func) ([][]ir.Reg, []float64) {
	g := new(Allocator).buildInterference(f)
	return g.adj[:g.n], g.cost[:g.n]
}

// SpillRound runs one of allocFunc's colour-and-spill rounds on f and
// returns how many registers it spilled; zero means f now colours.
func SpillRound(f *ir.Func, firstTemp ir.Reg) int {
	a := new(Allocator)
	_, spills := a.color(a.buildInterference(f), firstTemp)
	if len(spills) > 0 {
		a.spill(f, spills, new(Stats))
	}
	return len(spills)
}

// BuildInterference builds f's interference graph with a's scratch.
func (a *Allocator) BuildInterference(f *ir.Func) { a.buildInterference(f) }

// WideFunc returns a function named name that keeps n integer scalars
// live across a loop.
func WideFunc(name string, n int) string { return wideFunc(name, n) }

// HeldIR counts the IR pointers a's scratch holds, over each slice's
// whole capacity.
func (a *Allocator) HeldIR() int {
	n := 0
	for _, op := range a.ops[:cap(a.ops)] {
		if op != nil {
			n++
		}
	}
	for _, s := range a.slot[:cap(a.slot)] {
		if s != nil {
			n++
		}
	}
	return n
}
