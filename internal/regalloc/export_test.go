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
