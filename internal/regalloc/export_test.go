package regalloc

import "dualbank/internal/ir"

// InterferenceLists builds f's interference graph and returns its
// adjacency lists and spill costs.
func InterferenceLists(f *ir.Func) ([][]ir.Reg, []float64) {
	g := new(allocator).buildInterference(f)
	return g.adj[:g.n], g.cost[:g.n]
}

// SpillRound runs one of allocFunc's colour-and-spill rounds on f and
// returns how many registers it spilled; zero means f now colours.
func SpillRound(f *ir.Func, firstTemp ir.Reg) int {
	a := new(allocator)
	_, spills := a.color(a.buildInterference(f), firstTemp)
	if len(spills) > 0 {
		a.spill(f, spills, new(Stats))
	}
	return len(spills)
}
