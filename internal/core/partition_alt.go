package core

import "fmt"

// Besides the paper's greedy walk, Graph.PartitionK offers alternative
// partitioners used to validate the paper's choice of the simple
// greedy algorithm:
//
//   - kl refines the greedy result with Kernighan–Lin-style passes (the
//     paper notes "other algorithms, such as graph colouring, will
//     probably work just as well").
//   - anneal is a simulated-annealing partitioner in the spirit of
//     Sudarsanam & Malik's constraint-graph labelling, which the
//     paper's related-work section discusses; the Princeton study
//     found annealing performed no better than a greedy heuristic, a
//     result this reproduction's tests confirm on the benchmark suite.
//   - fm (partition_fm.go) is the fast path: a Fiduccia–Mattheyses
//     partitioner over an indexed gain heap that reproduces the greedy
//     walk in O((V + E) log V) time and then refines it.
//   - exact is the certified branch-and-bound search in internal/exact.
//
// All are deterministic (the annealer runs under a fixed seed).

// Method selects a partitioning algorithm.
type Method int8

const (
	// MethodGreedy is the paper's Figure 5 algorithm.
	MethodGreedy Method = iota
	// MethodKL is greedy followed by Kernighan–Lin refinement.
	MethodKL
	// MethodAnneal is simulated annealing.
	MethodAnneal
	// MethodFM is the Fiduccia–Mattheyses partitioner: the greedy walk
	// replayed on an indexed gain heap, O(log v) best-move extraction
	// and in-place gain updates, followed by FM refinement passes.
	// Never worse than greedy, asymptotically faster. Beyond two banks
	// it refines the k-way greedy walk with KL's passes.
	MethodFM
	// MethodExact is the certified branch-and-bound partitioner from
	// internal/exact: it seeds an incumbent from the heuristics and
	// proves optimality (or a bound) within a deterministic node
	// budget, so it is never costlier than any heuristic arm. The
	// implementation lives outside this package and registers itself
	// via RegisterExactPartitioner; alloc links it, so every pipeline
	// caller has it available behind the -partitioner flag.
	MethodExact
)

func (m Method) String() string {
	switch m {
	case MethodKL:
		return "kl"
	case MethodAnneal:
		return "anneal"
	case MethodFM:
		return "fm"
	case MethodExact:
		return "exact"
	}
	return "greedy"
}

// ParseMethod parses a partitioner name as printed by Method.String.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "greedy":
		return MethodGreedy, nil
	case "kl":
		return MethodKL, nil
	case "anneal":
		return MethodAnneal, nil
	case "fm":
		return MethodFM, nil
	case "exact":
		return MethodExact, nil
	}
	return 0, fmt.Errorf("core: unknown partition method %q (want greedy, kl, anneal, fm, or exact)", s)
}
