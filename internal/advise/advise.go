// Package advise turns the compiler's data-allocation analysis into a
// report for the DSP application designer. §4.2 of the paper closes by
// observing that the compiler and the designer must cooperate — the
// designer supplies real-time and area budgets, the compiler reports
// where memory parallelism was found, lost, or purchasable with
// duplication. This report is that conversation's compiler side:
//
//   - the bank partition and its balance,
//   - the parallel-access opportunities the partition could NOT
//     satisfy (residual interference edges), ranked by weight,
//   - the arrays marked for duplication, with their memory price and
//     whether they are read-only (free to duplicate), and
//   - static schedule utilization, including how often the two memory
//     units issue together.
package advise

import (
	"fmt"
	"sort"
	"strings"

	"dualbank/internal/alloc"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
)

// Report renders the advisory text for a compiled program.
func Report(c *pipeline.Compiled) string {
	var sb strings.Builder
	res := c.Alloc
	fmt.Fprintf(&sb, "Data-allocation report for %s (mode %s)\n\n", c.Name, res.Mode)

	// Bank balance, one line per bank: X and Y, then B2, B3, ... on
	// wider machines.
	for b, g := range res.Global {
		w := res.DupWords + g + res.Stack[b]
		fmt.Fprintf(&sb, "Bank %s: %d words (%d duplicated + %d globals + %d stack)\n",
			machine.BankAt(b), w, res.DupWords, g, res.Stack[b])
	}

	if res.Graph == nil {
		fmt.Fprintf(&sb, "\nMode %s performs no partitioning analysis.\n", res.Mode)
		writeStats(&sb, c)
		return sb.String()
	}

	// Residual edges: pairs the partition left in one bank.
	side := map[*ir.Symbol]machine.Bank{}
	for b, set := range res.Part.Sets {
		for _, s := range set {
			side[s] = machine.BankAt(b)
		}
	}
	type residual struct {
		a, b string
		w    int64
	}
	var left []residual
	for i, a := range res.Graph.Nodes {
		for j := i + 1; j < len(res.Graph.Nodes); j++ {
			b := res.Graph.Nodes[j]
			w := res.Graph.Weight(a, b)
			if w > 0 && side[a] == side[b] {
				left = append(left, residual{a.Name, b.Name, w})
			}
		}
	}
	sort.Slice(left, func(i, j int) bool {
		if left[i].w != left[j].w {
			return left[i].w > left[j].w
		}
		return left[i].a < left[j].a
	})
	fmt.Fprintf(&sb, "\nPartition residual cost: %d (parallel-access opportunities left in one bank)\n", res.Part.Cost)
	for i, r := range left {
		if i == 8 {
			fmt.Fprintf(&sb, "  ... and %d more\n", len(left)-8)
			break
		}
		fmt.Fprintf(&sb, "  (%s, %s) weight %d — consider restructuring so these are not co-resident\n",
			r.a, r.b, r.w)
	}
	if len(left) == 0 {
		sb.WriteString("  none: every discovered pair was separated across the banks\n")
	}

	// Duplication candidates.
	var marks []*ir.Symbol
	for _, s := range res.Graph.Nodes {
		if res.Graph.DupMarks[s] && s.IsArray() {
			marks = append(marks, s)
		}
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].Name < marks[j].Name })
	sb.WriteString("\nSame-array parallel accesses (partitioning cannot help; duplication can):\n")
	if len(marks) == 0 {
		sb.WriteString("  none\n")
	}
	for _, s := range marks {
		note := fmt.Sprintf("+%d words and a coherence store per write", s.Size)
		if s.ReadOnly {
			note = fmt.Sprintf("+%d words; READ-ONLY, so duplication needs no coherence stores", s.Size)
		}
		status := "not duplicated"
		if s.Duplicated {
			status = "duplicated"
		}
		fmt.Fprintf(&sb, "  %-16s %s (%s)\n", s.Name, note, status)
	}
	if len(marks) > 0 && res.Mode == alloc.CB {
		sb.WriteString("  hint: compile with partial duplication (mode dup) or run the\n")
		sb.WriteString("  selective refinement (dspbench -selective) to weigh these.\n")
	}

	writeStats(&sb, c)
	return sb.String()
}

func writeStats(sb *strings.Builder, c *pipeline.Compiled) {
	st := c.Sched.StaticStats()
	sb.WriteString("\nStatic schedule utilization:\n")
	fmt.Fprintf(sb, "  %d long instructions, %.2f ops each\n", st.Instrs, st.OpsPerInstr())
	fmt.Fprintf(sb, "  %d memory instructions, %d dual-access (%.0f%% of memory traffic paired)\n",
		st.MemInstrs, st.DualMemInstrs, 100*st.DualMemRatio())
}
