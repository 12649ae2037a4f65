// Package cost implements the paper's first-order memory cost model
// (§4.2):
//
//	Cost = X + Y + 2·S + I
//
// where X and Y are the data sizes of the two memory banks in words, S
// is the stack size (reserved symmetrically in both banks, hence the
// factor of two), and I is the instruction-memory size — the paper
// assumes one word per long instruction. From two cost figures the
// package derives the Cost Increase (CI) and, combined with cycle
// counts, the Performance Gain (PG) and Performance/Cost Ratio (PCR)
// reported in Table 3.
package cost

import (
	"slices"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
)

// Memory is the word-level memory footprint of a compiled program.
type Memory struct {
	// XData and YData are each bank's data size: the duplicated region
	// (present in both banks) plus the bank's private globals.
	XData, YData int
	// Extra are the data sizes of banks beyond the classic X/Y pair,
	// in bank order; empty on the 2-bank machine.
	Extra []int
	// Stack is the static stack reservation S; every bank reserves it.
	Stack int
	// Instr is the instruction-memory size in words (one per long
	// instruction).
	Instr int
	// NBanks is the number of banks reserving the stack, set only off
	// the paper's machine; 0 means the paper's two (the 2·S term), and
	// keeps the field out of that machine's JSON records.
	NBanks int
}

// Of computes the footprint from an allocation result and a schedule:
// one data term per bank, and the deepest bank's stack reserved in
// every bank.
func Of(a *alloc.Result, sched *compact.Program) Memory {
	m := Memory{
		XData: a.DupWords + a.Global[0],
		YData: a.DupWords + a.Global[1],
		Stack: slices.Max(a.Stack),
		Instr: sched.StaticInstrs(),
	}
	for _, g := range a.Global[2:] {
		m.Extra = append(m.Extra, a.DupWords+g)
	}
	if !a.Spec.IsDefault() {
		m.NBanks = len(a.Global)
	}
	return m
}

// Total evaluates the cost model, generalized to k banks: every bank's
// data plus k·S plus instruction memory (the paper's X + Y + 2·S + I
// on the classic machine).
func (m Memory) Total() int {
	nb := m.NBanks
	if nb < 2 {
		nb = 2
	}
	t := m.XData + m.YData + nb*m.Stack + m.Instr
	for _, e := range m.Extra {
		t += e
	}
	return t
}

// Metrics bundles the Table 3 quantities for one technique relative to
// the unoptimized (single-bank) reference.
type Metrics struct {
	PG  float64 // performance gain: baseCycles / cycles
	CI  float64 // cost increase: cost / baseCost
	PCR float64 // performance/cost ratio: PG / CI
}

// Compare derives PG/CI/PCR for a technique against the baseline.
func Compare(baseCycles, cycles int64, base, mem Memory) Metrics {
	pg := float64(baseCycles) / float64(cycles)
	ci := float64(mem.Total()) / float64(base.Total())
	return Metrics{PG: pg, CI: ci, PCR: pg / ci}
}
