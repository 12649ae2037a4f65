package explore

import (
	"context"
	"fmt"
	"sort"

	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/machine"
)

// This file is the hardware co-design sweep: instead of searching
// compiler knobs on one fixed machine, it sweeps machine geometries
// (bank count × ports per bank) and measures a small, fixed set of
// compiler arms on each, producing a three-axis Pareto surface per
// benchmark — cycles × memory cost × hardware cost. The surface
// answers the architecture question the paper fixes by fiat: is the
// second bank worth its silicon, and would a third (or a second port)
// pay for itself?

// HWPoint is one (geometry, configuration) design point.
type HWPoint struct {
	Banks int `json:"banks"`
	Ports int `json:"ports"`
	// HW is the geometry's hardware cost under the
	// machine.BankSpec.HardwareCost model (the classic machine scores
	// 10).
	HW     int    `json:"hw"`
	Config string `json:"config"`
	Cycles int64  `json:"cycles"`
	// Cost is the memory footprint in words under the generalized
	// Cost = Σ banks + k·S + I model.
	Cost int `json:"cost"`
	// Err marks an infeasible (geometry, configuration) pair; such
	// points never join the frontier.
	Err string `json:"err,omitempty"`
}

// dominates3 reports 3-axis Pareto dominance, minimizing cycles,
// memory cost, and hardware cost.
func dominates3(a, b HWPoint) bool {
	if a.Cycles > b.Cycles || a.Cost > b.Cost || a.HW > b.HW {
		return false
	}
	return a.Cycles < b.Cycles || a.Cost < b.Cost || a.HW < b.HW
}

// frontier3 computes the 3-axis frontier by pairwise dominance,
// first-come-wins on exact ties, sorted by (HW, Cost, Cycles). The
// sweep produces tens of points per benchmark, so O(n²) is fine.
func frontier3(pts []HWPoint) []HWPoint {
	var out []HWPoint
	for i, p := range pts {
		if p.Err != "" {
			continue
		}
		alive := true
		for j, q := range pts {
			if q.Err != "" {
				continue
			}
			if dominates3(q, p) ||
				(q.Cycles == p.Cycles && q.Cost == p.Cost && q.HW == p.HW && j < i) {
				alive = false
				break
			}
		}
		if alive {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.HW != b.HW {
			return a.HW < b.HW
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Cycles < b.Cycles
	})
	return out
}

// HWBenchReport is one benchmark's co-design sweep: every measured
// point in sweep order, plus the 3-axis frontier.
type HWBenchReport struct {
	Bench    string    `json:"bench"`
	Points   []HWPoint `json:"points"`
	Frontier []HWPoint `json:"frontier"`
}

// HWReport is a whole sweep's outcome.
type HWReport struct {
	// Geometries lists the swept machine geometries as "BxP" strings.
	Geometries []string        `json:"geometries"`
	Configs    []string        `json:"configs"`
	Benchmarks []HWBenchReport `json:"benchmarks"`
}

// hwArms is the fixed compiler-arm set measured on every geometry: the
// single-bank baseline, the paper's CB point, its profiled and
// duplicate-everything variants, and the strongest partitioner. A
// fixed arm set keeps the sweep's cost linear in geometries while
// still exposing the compiler's best response to each machine.
func hwArms() []Config {
	return []Config{
		{Single: true},
		{Part: core.MethodGreedy},
		{Part: core.MethodGreedy, Profiled: true},
		{Part: core.MethodGreedy, DupAll: true},
		{Part: core.MethodFM},
	}
}

// ExploreHW measures the fixed compiler arms on every geometry for
// every benchmark and returns the 3-axis Pareto surface. Each
// geometry's arms go through the explorer's evaluator, on
// opts.Workers workers. The sweep is deterministic: geometries and
// arms are visited in argument/fixed order, and every measurement
// flows through the harness memo cache when opts.Harness is set.
func ExploreHW(ctx context.Context, progs []bench.Program, specs []machine.BankSpec, opts Options) (*HWReport, error) {
	if len(specs) == 0 {
		specs = []machine.BankSpec{{}, {Banks: 3}, {Banks: 4}, {PortsPerBank: 2}, {Banks: 4, PortsPerBank: 2}}
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("explore: hw sweep: %w", err)
		}
	}
	e := newEngine(opts)
	arms := hwArms()

	rep := &HWReport{}
	for _, s := range specs {
		rep.Geometries = append(rep.Geometries, s.String())
	}
	for _, c := range arms {
		rep.Configs = append(rep.Configs, c.Key())
	}

	for _, p := range progs {
		br := HWBenchReport{Bench: p.Name}
		e.mu.Lock()
		e.done, e.plan = 0, len(specs)*len(arms)
		e.mu.Unlock()
		for _, s := range specs {
			n := s.Norm()
			configs := make([]Config, len(arms))
			for i, c := range arms {
				c.Banks, c.Ports = n.Banks, n.PortsPerBank
				configs[i] = c
			}
			evals, err := e.evalBatch(ctx, p, configs)
			if err != nil {
				return rep, err
			}
			for _, ev := range evals {
				br.Points = append(br.Points, HWPoint{
					Banks: n.Banks, Ports: n.PortsPerBank,
					HW:     n.HardwareCost(),
					Config: ev.Key,
					Cycles: ev.Cycles,
					Cost:   ev.Mem.Total(),
					Err:    ev.Err,
				})
			}
		}
		br.Frontier = frontier3(br.Points)
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	return rep, nil
}
