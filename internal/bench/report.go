package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file defines the machine-readable harness report written by
// `dspbench -json`: every figure/table's rows plus per-section
// wall-clock timings and the run cache's hit/miss traffic, so the
// repository's performance trajectory is trackable across commits.

// Report is the full output of one harness invocation.
type Report struct {
	// GOMAXPROCS and Parallel record the machine and pool width the
	// run used, for comparing timings across hosts.
	GOMAXPROCS int `json:"gomaxprocs"`
	Parallel   int `json:"parallel"`

	Sections []Section `json:"sections"`

	// Runs is the compile/simulate wall-clock split of every executed
	// (benchmark, mode) measurement, sorted by benchmark then mode.
	Runs []RunTiming `json:"runs,omitempty"`

	// SimBench is the per-engine simulator throughput suite (`dspbench
	// -simbench`); BENCH_sim.json is a Report carrying only this field.
	SimBench []SimBenchRow `json:"simbench,omitempty"`

	// Cache is the memoized run cache's traffic over the whole
	// invocation; TotalSeconds the end-to-end harness wall clock.
	Cache        CacheStats `json:"cache"`
	TotalSeconds float64    `json:"total_seconds"`
}

// Section is one experiment's rows and wall-clock cost. Exactly one of
// Figure, Table3 and Sweep is populated, matching the section kind.
type Section struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`

	Figure []FigureRow `json:"figure,omitempty"`
	Table3 []Table3Row `json:"table3,omitempty"`
	Sweep  []SweepRow  `json:"sweep,omitempty"`
}

// AddSection appends a timed section to the report.
func (r *Report) AddSection(s Section) { r.Sections = append(r.Sections, s) }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport reads a report previously written by WriteFile — the
// -simcheck path for loading the committed BENCH_sim.json baseline.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Report)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
