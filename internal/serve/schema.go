// Package serve is the HTTP/JSON layer of dspservd: it turns the
// repository's batch compile-and-simulate pipeline into a long-lived
// service. Requests name either a built-in benchmark or carry MiniC
// source, pick an allocation mode and partitioner, and run on a
// bounded worker pool where each worker owns its reusable compiler
// scratch; named-benchmark results flow through the harness's
// single-flight memo cache. Every request carries a deadline that is
// honored down to the simulator's basic-block boundaries.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/machine"
)

// Request is the JSON body of POST /v1/run. Exactly one of Bench (a
// built-in Table 1/2 benchmark name) and Source (a MiniC translation
// unit) must be set.
type Request struct {
	// Bench names a built-in benchmark (see GET /v1/benchmarks).
	Bench string `json:"bench,omitempty"`
	// Source is a MiniC translation unit to compile and run directly.
	Source string `json:"source,omitempty"`
	// Name labels a Source request in logs and errors ("source" when
	// empty). Ignored for Bench requests.
	Name string `json:"name,omitempty"`
	// Mode is the data-allocation mode; canonical names ("CB", "Dup",
	// "Pr", "single-bank", "full-dup", "Ideal", "low-order") and the
	// dspcc short forms ("cb", "dup", "pr", "single", "fulldup",
	// "ideal", "loworder") are accepted. Defaults to CB.
	Mode string `json:"mode,omitempty"`
	// Partitioner picks the graph-partitioning algorithm: greedy
	// (default), kl, anneal, or fm.
	Partitioner string `json:"partitioner,omitempty"`
	// Profiled applies profile-derived edge weights to any partitioned
	// mode (the Pr mode implies it).
	Profiled bool `json:"profiled,omitempty"`
	// FMPasses bounds the fm partitioner's refinement passes: 0 is the
	// library default, a negative value stops after the first pass, a
	// positive value is an exact bound. Requires the fm partitioner.
	FMPasses int `json:"fm_passes,omitempty"`
	// Dup names the exact arrays to duplicate instead of the paper's
	// marked-array policy. Requires the Dup mode.
	Dup []string `json:"dup,omitempty"`
	// Banks and Ports select the machine geometry — data-bank count and
	// ports per bank. Zero values are the classic 2-bank, single-ported
	// machine. The Ideal and low-order modes model the classic machine
	// only.
	Banks int `json:"banks,omitempty"`
	Ports int `json:"ports,omitempty"`
	// Engine pins the simulation engine for this request: compiled or
	// machine. Empty uses the server's configured engine. The cluster
	// forwarder sets it explicitly so every node computes the identical
	// memo key for one request.
	Engine string `json:"engine,omitempty"`
	// TimeoutMs caps this request's compile+simulate wall clock; zero
	// means the server default. The server clamps it to its maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Response is the JSON body of a successful POST /v1/run: the fields
// of one bench.Result plus the memory-footprint breakdown and whether
// the result came from the memo cache.
type Response struct {
	Bench       string `json:"bench"`
	Mode        string `json:"mode"`
	Partitioner string `json:"partitioner"`
	Cycles      int64  `json:"cycles"`

	MemXData int `json:"mem_x_data"`
	MemYData int `json:"mem_y_data"`
	MemStack int `json:"mem_stack"`
	MemInstr int `json:"mem_instr"`
	// MemExtra and MemNBanks carry the extra banks' data sizes and the
	// bank count for multi-bank requests; absent on the classic machine.
	MemExtra  []int `json:"mem_extra,omitempty"`
	MemNBanks int   `json:"mem_nbanks,omitempty"`
	MemTotal  int   `json:"mem_total"`

	DupStores  int      `json:"dup_stores"`
	Duplicated []string `json:"duplicated,omitempty"`

	CompileSeconds float64 `json:"compile_seconds"`
	SimSeconds     float64 `json:"sim_seconds"`

	// Cached reports whether the measurement was served from (or
	// coalesced onto) an existing memo-cache entry.
	Cached bool `json:"cached"`
}

// ResponseFor maps one measurement into the wire schema.
func ResponseFor(res bench.Result, method core.Method, cached bool) Response {
	return Response{
		Bench:          res.Bench,
		Mode:           res.Mode.String(),
		Partitioner:    method.String(),
		Cycles:         res.Cycles,
		MemXData:       res.Mem.XData,
		MemYData:       res.Mem.YData,
		MemStack:       res.Mem.Stack,
		MemInstr:       res.Mem.Instr,
		MemExtra:       res.Mem.Extra,
		MemNBanks:      res.Mem.NBanks,
		MemTotal:       res.Mem.Total(),
		DupStores:      res.DupStores,
		Duplicated:     res.Duplicated,
		CompileSeconds: res.CompileSeconds,
		SimSeconds:     res.SimSeconds,
		Cached:         cached,
	}
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Job is a validated, executable request.
type Job struct {
	// Prog is the request's source program, or for a named benchmark a
	// name-only Program (see bench.Program) that only the harness
	// builds.
	Prog bench.Program
	Mode alloc.Mode
	// Opts carries every measurement knob of the request — partitioner,
	// the explorer's knobs, machine geometry, and the pinned engine. Use
	// Options to read them: Opts.Engine is meaningful only when
	// EngineSet is true (the zero Engine is a valid engine).
	Opts      bench.RunOptions
	EngineSet bool
	// Timeout is the request's own deadline; zero means the server
	// default applies.
	Timeout time.Duration
	// Cacheable marks named-benchmark jobs, whose results are pure
	// functions of (name, mode, partitioner) and safe to memoize.
	// Source jobs always compile and simulate afresh.
	Cacheable bool
}

// Options returns the job's measurement options with the engine
// resolved: the request's own pin, or def when it carried none. The
// memo key, the shared L2 key, and the cluster routing key all derive
// from this one mapping.
func (j Job) Options(def bench.Engine) bench.RunOptions {
	ro := j.Opts
	if !j.EngineSet {
		ro.Engine = def
	}
	return ro
}

// ErrUnknownBench marks a request for a benchmark name the suite does
// not contain; the HTTP layer maps it to 404.
var ErrUnknownBench = errors.New("unknown benchmark")

// Modes lists every accepted canonical mode name, in experiment order.
func Modes() []string {
	all := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
	}
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.String()
	}
	return names
}

// ParseMode resolves a mode string (see alloc.ParseMode).
func ParseMode(s string) (alloc.Mode, error) { return alloc.ParseMode(s) }

// DecodeRequest parses and validates one request body. It enforces the
// source-size cap, rejects unknown JSON fields, resolves the mode and
// partitioner, and validates benchmark names without building their
// programs. It never panics on hostile input — the fuzz target holds
// it to that.
func DecodeRequest(data []byte, maxSource int) (Job, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Job{}, fmt.Errorf("bad request body: %w", err)
	}
	// A body holding two JSON values is malformed, not a request plus
	// trailing garbage to silently accept.
	if dec.More() {
		return Job{}, fmt.Errorf("bad request body: trailing data after JSON object")
	}
	return req.Job(maxSource)
}

// Job validates the request and resolves it into an executable Job.
func (req *Request) Job(maxSource int) (Job, error) {
	switch {
	case req.Bench == "" && req.Source == "":
		return Job{}, fmt.Errorf("one of %q or %q is required", "bench", "source")
	case req.Bench != "" && req.Source != "":
		return Job{}, fmt.Errorf("%q and %q are mutually exclusive", "bench", "source")
	case req.TimeoutMs < 0:
		return Job{}, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMs)
	case maxSource > 0 && len(req.Source) > maxSource:
		return Job{}, fmt.Errorf("source is %d bytes, limit %d", len(req.Source), maxSource)
	}

	j := Job{Timeout: time.Duration(req.TimeoutMs) * time.Millisecond}

	mode := req.Mode
	if mode == "" {
		mode = "CB"
	}
	var err error
	if j.Mode, err = ParseMode(mode); err != nil {
		return Job{}, err
	}
	if req.Partitioner != "" {
		if j.Opts.Partitioner, err = core.ParseMethod(req.Partitioner); err != nil {
			return Job{}, fmt.Errorf("unknown partitioner %q (want greedy, kl, anneal, fm, or exact)", req.Partitioner)
		}
	}
	if req.FMPasses != 0 && j.Opts.Partitioner != core.MethodFM {
		return Job{}, fmt.Errorf("fm_passes requires the fm partitioner")
	}
	if len(req.Dup) > 0 && j.Mode != alloc.CBDup {
		return Job{}, fmt.Errorf("dup requires mode %q", alloc.CBDup)
	}
	j.Opts.FMPasses = req.FMPasses
	j.Opts.Profiled = req.Profiled
	j.Opts.DupOnly = req.Dup
	if req.Banks != 0 || req.Ports != 0 {
		spec := machine.BankSpec{Banks: req.Banks, PortsPerBank: req.Ports}
		if err := spec.Validate(); err != nil {
			return Job{}, err
		}
		if !spec.IsDefault() && (j.Mode == alloc.Ideal || j.Mode == alloc.LowOrder) {
			return Job{}, fmt.Errorf("mode %q models the classic 2-bank machine only", j.Mode)
		}
		j.Opts.Banks, j.Opts.Ports = req.Banks, req.Ports
	}
	if req.Engine != "" {
		if j.Opts.Engine, err = bench.ParseEngine(req.Engine); err != nil {
			return Job{}, err
		}
		j.EngineSet = true
	}

	if req.Bench != "" {
		if !bench.Known(req.Bench) {
			return Job{}, fmt.Errorf("%w %q (see /v1/benchmarks)", ErrUnknownBench, req.Bench)
		}
		j.Prog = bench.Program{Name: req.Bench}
		j.Cacheable = true
		return j, nil
	}
	name := req.Name
	if name == "" {
		name = "source"
	}
	j.Prog = bench.Program{Name: name, Source: req.Source}
	return j, nil
}
