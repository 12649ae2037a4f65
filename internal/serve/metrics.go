package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dualbank/internal/bench"
)

// Metrics is dspservd's observability surface: request counters by
// status code, an in-flight gauge, and compile/simulate latency
// histograms, rendered in the Prometheus text exposition format (no
// client library — the format is four lines of fmt). The memo cache's
// hit/miss counters are pulled from the harness at scrape time.
type Metrics struct {
	inFlight atomic.Int64

	mu       sync.Mutex
	requests map[int]int64
	compile  histogram
	simulate histogram
	// exploreJobs counts exploration jobs by lifecycle event
	// ("submitted", "done", "failed", "cancelled"); exploreEvals counts
	// their evaluations by source ("run", "cache", "store",
	// "infeasible").
	exploreJobs  map[string]int64
	exploreEvals map[string]int64
	// shed counts load-shed requests by reason ("queue" for bounded
	// admission, "rate" for the per-client limiter).
	shed map[string]int64
	// engineRuns counts measurement dispatches by simulation engine
	// ("compiled", "machine"), so a deployment's engine mix is
	// visible at a glance.
	engineRuns map[string]int64
}

// latencyBounds are the histogram bucket upper bounds in seconds,
// spanning sub-millisecond cache hits to multi-second hostile sources.
var latencyBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Guarded by Metrics.mu.
type histogram struct {
	counts [len(latencyBounds) + 1]int64 // one per bound, plus +Inf
	sum    float64
	n      int64
}

// observe adds one sample.
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(latencyBounds[:], v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// quantile estimates q (in [0,1]) by linear interpolation inside the
// owning bucket, saturating at the last finite bound.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if seen+float64(c) < rank || c == 0 {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBounds[i-1]
		}
		hi := lo
		if i < len(latencyBounds) {
			hi = latencyBounds[i]
		}
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	return latencyBounds[len(latencyBounds)-1]
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:     make(map[int]int64),
		exploreJobs:  make(map[string]int64),
		exploreEvals: make(map[string]int64),
		shed:         make(map[string]int64),
		engineRuns:   make(map[string]int64),
	}
}

// EngineRun counts one measurement dispatch by simulation engine.
func (m *Metrics) EngineRun(engine string) {
	m.mu.Lock()
	m.engineRuns[engine]++
	m.mu.Unlock()
}

// Shed counts one load-shed request by reason.
func (m *Metrics) Shed(reason string) {
	m.mu.Lock()
	m.shed[reason]++
	m.mu.Unlock()
}

// ExploreJob counts one exploration-job lifecycle event.
func (m *Metrics) ExploreJob(event string) {
	m.mu.Lock()
	m.exploreJobs[event]++
	m.mu.Unlock()
}

// ExploreEval counts one exploration evaluation by result source.
func (m *Metrics) ExploreEval(source string) {
	m.mu.Lock()
	m.exploreEvals[source]++
	m.mu.Unlock()
}

// RequestStart marks a request in flight; the returned func undoes it.
func (m *Metrics) RequestStart() func() {
	m.inFlight.Add(1)
	return func() { m.inFlight.Add(-1) }
}

// RequestDone counts one finished request by HTTP status code.
func (m *Metrics) RequestDone(code int) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
}

// ObserveRun records the phase latencies of one successful measurement
// this server executed.
func (m *Metrics) ObserveRun(compileSeconds, simSeconds float64) {
	m.mu.Lock()
	m.compile.observe(compileSeconds)
	m.simulate.observe(simSeconds)
	m.mu.Unlock()
}

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// Snapshot is a point-in-time copy of the registry for tests and
// report generation.
type Snapshot struct {
	Requests map[int]int64
	Shed     map[string]int64
	// EngineRuns is the measurement-dispatch count by simulation
	// engine.
	EngineRuns map[string]int64
	InFlight   int64
	// CompileP50/P99 and SimP50/P99 are bucket-interpolated latency
	// quantiles in seconds; Runs is the number of observed
	// measurements.
	CompileP50, CompileP99 float64
	SimP50, SimP99         float64
	Runs                   int64
}

// Snapshot copies the current counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Requests:   make(map[int]int64, len(m.requests)),
		Shed:       make(map[string]int64, len(m.shed)),
		EngineRuns: make(map[string]int64, len(m.engineRuns)),
		InFlight:   m.inFlight.Load(),
		CompileP50: m.compile.quantile(0.50),
		CompileP99: m.compile.quantile(0.99),
		SimP50:     m.simulate.quantile(0.50),
		SimP99:     m.simulate.quantile(0.99),
		Runs:       m.compile.n,
	}
	for code, n := range m.requests {
		s.Requests[code] = n
	}
	for reason, n := range m.shed {
		s.Shed[reason] = n
	}
	for engine, n := range m.engineRuns {
		s.EngineRuns[engine] = n
	}
	return s
}

// WriteTo renders the registry in the Prometheus text format, merging
// in the memo cache's traffic and the pool's occupancy.
func (m *Metrics) WriteTo(w io.Writer, cache bench.CacheStats, poolActive int64, poolWorkers int) {
	fmt.Fprintf(w, "# HELP dspservd_in_flight Requests currently being handled.\n")
	fmt.Fprintf(w, "# TYPE dspservd_in_flight gauge\n")
	fmt.Fprintf(w, "dspservd_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP dspservd_pool_active Worker-pool slots currently executing.\n")
	fmt.Fprintf(w, "# TYPE dspservd_pool_active gauge\n")
	fmt.Fprintf(w, "dspservd_pool_active %d\n", poolActive)

	fmt.Fprintf(w, "# HELP dspservd_pool_workers Worker-pool size.\n")
	fmt.Fprintf(w, "# TYPE dspservd_pool_workers gauge\n")
	fmt.Fprintf(w, "dspservd_pool_workers %d\n", poolWorkers)

	fmt.Fprintf(w, "# HELP dspservd_cache_hits_total Memo-cache hits.\n")
	fmt.Fprintf(w, "# TYPE dspservd_cache_hits_total counter\n")
	fmt.Fprintf(w, "dspservd_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# HELP dspservd_cache_misses_total Memo-cache misses (executed measurements).\n")
	fmt.Fprintf(w, "# TYPE dspservd_cache_misses_total counter\n")
	fmt.Fprintf(w, "dspservd_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# HELP dspservd_cache_l2_hits_total Measurements served from the shared L2 result cache.\n")
	fmt.Fprintf(w, "# TYPE dspservd_cache_l2_hits_total counter\n")
	fmt.Fprintf(w, "dspservd_cache_l2_hits_total %d\n", cache.L2Hits)

	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP dspservd_requests_total Finished requests by HTTP status.\n")
	fmt.Fprintf(w, "# TYPE dspservd_requests_total counter\n")
	codes := make([]int, 0, len(m.requests))
	for code := range m.requests {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "dspservd_requests_total{code=%q} %d\n", strconv.Itoa(code), m.requests[code])
	}

	writeLabeled(w, "dspservd_shed_total", "Load-shed requests by reason.", "reason", m.shed)
	writeLabeled(w, "dspservd_engine_runs_total", "Measurement dispatches by simulation engine.", "engine", m.engineRuns)
	writeLabeled(w, "dspservd_explore_jobs_total", "Exploration jobs by lifecycle event.", "event", m.exploreJobs)
	writeLabeled(w, "dspservd_explore_evals_total", "Exploration evaluations by result source.", "source", m.exploreEvals)

	writeHistogram(w, "dspservd_compile_seconds", "Compile-phase latency of executed measurements.", &m.compile)
	writeHistogram(w, "dspservd_simulate_seconds", "Simulate-phase latency of executed measurements.", &m.simulate)
}

// writeLabeled renders one counter family with a single string label.
func writeLabeled(w io.Writer, name, help, label string, counts map[string]int64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, counts[k])
	}
}

func writeHistogram(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, bound := range latencyBounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(latencyBounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}
