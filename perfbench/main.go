// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output against baselines
// captured from the repository's reference results, and prints every
// metric by name and unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload paper-matrix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays every
// operation pass by pass through each layer's public functions, with a
// span around every call, and reports the per-layer metrics instead.
// --steady N runs a workload N times with seeds 1..N in child
// processes and reports each metric's median and quartile spread
// against the bounds in ./BENCHMARK.json. The traced run writes its
// spans to .bench_build/trace-<workload>.jsonl. Build and run it through
// run.sh, which keeps build output inside the checkout.
//
// Everything runs in one process on at most two threads of work.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"ok_frac", "frac"},
	{"sim_cycles", "cycles"},
	{"mem_words", "words"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules. Times are self time per pass.
var perLayer = []metricDef{
	{"minic.parse_s", "s"},
	{"minic.analyze_s", "s"},
	{"lower.s", "s"},
	{"opt.s", "s"},
	{"ir.verify_s", "s"},
	{"regalloc.s", "s"},
	{"minic.src_kb", "KiB"},
	{"lower.ir_ops", "count"},
	{"opt.ir_ops_out", "count"},
	{"regalloc.spills", "count"},
	{"sim.profile_s", "s"},
	{"alloc.s", "s"},
	{"alloc.graph_nodes", "count"},
	{"alloc.graph_edges", "count"},
	{"alloc.dup_stores", "count"},
	{"compact.s", "s"},
	{"compact.validate_s", "s"},
	{"compact.instrs", "count"},
	{"compact.ops_per_instr", "ratio"},
	{"sim.lower_s", "s"},
	{"sim.run_s", "s"},
	{"sim.ns_per_cycle", "ns"},
	{"bench.check_s", "s"},
	{"bench.cache_hits", "count"},
	{"bench.cache_misses", "count"},
	{"explore.self_s", "s"},
	{"explore.evals", "count"},
	{"serve.self_ms", "ms"},
	{"serve.hit_frac", "frac"},
	{"genmc.gen_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// runConfig is one run's arguments.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	log      io.Writer
	setup    *setupTimer // nil when traced; workloads tick it between operations
}

// outcome is what a workload run produces: its operation tally and the
// metric values, by name.
type outcome struct {
	tally   *tally
	metrics map[string]float64
}

// workload is one named workload: its run, which sets it up itself, and
// that set-up on its own, which returns the tear-down.
type workload struct {
	run   func(context.Context, runConfig) (*outcome, error)
	setup func(seed int64) (teardown func(), err error)
}

// workloads maps each workload name to its functions.
var workloads = map[string]workload{
	"paper-matrix": {runPaper, func(int64) (func(), error) {
		_, err := setupPaper()
		return func() {}, err
	}},
	"explore-sweep": {runExplore, func(int64) (func(), error) {
		_, err := setupExplore()
		return func() {}, err
	}},
	"serve-gen": {runServe, func(seed int64) (func(), error) {
		st, err := setupServe(seed)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	}},
}

// maxProcs caps the Go scheduler at the two threads of work the
// workloads are sized for.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 replays every operation pass by pass and reports the per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times with seeds 1..N and report each metric's median and spread")
	capture := fs.String("capture-paper", "", "measure the paper matrix once and write its baseline JSON to this file")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once, print "+setupReady+" when it is, tear it down and exit (runs time their set-up in such child processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)

	if *capture != "" {
		if err := capturePaper(*capture); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	case *setupOnly:
		return setupOnce(w, *seed, stdout, stderr)
	case *steady > 0:
		return runSteady(*steady, *workload, *seconds, *traceFlag, stdout, stderr)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, log: stderr,
		traceOut: filepath.Join(".bench_build", "trace-"+*workload+".jsonl")}
	out, err := runWorkload(context.Background(), *workload, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	attempted, failed := out.tally.counts()
	fmt.Fprintf(stderr, "%s seed %d: %s\n", *workload, *seed, out.tally.summary())
	fmt.Fprintf(stderr, "  %-24s %14.6g\n", "fail_frac", out.tally.failFrac())
	for _, d := range defs {
		fmt.Fprintf(stderr, "  %-24s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	fmt.Fprintln(stdout, line)
	if failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the result line's schema.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the outcome's result line, holding exactly the
// metrics in defs. A missing, extra or non-finite metric is an error in
// the benchmark itself.
func resultLine(out *outcome, defs []metricDef) (string, error) {
	attempted, failed := out.tally.counts()
	r := result{
		Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return "", fmt.Errorf("metric %q [%s] has an invalid name or unit", d.name, d.unit)
		}
		v, ok := out.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(out.metrics) != len(defs) {
		return "", fmt.Errorf("%d metrics measured, %d defined", len(out.metrics), len(defs))
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// runWorkload runs the named workload. Untraced, it also times the
// workload's set-up over the timed phase and reports it as setup_s.
func runWorkload(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	if !cfg.trace {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cfg.setup = &setupTimer{exe: exe, name: name, seed: cfg.seed, log: cfg.log,
			every: time.Duration(cfg.seconds / setupReps * float64(time.Second))}
	}
	out, err := workloads[name].run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.setup != nil {
		if out.metrics["setup_s"], err = cfg.setup.finish(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setupReps is how many child processes a run times its workload's
// set-up in. setup_s is the median.
const setupReps = 15

// setupReady is the line a --setup-only child prints once set up.
const setupReady = "ready"

// setupTimer times a workload's set-up in setupReps child processes of
// this binary run with --setup-only, from starting a child to its
// report that it is ready: process start to first operation issuable.
// The children are spread evenly over the timed phase. Neighbours on a
// shared machine come and go over tens of seconds, so children started
// back to back would all see one moment's neighbours, and set-ups
// repeated within one process would share its heap and page state.
type setupTimer struct {
	exe, name string
	seed      int64
	log       io.Writer
	every     time.Duration // between children
	last      time.Time     // when the last child ended
	times     []float64
	err       error
}

// due reports whether the next child is due. A workload calls it, and
// tick, between operations, with none in flight.
func (s *setupTimer) due() bool {
	return s != nil && s.err == nil && len(s.times) < setupReps && time.Since(s.last) >= s.every
}

// tick runs the next child if it is due.
func (s *setupTimer) tick() {
	if s.due() {
		s.runOne()
	}
}

func (s *setupTimer) runOne() {
	d, err := setupChild(s.exe, s.name, s.seed, s.log)
	if err != nil {
		s.err = err
		return
	}
	s.times = append(s.times, d)
	s.last = time.Now()
}

// finish runs the children a short timed phase left owing and returns
// the median set-up time.
func (s *setupTimer) finish() (float64, error) {
	for s.err == nil && len(s.times) < setupReps {
		s.runOne()
	}
	if s.err != nil {
		return 0, fmt.Errorf("set-up: %w", s.err)
	}
	t := sortedCopy(s.times)
	fmt.Fprintf(s.log, "  set-up in %d child processes: fastest %.4gs, median %.4gs, slowest %.4gs\n",
		len(t), t[0], median(t), t[len(t)-1])
	return median(t), nil
}

// setupChild times one --setup-only child and waits for it to end.
func setupChild(exe, name string, seed int64, log io.Writer) (float64, error) {
	cmd := exec.Command(exe, "--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0).Seconds()
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != setupReady+"\n" {
		return 0, fmt.Errorf("set-up child printed %q (%v)", line, readErr)
	}
	return d, nil
}

// setupOnce is a --setup-only child's whole run.
func setupOnce(w workload, seed int64, stdout, stderr io.Writer) int {
	teardown, err := w.setup(seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, setupReady)
	teardown()
	return 0
}

// heapBytes returns the Go heap's cumulative allocated bytes.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quietShare is the share of a run's passes its timings are taken
// from: the fastest tenth. Neighbours on a shared machine contend for
// memory for tens of seconds at a time and slow a pass by up to half;
// the fastest tenth of a long run measures the program rather than how
// much of the run such a stretch covered.
const quietShare = 0.1

// quiet returns the nearest-rank quietShare quantile of v, which must
// not be empty: the time the quiet stretches of a run see.
func quiet(v []float64) float64 {
	s := sortedCopy(v)
	return s[int(math.Ceil(quietShare*float64(len(s))))-1]
}

// opSample is one operation's latency in one pass of a batch workload.
// id names the operation: equal ids in two passes are the same
// measurement.
type opSample struct {
	id   int
	cold bool // the pass's first operation on its program
	ms   float64
}

// opLatencies reduces a batch run's samples, samples[p] being pass p's,
// to one latency per operation — per operation and cold or warm status
// for the split. Every sample is first scaled to a quiet pass: by
// quiet(passSeconds) over its own pass's time, since a stretch of
// neighbour interference slows every operation of the passes it covers
// alike. An operation's latency is then the median of its scaled
// samples, which holds steady where the fastest few raw samples of each
// operation do not.
func opLatencies(passSeconds []float64, samples [][]opSample) (all, cold, warm []float64) {
	type status struct {
		id   int
		cold bool
	}
	q := quiet(passSeconds)
	byOp := make(map[int][]float64)
	byStatus := make(map[status][]float64)
	for p, pass := range samples {
		scale := q / passSeconds[p]
		for _, s := range pass {
			ms := s.ms * scale
			byOp[s.id] = append(byOp[s.id], ms)
			k := status{s.id, s.cold}
			byStatus[k] = append(byStatus[k], ms)
		}
	}
	for _, v := range byOp {
		all = append(all, median(v))
	}
	for k, v := range byStatus {
		if k.cold {
			cold = append(cold, median(v))
		} else {
			warm = append(warm, median(v))
		}
	}
	return all, cold, warm
}

// batchTiming fills the time-based metrics of a batch workload from
// every pass's time and latency samples, taking pass time over the
// passes by quiet.
func batchTiming(m map[string]float64, log io.Writer, passSeconds []float64, opsPerPass int, samples [][]opSample) {
	m["pass_s"] = quiet(passSeconds)
	m["ops_per_s"] = float64(opsPerPass) / m["pass_s"]
	all, cold, warm := opLatencies(passSeconds, samples)
	latencyMetrics(m, log, all, cold, warm)
	n := 0
	for _, pass := range samples {
		n += len(pass)
	}
	s := sortedCopy(passSeconds)
	fmt.Fprintf(log, "  %d passes of %d operations, %d latency samples; pass time fastest %.4gs, quiet %.4gs, median %.4gs, slowest %.4gs\n",
		len(passSeconds), opsPerPass, n, s[0], m["pass_s"], median(s), s[len(s)-1])
}

// latencyMetrics fills the latency metrics from samples in milliseconds
// and logs their counts.
func latencyMetrics(m map[string]float64, log io.Writer, all, cold, warm []float64) {
	m["op_p50_ms"] = median(all)
	p, v, beyond, ok := tailPercentile(all, 99)
	if !ok {
		p, v = 50, median(all)
	}
	m["op_p99_ms"] = v
	m["cold_p50_ms"] = median(cold)
	m["warm_p50_ms"] = median(warm)
	fmt.Fprintf(log, "  latency over %d operations (tail at p%.4g with %d beyond), %d cold, %d warm\n",
		len(all), p, beyond, len(cold), len(warm))
}

// rssInterval is how often the timed phase's peak resident set size is
// read and its account restarted.
const rssInterval = 250 * time.Millisecond

// rssSampler records the process's peak resident set size over each
// rssInterval of the timed phase. A Go heap this small peaks wherever
// garbage collection happens to fall, so peak_rss_mb is the median of
// the interval peaks rather than their maximum.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
	err        error
}

// startRSS collects garbage left by set-up and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v, err := peakRSSMiB()
				if err != nil {
					s.err = err
					return
				}
				s.peaks = append(s.peaks, v)
				resetPeakRSS()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median interval peak.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return peakRSSMiB()
	}
	return median(s.peaks), nil
}

// resetPeakRSS restarts the kernel's peak-RSS account (VmHWM) by
// writing 5 to clear_refs (Linux 4.0 and later). Where that fails the
// peak covers the whole process, set-up included.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}

// commonMetrics fills the metrics every workload computes the same way
// over its whole timed phase.
func commonMetrics(m map[string]float64, t *tally, ops int, allocBytes uint64, rss *rssSampler) error {
	peak, err := rss.finish()
	if err != nil {
		return err
	}
	m["ok_frac"] = 1 - t.failFrac()
	m["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(ops)
	m["peak_rss_mb"] = peak
	return nil
}

// frontEnd lists the spans of the mode-independent passes.
var frontEnd = []string{"minic.parse", "minic.analyze", "lower", "opt", "ir.verify", "regalloc"}

// compute lists every span of the replayed measurement except its
// root, which is the time the replay spends between passes.
var compute = append(append([]string(nil), frontEnd...),
	"sim.profile", "alloc", "compact.schedule", "compact.validate", "sim.lower", "sim.run", "bench.check")

// layerMetrics derives the per-layer metrics shared by every workload
// from the spans' self times and the replay's counts, per pass, and logs
// each layer's share of the replayed compute. Workloads add the rest.
func layerMetrics(log io.Writer, tr *tracer, n *layerCounts, passes float64) map[string]float64 {
	self := selfTimes(tr.snapshot())
	per := func(name string) float64 { return self[name].Seconds() / passes }
	cnt := func(v int64) float64 { return float64(v) / passes }
	m := map[string]float64{
		"minic.parse_s":      per("minic.parse"),
		"minic.analyze_s":    per("minic.analyze"),
		"lower.s":            per("lower"),
		"opt.s":              per("opt"),
		"ir.verify_s":        per("ir.verify"),
		"regalloc.s":         per("regalloc"),
		"minic.src_kb":       cnt(n.srcBytes.Load()) / 1024,
		"lower.ir_ops":       cnt(n.lowerOps.Load()),
		"opt.ir_ops_out":     cnt(n.optOps.Load()),
		"regalloc.spills":    cnt(n.spills.Load()),
		"sim.profile_s":      per("sim.profile"),
		"alloc.s":            per("alloc"),
		"alloc.graph_nodes":  cnt(n.graphNodes.Load()),
		"alloc.graph_edges":  cnt(n.graphEdges.Load()),
		"alloc.dup_stores":   cnt(n.dupStores.Load()),
		"compact.s":          per("compact.schedule"),
		"compact.validate_s": per("compact.validate"),
		"compact.instrs":     cnt(n.instrs.Load()),
		"sim.lower_s":        per("sim.lower"),
		"sim.run_s":          per("sim.run"),
		"bench.check_s":      per("bench.check"),
		"bench.cache_hits":   cnt(n.cacheHits.Load()),
		"bench.cache_misses": cnt(n.cacheMisses.Load()),
		"explore.self_s":     per("explore") + per("explore.hw"),
		"explore.evals":      cnt(n.explorEvals.Load()),
		"genmc.gen_s":        per("genmc.gen"),
		"serve.self_ms":      0,
		"serve.hit_frac":     0,
	}
	m["compact.ops_per_instr"] = 0
	if in := n.instrs.Load(); in > 0 {
		m["compact.ops_per_instr"] = float64(n.schedOps.Load()) / float64(in)
	}
	m["sim.ns_per_cycle"] = 0
	if c := n.cycles.Load(); c > 0 {
		m["sim.ns_per_cycle"] = float64(self["sim.run"].Nanoseconds()) / float64(c)
	}

	var total, fe time.Duration
	for _, name := range compute {
		total += self[name]
	}
	for _, name := range frontEnd {
		fe += self[name]
	}
	if total > 0 {
		share := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
		fmt.Fprintf(log, "  replayed compute %.4gs over %.4g passes: front end %.1f%%", total.Seconds(), passes, share(fe))
		for _, name := range compute[len(frontEnd):] {
			fmt.Fprintf(log, ", %s %.1f%%", name, share(self[name]))
		}
		fmt.Fprintln(log)
	}
	return m
}

// finishTrace writes the spans out and sets the tracing overhead: the
// traced operations' median time over the untraced ones', minus one.
func finishTrace(cfg runConfig, tr *tracer, m map[string]float64, untraced, traced []float64) error {
	m["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return err
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "  %d spans written to %s\n", len(tr.snapshot()), cfg.traceOut)
	return nil
}
