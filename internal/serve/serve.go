package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/explore/store"
	"dualbank/internal/faultinject"
	"dualbank/internal/pipeline"
)

// Config sizes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Workers bounds concurrent compile+simulate jobs (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs (default 2×Workers).
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms
	// (default 10s); MaxTimeout clamps requested timeouts (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes caps the source field of a request (default 1 MiB);
	// the request body itself is capped slightly above it.
	MaxSourceBytes int
	// ExploreStore, when non-nil, checkpoints /v1/explore evaluations
	// and resumes submitted explorations from it.
	ExploreStore *store.Store
	// MaxExploreBudget clamps a submitted exploration's per-benchmark
	// evaluation budget (default 500).
	MaxExploreBudget int
	// AdmitTimeout bounds how long a request may wait for an admission
	// (queue) slot before being shed with 429. Zero keeps the legacy
	// behavior: requests wait out their whole deadline.
	AdmitTimeout time.Duration
	// RatePerSec and RateBurst configure the per-client token-bucket
	// rate limiter. RatePerSec <= 0 disables it; RateBurst defaults
	// to max(1, ceil(RatePerSec)).
	RatePerSec float64
	RateBurst  int
	// Fault, when non-nil, injects compute errors and execution delays
	// (latency spikes, pool-slot starvation) into every measurement —
	// the chaos-testing seam. Production servers leave it nil.
	Fault *faultinject.Injector
	// Engine selects the simulation engine for every measurement. The
	// zero value is the compiled threaded-code engine — the production
	// default; the reference engine remains selectable for
	// cross-checking a deployment. A request carrying an explicit
	// "engine" field overrides it per measurement.
	Engine bench.Engine
	// ResultCache, when non-nil, is the shared L2 result cache behind
	// the in-memory memo cache: consulted on every local miss, written
	// through on every computed success. The cluster tier points every
	// node's server at one content-addressed store here.
	ResultCache bench.ResultCache
	// OnDrain, when non-nil, runs exactly once when BeginDrain first
	// flips readiness — before any in-flight work is cancelled. The
	// cluster tier uses it to announce this node's departure to its
	// peers so the ring stops routing here while the node finishes its
	// in-flight requests.
	OnDrain func()
}

// StatusClientClosedRequest is the non-standard 499 (nginx convention)
// counted when the client abandons a request mid-measurement; it never
// reaches the client — nobody is listening — but keeps the status
// accounting exhaustive: every request ends in exactly one code.
const StatusClientClosedRequest = 499

// Server is the dspservd HTTP service: a mux, a worker pool, a
// single-flight memo cache for named-benchmark results, and a metrics
// registry.
//
//	POST /v1/run                   compile and simulate one benchmark or source
//	POST /v1/explore               submit an async design-space exploration
//	GET  /v1/explore/{id}          exploration job status
//	GET  /v1/explore/{id}/frontier completed exploration's Pareto report
//	GET  /v1/benchmarks            list benchmarks, modes, and partitioners
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 once draining)
//	GET  /metrics                  Prometheus text exposition
//	     /debug/pprof/             the standard profiling endpoints
type Server struct {
	cfg      Config
	harness  *bench.Harness
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux
	limiter  *rateLimiter
	draining atomic.Bool

	// Exploration jobs run in the background, outside the HTTP
	// handlers: jobsCtx parents every job (Close cancels it), jobsWG
	// tracks their goroutines, jobs is the id → job registry.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc
	jobsWG     sync.WaitGroup
	jobsMu     sync.Mutex
	jobs       map[string]*exploreJob
	jobSeq     atomic.Int64
}

// New builds a ready-to-serve Server; callers must Close it to stop
// the worker pool.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.MaxExploreBudget <= 0 {
		cfg.MaxExploreBudget = 500
	}
	s := &Server{
		cfg: cfg,
		// The harness's pool stays unused (the serve pool bounds
		// concurrency); it contributes the single-flight cache.
		harness: bench.NewHarness(1),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*exploreJob),
	}
	s.harness.L2 = cfg.ResultCache
	if cfg.RatePerSec > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = int(cfg.RatePerSec + 0.999)
		}
		s.limiter = newRateLimiter(cfg.RatePerSec, burst)
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth, s.execute)

	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/explore", s.handleExploreSubmit)
	s.mux.HandleFunc("GET /v1/explore/{id}", s.handleExploreStatus)
	s.mux.HandleFunc("GET /v1/explore/{id}/frontier", s.handleExploreFrontier)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's mux for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the worker pool for occupancy checks.
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats reports the memo cache's traffic.
func (s *Server) CacheStats() bench.CacheStats { return s.harness.Stats() }

// BeginDrain flips /readyz unready so load balancers stop routing new
// work here; in-flight and newly arriving requests still complete.
// Call it when shutdown begins, before http.Server.Shutdown drains the
// handlers. On the first call only, the OnDrain hook fires after
// readiness flips — departure is announced while every in-flight
// request is still running, never after cancellation has begun.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) && s.cfg.OnDrain != nil {
		s.cfg.OnDrain()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the server's background work: exploration jobs are
// cancelled and waited for (their completed evaluations are already
// checkpointed — the store is write-through), then the worker pool is
// closed, cancelling in-flight measurements. Call it after
// http.Server.Shutdown has drained the handlers.
func (s *Server) Close() {
	s.jobsCancel()
	s.jobsWG.Wait()
	s.pool.Close()
}

// execute is the pool's RunFunc: named benchmarks flow through the
// single-flight memo cache, source jobs compile and simulate afresh.
// With a fault injector configured, every execution first pays the
// injected delay (a latency spike, or a starvation burst that pins
// this worker's slot) and may be vetoed with a transient compute
// error; the memo cache never retains those (they carry Transient()),
// so a faulted measurement is retried, not replayed.
func (s *Server) execute(ctx context.Context, cc *pipeline.Compiler, j Job) (bench.Result, bool, error) {
	if inj := s.cfg.Fault; inj != nil {
		if d := inj.ExecDelay(); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return bench.Result{}, false, ctx.Err()
			}
		}
		if err := inj.Compute(j.Prog.Name); err != nil {
			return bench.Result{}, false, err
		}
	}
	ro := j.Options(s.cfg.Engine)
	ro.Compiler = cc
	s.metrics.EngineRun(ro.Engine.String())
	if j.Cacheable {
		return s.harness.RunCtx(ctx, j.Prog, j.Mode, ro)
	}
	res, err := bench.RunCtx(ctx, j.Prog, j.Mode, ro)
	return res, false, err
}

// HasCached reports whether this server could answer the job from its
// own in-memory memo cache — a completed successful entry or an
// in-flight computation the job would coalesce onto — without fresh
// work. The cluster tier's replica probe; source jobs are never
// cached.
func (s *Server) HasCached(j Job) bool {
	if !j.Cacheable {
		return false
	}
	return s.harness.Cached(j.Prog, j.Mode, j.Options(s.cfg.Engine))
}

// handleRun is POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	done := s.metrics.RequestStart()
	defer done()

	if s.limiter != nil && !s.limiter.allow(clientKey(r.RemoteAddr)) {
		s.metrics.Shed("rate")
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, errors.New("client rate limit exceeded"))
		return
	}

	// The body cap leaves headroom over the source cap for the JSON
	// framing and escaping around it.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)*2+4096))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	job, err := DecodeRequest(data, s.cfg.MaxSourceBytes)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownBench) {
			code = http.StatusNotFound
		}
		s.fail(w, code, err)
		return
	}

	timeout := job.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, cached, err := s.pool.Do(ctx, job, s.cfg.AdmitTimeout)
	if err != nil {
		if errors.Is(err, ErrShed) {
			s.metrics.Shed("queue")
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.AdmitTimeout))
		}
		s.fail(w, statusFor(err), err)
		return
	}
	if !cached {
		// A cached answer replays a stored measurement's phase times;
		// the histograms cover executed measurements only.
		s.metrics.ObserveRun(res.CompileSeconds, res.SimSeconds)
	}
	s.reply(w, http.StatusOK, ResponseFor(res, job.Opts.Partitioner, cached))
}

// retryAfterSeconds suggests a backoff of at least one second, scaled
// to the admission window the request already waited out.
func retryAfterSeconds(admit time.Duration) string {
	secs := int(admit / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// statusFor maps an execution error to its HTTP status — the serve
// layer's exhaustive failure taxonomy:
//
//	408  the server-enforced deadline fired mid-measurement
//	429  bounded admission shed the request (queue full)
//	499  the client went away; nobody is listening for the reply
//	500  an injected (or otherwise transient) internal fault
//	503  the pool is shutting down — retry elsewhere
//	422  the request's own fault: compile error, failed output check
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case isTransientErr(err):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// isTransientErr reports whether err carries the Transient() bool
// marker (injected faults do) anywhere in its chain.
func isTransientErr(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// benchmarksResponse is the body of GET /v1/benchmarks.
type benchmarksResponse struct {
	Benchmarks   []benchmarkInfo `json:"benchmarks"`
	Modes        []string        `json:"modes"`
	Partitioners []string        `json:"partitioners"`
}

type benchmarkInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Desc string `json:"desc"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	resp := benchmarksResponse{
		Modes:        Modes(),
		Partitioners: []string{"greedy", "kl", "anneal", "fm", "exact"},
	}
	for _, p := range append(bench.Kernels(), bench.Applications()...) {
		resp.Benchmarks = append(resp.Benchmarks, benchmarkInfo{
			Name: p.Name, Kind: p.Kind.String(), Desc: p.Desc,
		})
	}
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
	s.metrics.RequestDone(http.StatusOK)
}

// handleReadyz is the load balancer's routing signal: 200 while the
// server accepts new work, 503 once BeginDrain has been called.
// Liveness (/healthz) stays 200 throughout a drain — the process is
// healthy, just leaving.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		s.metrics.RequestDone(http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
	s.metrics.RequestDone(http.StatusOK)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.WriteTo(w, s.harness.Stats(), s.pool.Active(), s.pool.Workers())
}

// reply writes a JSON response and counts it.
func (s *Server) reply(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
	s.metrics.RequestDone(code)
}

// fail writes a JSON error response and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.reply(w, code, ErrorResponse{Error: err.Error()})
}
