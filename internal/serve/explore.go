package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/explore"
	"dualbank/internal/machine"
)

// This file is the async exploration API: POST /v1/explore submits a
// design-space exploration job, GET /v1/explore/{id} polls it, and
// GET /v1/explore/{id}/frontier fetches the finished Pareto report.
// Jobs run in background goroutines but every measurement goes through
// the same bounded worker pool as /v1/run — exploration shares the
// service's backpressure, memo cache, and latency metrics. With
// Config.ExploreStore the engine checkpoints each evaluation as it
// completes, so a job cancelled by shutdown resumes on resubmission.

// ExploreRequest is the JSON body of POST /v1/explore.
type ExploreRequest struct {
	// Benchmarks names the built-in benchmarks to explore (at least
	// one; see GET /v1/benchmarks).
	Benchmarks []string `json:"benchmarks"`
	// Budget caps evaluations per benchmark (default 200, clamped to
	// the server's maximum).
	Budget int `json:"budget,omitempty"`
	// ExactK is the duplication-subset exhaustion bound (default 4).
	ExactK int `json:"exact_k,omitempty"`
	// Resume controls checkpoint replay when the server has a store
	// (default true).
	Resume *bool `json:"resume,omitempty"`
	// Banks and Ports pin the exploration's machine geometry — the hw
	// axis. Zero values explore the classic 2-bank, single-ported
	// machine.
	Banks int `json:"banks,omitempty"`
	Ports int `json:"ports,omitempty"`
}

// ExploreStatus is the JSON body of POST /v1/explore (202) and
// GET /v1/explore/{id}.
type ExploreStatus struct {
	ID string `json:"job_id"`
	// State is "running", "done", "failed", or "cancelled".
	State      string   `json:"state"`
	Benchmarks []string `json:"benchmarks"`
	Budget     int      `json:"budget"`
	// Done and Planned count evaluations; Planned grows when the
	// adaptive search schedules more rounds.
	Done    int `json:"done"`
	Planned int `json:"planned"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// FrontierURL is set once the report is ready.
	FrontierURL string `json:"frontier_url,omitempty"`
}

// exploreJob is one background exploration.
type exploreJob struct {
	id         string
	benchmarks []string
	budget     int
	cancel     context.CancelFunc

	mu            sync.Mutex
	state         string // "running", "done", "failed", "cancelled"
	done, planned int
	err           string
	report        *explore.Report
}

func (j *exploreJob) status() ExploreStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := ExploreStatus{
		ID: j.id, State: j.state, Benchmarks: j.benchmarks, Budget: j.budget,
		Done: j.done, Planned: j.planned, Error: j.err,
	}
	if j.state == "done" {
		st.FrontierURL = "/v1/explore/" + j.id + "/frontier"
	}
	return st
}

// handleExploreSubmit is POST /v1/explore: validate, register the job,
// start it in the background, answer 202 with its status.
func (s *Server) handleExploreSubmit(w http.ResponseWriter, r *http.Request) {
	done := s.metrics.RequestStart()
	defer done()

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req ExploreRequest
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Benchmarks) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%q must name at least one benchmark", "benchmarks"))
		return
	}
	progs := make([]bench.Program, 0, len(req.Benchmarks))
	for _, n := range req.Benchmarks {
		p, ok := bench.ByName(n)
		if !ok {
			s.fail(w, http.StatusNotFound, fmt.Errorf("%w %q (see /v1/benchmarks)", ErrUnknownBench, n))
			return
		}
		progs = append(progs, p)
	}
	if req.Banks != 0 || req.Ports != 0 {
		if err := (machine.BankSpec{Banks: req.Banks, PortsPerBank: req.Ports}).Validate(); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}
	budget := req.Budget
	if budget <= 0 {
		budget = 200
	}
	if budget > s.cfg.MaxExploreBudget {
		budget = s.cfg.MaxExploreBudget
	}

	jctx, cancel := context.WithCancel(s.jobsCtx)
	job := &exploreJob{
		id:         fmt.Sprintf("explore-%d", s.jobSeq.Add(1)),
		benchmarks: req.Benchmarks,
		budget:     budget,
		cancel:     cancel,
		state:      "running",
	}
	opts := explore.Options{
		Budget:   budget,
		Workers:  s.cfg.Workers,
		ExactK:   req.ExactK,
		Store:    s.cfg.ExploreStore,
		NoResume: req.Resume != nil && !*req.Resume,
		Banks:    req.Banks,
		Ports:    req.Ports,
		Evaluate: s.exploreEval,
		Progress: func(ev explore.Event) {
			s.metrics.ExploreEval(ev.Source)
			job.mu.Lock()
			job.done, job.planned = ev.Done, ev.Planned
			job.mu.Unlock()
		},
	}

	s.jobsMu.Lock()
	s.jobs[job.id] = job
	s.jobsMu.Unlock()
	s.metrics.ExploreJob("submitted")

	s.jobsWG.Add(1)
	go func() {
		defer s.jobsWG.Done()
		defer cancel()
		rep, err := explore.Explore(jctx, progs, opts)
		state := "done"
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) && jctx.Err() != nil:
			state = "cancelled"
		default:
			state = "failed"
		}
		job.mu.Lock()
		job.state = state
		if err != nil {
			job.err = err.Error()
		} else {
			job.report = rep
		}
		job.mu.Unlock()
		s.metrics.ExploreJob(state)
	}()

	s.reply(w, http.StatusAccepted, job.status())
}

// exploreEval routes one exploration measurement through the serving
// pool, so it shares workers, backpressure, and the memo cache with
// interactive requests.
func (s *Server) exploreEval(ctx context.Context, p bench.Program, mode alloc.Mode, ro bench.RunOptions) (bench.Result, bool, error) {
	return s.pool.Do(ctx, Job{Prog: p, Mode: mode, Opts: ro, Cacheable: true}, 0)
}

// lookupJob resolves {id} for the polling handlers.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *exploreJob {
	s.jobsMu.Lock()
	job := s.jobs[r.PathValue("id")]
	s.jobsMu.Unlock()
	if job == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown exploration job %q", r.PathValue("id")))
	}
	return job
}

// handleExploreStatus is GET /v1/explore/{id}.
func (s *Server) handleExploreStatus(w http.ResponseWriter, r *http.Request) {
	done := s.metrics.RequestStart()
	defer done()
	if job := s.lookupJob(w, r); job != nil {
		s.reply(w, http.StatusOK, job.status())
	}
}

// handleExploreFrontier is GET /v1/explore/{id}/frontier: the full
// explore.Report once the job is done, 409 while it is still running,
// and the job's error for failed or cancelled jobs.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request) {
	done := s.metrics.RequestStart()
	defer done()
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	state, report, jerr := job.state, job.report, job.err
	job.mu.Unlock()
	switch state {
	case "done":
		s.reply(w, http.StatusOK, report)
	case "running":
		s.fail(w, http.StatusConflict, fmt.Errorf("job %s is still running", job.id))
	default:
		s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("job %s %s: %s", job.id, state, jerr))
	}
}
