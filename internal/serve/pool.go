package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/pipeline"
)

// ErrStopped is returned for work submitted to (or stranded in) a pool
// that has been closed; the HTTP layer maps it to 503.
var ErrStopped = errors.New("serve: pool stopped")

// ErrShed is returned when bounded admission gives up waiting for a
// queue slot; the HTTP layer maps it to 429 with a Retry-After.
var ErrShed = errors.New("serve: admission queue full")

// RunFunc executes one job on a worker's private compiler scratch.
type RunFunc func(ctx context.Context, cc *pipeline.Compiler, j Job) (bench.Result, bool, error)

// Pool is a bounded worker pool. Each worker goroutine owns one
// pipeline.Compiler — every pass's reusable scratch, front end
// included — so steady-state request handling allocates only retained
// results, as the harness's lent compilers do for its own misses.
// Submission blocks when every worker is busy and the queue is full;
// the caller's context bounds the wait, which is the service's
// backpressure.
type Pool struct {
	tasks  chan *task
	ctx    context.Context // cancelled by Close; aborts queued and running work
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	workers int
	active  atomic.Int64
}

// task is one queued job plus its result slot. res is buffered so a
// worker can always deliver and move on, even when the submitter has
// already given up.
type task struct {
	ctx context.Context
	job Job
	res chan taskResult
}

type taskResult struct {
	res    bench.Result
	cached bool
	err    error
}

// NewPool starts workers goroutines executing run. queueDepth bounds
// the number of accepted-but-unstarted jobs (0 means no buffering:
// submission hands off directly to an idle worker).
func NewPool(workers, queueDepth int, run RunFunc) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		tasks:   make(chan *task, queueDepth),
		ctx:     ctx,
		cancel:  cancel,
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(run)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Active returns the number of workers currently executing a job.
func (p *Pool) Active() int64 { return p.active.Load() }

// Do submits j and waits for its result. The wait — both for a worker
// slot and for the job itself — is bounded by ctx; a job whose context
// is already done when a worker picks it up is skipped, not executed.
// A positive admit bounds admission too: if no queue slot frees within
// it, the job is shed with ErrShed instead of waiting out the request's
// whole deadline, so a saturated server fails fast with a retryable
// signal rather than stacking up work it will time out on anyway. Once
// admitted, the job runs alike either way.
func (p *Pool) Do(ctx context.Context, j Job, admit time.Duration) (bench.Result, bool, error) {
	t := &task{ctx: ctx, job: j, res: make(chan taskResult, 1)}
	var shed <-chan time.Time
	if admit > 0 {
		timer := time.NewTimer(admit)
		defer timer.Stop()
		shed = timer.C
	}
	select {
	case p.tasks <- t:
	case <-shed:
		return bench.Result{}, false, ErrShed
	case <-ctx.Done():
		return bench.Result{}, false, ctx.Err()
	case <-p.ctx.Done():
		return bench.Result{}, false, ErrStopped
	}
	select {
	case r := <-t.res:
		return r.res, r.cached, r.err
	case <-p.ctx.Done():
		return bench.Result{}, false, ErrStopped
	}
}

// Close stops the pool: in-flight jobs are cancelled through their
// contexts, queued jobs are failed with ErrStopped, and Close returns
// once every worker has exited. Safe to call more than once.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.cancel()
		p.wg.Wait()
	})
}

// worker executes tasks until the pool closes, then drains the queue
// so no submitter is left waiting forever. Each worker owns one
// Compiler for its whole life: its scratch reaches a steady state
// sized by the largest program the worker has seen, and back-to-back
// requests stop churning the collector.
func (p *Pool) worker(run RunFunc) {
	defer p.wg.Done()
	cc := new(pipeline.Compiler)
	for {
		select {
		case t := <-p.tasks:
			p.handle(t, cc, run)
		case <-p.ctx.Done():
			for {
				select {
				case t := <-p.tasks:
					t.res <- taskResult{err: ErrStopped}
				default:
					return
				}
			}
		}
	}
}

// handle runs one task under a context that fires on either the
// request's own deadline/disconnect or pool shutdown.
func (p *Pool) handle(t *task, cc *pipeline.Compiler, run RunFunc) {
	if err := t.ctx.Err(); err != nil {
		t.res <- taskResult{err: err}
		return
	}
	ctx, cancel := context.WithCancel(t.ctx)
	stop := context.AfterFunc(p.ctx, cancel)
	p.active.Add(1)

	res, cached, err := run(ctx, cc, t.job)

	p.active.Add(-1)
	stop()
	cancel()
	t.res <- taskResult{res: res, cached: cached, err: err}
}
