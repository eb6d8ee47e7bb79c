// Package serve is the fault-tolerant multi-tenant analysis server: a
// bounded priority-aware job queue in front of the CME solvers, with
// admission control (declared point budgets reserved against a global
// pool), load shedding (typed 429/503 instead of stalls), singleflight
// dedup by solve content address, per-job panic isolation, transient-error
// re-enqueue with jittered backoff, and graceful drain.
//
// The design inverts the usual server failure posture to match the
// repository's analytical one: an analysis may be degraded (the budget
// ladder) but never wrong, and a server under pressure may refuse work but
// never stall or corrupt it. Every refusal and every failure is typed and
// auditable — through the HTTP error kinds, the serve_* metrics, and the
// run report's job outcomes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/retry"
)

// Options configures a Server. The zero value is usable: defaults suit an
// interactive single-host deployment.
type Options struct {
	// QueueCap bounds the admission queue (default 64). A full queue sheds
	// with 429, it never blocks the accept loop.
	QueueCap int
	// Workers is the number of concurrent jobs (default 2). Each job's
	// solve may itself use SolveWorkers solver goroutines.
	Workers int
	// SolveWorkers is the per-job solver pool size (default 0 =
	// GOMAXPROCS; results are bit-identical at any worker count).
	SolveWorkers int
	// MaxPointsInFlight caps the summed declared point budgets of admitted
	// jobs (0 = unlimited). When a new job's budget does not fit, the
	// request is shed with 503 rather than queued behind work that cannot
	// start.
	MaxPointsInFlight int64
	// DefaultMaxPoints is the point budget imposed on requests that do not
	// declare one (default 1<<22). The server never runs an unmetered job:
	// a meter is also what makes cancellation and drain responsive.
	DefaultMaxPoints int64
	// MaxDeadline clamps every job's wall-clock budget (default 60s).
	MaxDeadline time.Duration
	// MaxProblemSize rejects absurd problem sizes at validation (default 1024).
	MaxProblemSize int64
	// MaxCandidates bounds a sweep's answers: its candidate grid times
	// its problem-size ladder, if any (default 256).
	MaxCandidates int
	// CachePath, when set, loads the content-addressed result cache from
	// this file at startup (corrupt stores are quarantined, never trusted)
	// and flushes it back atomically on drain.
	CachePath string
	// CacheCap bounds the in-memory result cache (0 = unbounded).
	CacheCap int
	// RetainJobs is how many terminal jobs stay queryable (default 1024).
	RetainJobs int
	// RetryPolicy schedules transient-failure re-enqueues of whole jobs
	// (default 3 attempts, 10ms base, jittered).
	RetryPolicy retry.Policy
	// JobHook, when set, installs a budget hook per job (fault injection
	// in tests; the hook sees every solver checkpoint).
	JobHook func(jobID string) budget.Hook
	// Dist, when set, is mounted under /v1/dist/ — the distributed-sweep
	// coordinator's handler (an http.Handler so serve does not depend on
	// the dist package; the coordinator owns its own routes under that
	// prefix).
	Dist http.Handler
	// Logf receives server lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
}

// progressInterval throttles per-job SSE progress events.
const progressInterval = 250 * time.Millisecond

// ioPolicy retries transient result-cache load/flush I/O: 3 attempts,
// retrying any error (disk blips are not typed transient).
var ioPolicy = retry.Policy{Attempts: 3, Base: 10 * time.Millisecond,
	RetryIf: func(error) bool { return true }}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.DefaultMaxPoints <= 0 {
		o.DefaultMaxPoints = 1 << 22
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 60 * time.Second
	}
	if o.MaxProblemSize <= 0 {
		o.MaxProblemSize = 1024
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 256
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 1024
	}
	if o.RetryPolicy.Attempts == 0 {
		o.RetryPolicy = retry.Policy{Attempts: 3, Base: 10 * time.Millisecond, Jitter: true}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server owns the queue, the workers, the singleflight table and the
// shared result cache.
type Server struct {
	opt    Options
	cache  *cme.ResultCache
	pool   *budget.Pool // nil = unlimited admission
	queue  *jobQueue
	flight flightGroup
	col    *obs.Collector

	baseCtx    context.Context // cancelled only by forced drain
	cancelJobs context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*Job
	doneIDs []string // terminal jobs, oldest first, for retention trimming
	nextID  int64

	draining atomic.Bool
	jobsWG   sync.WaitGroup // admitted but not yet finalized jobs
	workerWG sync.WaitGroup

	nCompleted, nShed, nDegraded, nFailed atomic.Int64
	nRetried, nFlightHits                 atomic.Int64
}

// New builds a server, loads the on-disk result cache (with retries for
// transient I/O; corruption quarantines and starts cold) and starts the
// worker pool.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	cache := cme.NewResultCache(opt.CacheCap)
	if opt.CachePath != "" {
		err := retry.Do(context.Background(), ioPolicy, func() error {
			return cache.Load(opt.CachePath)
		})
		if err != nil {
			return nil, fmt.Errorf("serve: load result cache: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		cache:      cache,
		queue:      newJobQueue(opt.QueueCap),
		col:        obs.New("serve"),
		baseCtx:    ctx,
		cancelJobs: cancel,
		jobs:       map[string]*Job{},
	}
	if opt.MaxPointsInFlight > 0 {
		s.pool = budget.NewPool(opt.MaxPointsInFlight)
	}
	s.workerWG.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	s.opt.Logf("serve: %d workers, queue cap %d, %s", opt.Workers, opt.QueueCap, cacheDesc(opt))
	return s, nil
}

func cacheDesc(o Options) string {
	if o.CachePath == "" {
		return "in-memory result cache"
	}
	return "result cache at " + o.CachePath
}

// httpError is a typed admission or lookup failure, rendered by the HTTP
// layer with its status and Retry-After.
type httpError struct {
	status     int
	kind       string
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

// shed records one refused request.
func (s *Server) shed(status int, kind, msg string, after time.Duration) *httpError {
	s.nShed.Add(1)
	mShed.Inc()
	return &httpError{status: status, kind: kind, msg: msg, retryAfter: after}
}

// submit admits a validated spec: reserve its declared budget, register
// the job, enqueue it. Every failure path is a typed shed, and the
// reservation is released on any of them. traceparent, optional, joins
// the job to the submitter's distributed trace.
func (s *Server) submit(spec *jobSpec, traceparent string) (*Job, *httpError) {
	if s.draining.Load() {
		return nil, s.shed(503, kindDraining, "server is draining", 5*time.Second)
	}
	if s.pool != nil {
		if !s.pool.TryAcquire(spec.bud.MaxPoints) {
			return nil, s.shed(503, kindOverloaded,
				fmt.Sprintf("point budget pool saturated (%d/%d in use)", s.pool.InUse(), s.pool.Cap()),
				time.Second)
		}
		mReserved.Set(s.pool.InUse())
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, spec, s.opt.RetryPolicy, traceparent)
	s.jobs[id] = j
	s.mu.Unlock()
	s.jobsWG.Add(1)

	if err := s.queue.push(j); err != nil {
		s.release(spec.bud.MaxPoints)
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.jobsWG.Done()
		if errors.Is(err, errDraining) {
			return nil, s.shed(503, kindDraining, "server is draining", 5*time.Second)
		}
		return nil, s.shed(429, kindQueueFull,
			fmt.Sprintf("job queue full (%d queued)", s.queue.depth()), time.Second)
	}
	mAdmitted.Inc()
	return j, nil
}

func (s *Server) release(cost int64) {
	if s.pool != nil {
		s.pool.Release(cost)
		mReserved.Set(s.pool.InUse())
	}
}

// Job returns a live or retained job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j := s.queue.pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one attempt of a job. Terminal outcomes finalize the
// job; a transient outcome re-enqueues it after backoff instead.
func (s *Server) runJob(j *Job) {
	if j.isCanceled() {
		s.finalize(j, StatusFailed, failResult("", cerr.ErrCanceled))
		return
	}
	mRunning.Add(1)
	defer mRunning.Add(-1)
	if j.attempts == 0 {
		// Queue wait: admission to first execution (retries are backoff
		// policy, not queue pressure, so they don't re-observe).
		mQueueWaitMs.Observe(time.Since(j.Created).Milliseconds())
	}
	j.setStatus(StatusRunning)

	jctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.setCancel(cancel)

	out, key, shared := s.attempt(jctx, j)
	if shared {
		s.nFlightHits.Add(1)
		mFlightHits.Inc()
	}

	// A transient failure re-enqueues the whole job (fresh program
	// lookup, fresh meter) after a jittered backoff, unless the job was
	// cancelled, the server is draining, or the schedule is exhausted —
	// then it fails typed like anything else.
	jobErr := out.jobErr()
	if errors.Is(jobErr, cerr.ErrTransient) &&
		!j.isCanceled() && !s.draining.Load() {
		if d, ok := j.backoff.Next(); ok {
			j.attempts++
			s.nRetried.Add(1)
			mRetries.Inc()
			j.setCancel(nil)
			j.setStatus(StatusQueued)
			res := resultFrom(key, shared, j.spec, out)
			time.AfterFunc(d, func() {
				if err := s.queue.push(j); err != nil {
					// Drain closed the queue while we backed off: surface
					// the transient failure as the terminal result.
					s.finalize(j, StatusFailed, res)
				}
			})
			return
		}
	}

	res := resultFrom(key, shared, j.spec, out)
	status := StatusDone
	if jobErr != nil {
		status = StatusFailed
	}
	s.finalize(j, status, res)
}

// attempt runs one solve attempt under the job's budget, deduplicating
// concurrent identical solves through the flight group.
func (s *Server) attempt(ctx context.Context, j *Job) (out *solveOutcome, key string, shared bool) {
	spec := j.spec
	// The collector joins the job's trace (fixed at admission), so every
	// attempt's spans — and anything downstream, like a mounted dist
	// coordinator receiving this context's traceparent — link back to
	// the submitter.
	col := obs.NewWithTrace("job:"+j.ID, j.TraceID, j.parentSpan)
	col.OnProgress(func(e obs.Event) {
		j.events.publish(Event{Stage: e.Stage, Done: e.Done, Total: e.Total,
			Current: e.Current, ElapsedMs: e.Elapsed.Milliseconds()})
	}, progressInterval)
	defer col.Finish()

	bud := spec.bud
	if s.opt.JobHook != nil {
		bud.Hook = s.opt.JobHook(j.ID)
	}

	fl, err := guard(func() (flight, error) { return spec.prepare(s) })
	if err != nil {
		return &solveOutcome{err: err}, "", false
	}
	// Followers whose leader was cancelled re-issue the flight while their
	// own context is still live: the key is free again, so one of them
	// becomes the new leader. Bounded by the context either way.
	for {
		out, shared = s.flight.do(ctx, fl.key, func() *solveOutcome {
			reps, err := guard(func() ([]*cme.Report, error) {
				return fl.solve(obs.NewContext(ctx, col), bud)
			})
			return &solveOutcome{reports: reps, err: err}
		})
		if out == nil { // our own ctx ended while following
			return &solveOutcome{err: fmt.Errorf("%w: while awaiting shared solve", cerr.ErrCanceled)}, fl.key, shared
		}
		if shared && errors.Is(out.jobErr(), cerr.ErrCanceled) && ctx.Err() == nil {
			continue
		}
		return out, fl.key, shared
	}
}

// guard runs one half of an attempt — prepare or solve — converting a
// panic that escapes the solver's own guards into a typed error instead
// of a dead worker.
func guard[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = cerr.FromPanic(r)
		}
	}()
	return fn()
}

// finalize releases the job's admission reservation, records its outcome
// and publishes the terminal state.
func (s *Server) finalize(j *Job, status JobStatus, res *Result) {
	s.release(j.spec.bud.MaxPoints)
	res.Retries = j.attempts
	if status == StatusDone {
		s.nCompleted.Add(1)
		mCompleted.Inc()
		if res.Degraded {
			s.nDegraded.Add(1)
			mDegraded.Inc()
		}
	} else {
		s.nFailed.Add(1)
		mFailed.Inc()
	}
	j.finish(status, res)
	s.retire(j)
	s.jobsWG.Done()
}

// retire trims terminal-job retention to RetainJobs.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	s.doneIDs = append(s.doneIDs, j.ID)
	for len(s.doneIDs) > s.opt.RetainJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.mu.Unlock()
}

// Outcomes snapshots the job-level counts for the run report.
func (s *Server) Outcomes() *obs.JobOutcomes {
	return &obs.JobOutcomes{
		Completed:        s.nCompleted.Load(),
		Shed:             s.nShed.Load(),
		Degraded:         s.nDegraded.Load(),
		Failed:           s.nFailed.Load(),
		Retried:          s.nRetried.Load(),
		SingleflightHits: s.nFlightHits.Load(),
	}
}

// RunReport assembles the server's run report: spans, metrics and the
// job outcomes.
func (s *Server) RunReport() *obs.RunReport {
	rep := s.col.Report()
	rep.Program = "server"
	rep.Command = "serve"
	rep.Jobs = s.Outcomes()
	return rep
}

// Drain shuts the server down gracefully: stop admitting (new requests
// shed with 503 draining), let queued and running jobs finish, then flush
// the result cache atomically. If ctx expires first the remaining jobs
// are cancelled — they finalize typed with ErrCanceled at their next
// checkpoint, never half-written — the flush still runs, and Drain
// reports the forced stop.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	s.opt.Logf("serve: draining (%d queued)", s.queue.depth())

	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		s.opt.Logf("serve: drain deadline hit, cancelling in-flight jobs")
		s.cancelJobs()
		<-done
		derr = fmt.Errorf("serve: drain forced: %w", ctx.Err())
	}
	s.workerWG.Wait()
	if err := s.flushCache(); err != nil {
		return err
	}
	s.opt.Logf("serve: drained")
	return derr
}

// flushCache persists the result cache (atomic rename), retrying
// transient I/O failures.
func (s *Server) flushCache() error {
	if s.opt.CachePath == "" {
		return nil
	}
	err := retry.Do(context.Background(), ioPolicy, func() error {
		return s.cache.Save(s.opt.CachePath)
	})
	if err != nil {
		return fmt.Errorf("serve: flush result cache: %w", err)
	}
	return nil
}

// CacheStats exposes the shared result cache's counters.
func (s *Server) CacheStats() cme.CacheStats { return s.cache.Stats() }
