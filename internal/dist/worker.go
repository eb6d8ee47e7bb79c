package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/retry"
	"cachemodel/internal/spec"
)

// ErrKilled is the chaos-test sentinel: a budget hook returning it makes
// the worker die mid-unit exactly as a SIGKILL would — no completion, no
// failure report, just silence until the lease expires and the unit is
// stolen. It wraps cerr.ErrTransient so the solver aborts typed instead
// of walking the degradation ladder.
var ErrKilled = fmt.Errorf("dist: worker killed mid-unit: %w", cerr.ErrTransient)

// WorkerOptions configures one worker process (or goroutine).
type WorkerOptions struct {
	// Coordinator is the base URL (http://host:port).
	Coordinator string
	// ID names this worker in leases and throughput stats. Empty derives
	// a stable name from the coordinator URL — fine for one worker per
	// box, set explicitly when running several.
	ID string
	// SolveWorkers is the per-unit solver parallelism (default 1: the
	// distributed layer owns the fan-out, the solver stays sequential).
	SolveWorkers int
	// CachePath, when set, persists the worker's content-addressed result
	// cache after every unit (the per-unit checkpoint) and warms it on
	// startup, so a restarted worker replays finished solves from disk.
	CachePath string
	// WarmPaths are additional stores to merge in on startup (for
	// instance the coordinator's shared store on a common filesystem).
	WarmPaths []string
	// CacheCap bounds the in-memory result cache (default 1<<16 entries).
	CacheCap int
	// Poll is the back-off before the next lease after a failed lease
	// round, or after a wait answer that carries no retry hint (default
	// 500ms). It is not the idle latency: a coordinator holds an idle
	// worker's lease request until a unit is queued, and answers an
	// expired hold with a hint to ask again at once.
	Poll time.Duration
	// MaxLeaseFailures bounds consecutive failed lease rounds (each round
	// is already a full HTTPPolicy retry schedule) before the worker gives
	// up and exits with the error — a coordinator that exited after its
	// sweeps finished must not leave workers spinning forever (default 10;
	// < 0 means retry forever).
	MaxLeaseFailures int
	// HTTPPolicy retries worker→coordinator calls (lease, heartbeat,
	// complete). The default is 4 attempts of full-jitter backoff from
	// 50ms, seeded from the worker id so tests stay deterministic.
	HTTPPolicy retry.Policy
	// Hook, when set, installs a budget hook for the unit about to be
	// solved — the chaos-test seam (return ErrKilled to die mid-unit).
	Hook func(unitKey string) budget.Hook
	// Logf receives worker lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		h := fnv.New32a()
		h.Write([]byte(o.Coordinator))
		o.ID = fmt.Sprintf("worker-%08x", h.Sum32())
	}
	if o.SolveWorkers < 1 {
		o.SolveWorkers = 1
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 1 << 16
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.MaxLeaseFailures == 0 {
		o.MaxLeaseFailures = 10
	}
	if o.HTTPPolicy.Attempts == 0 {
		h := fnv.New64a()
		h.Write([]byte(o.ID))
		o.HTTPPolicy = retry.Policy{
			Attempts:   4,
			Base:       50 * time.Millisecond,
			Max:        time.Second,
			FullJitter: true,
			Seed:       int64(h.Sum64()),
		}
	}
	if o.HTTPPolicy.RetryIf == nil {
		// Transport errors and 5xx are retryable; a 4xx answer is a
		// protocol outcome the loop must see, not retry into.
		o.HTTPPolicy.RetryIf = func(err error) bool {
			var he *HTTPError
			if errors.As(err, &he) {
				return he.Code >= 500
			}
			return true
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Worker leases units from a coordinator, solves them through the result
// cache, and posts rendered rows back.
type Worker struct {
	opt WorkerOptions
	cl  *Client
	rc  *cme.ResultCache
}

// NewWorker builds a worker and warms its result cache from CachePath
// and WarmPaths (missing stores are fine; corrupt stores quarantine
// themselves without losing the rest).
func NewWorker(opt WorkerOptions) (*Worker, error) {
	opt = opt.withDefaults()
	if opt.Coordinator == "" {
		return nil, errors.New("dist worker: missing coordinator URL")
	}
	w := &Worker{
		opt: opt,
		cl:  &Client{Base: opt.Coordinator, Worker: opt.ID},
		rc:  cme.NewResultCache(opt.CacheCap),
	}
	warm := opt.WarmPaths
	if opt.CachePath != "" {
		warm = append([]string{opt.CachePath}, warm...)
	}
	for _, path := range warm {
		if err := w.rc.Load(path); err != nil {
			opt.Logf("dist worker %s: warm %s: %v", opt.ID, path, err)
		}
	}
	return w, nil
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.opt.ID }

// Run leases and solves units until the coordinator says shutdown (nil),
// ctx ends (ctx.Err()), or a chaos hook kills the worker (ErrKilled).
func (w *Worker) Run(ctx context.Context) error {
	leaseFails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr *LeaseResponse
		err := retry.Do(ctx, w.opt.HTTPPolicy, func() error {
			var err error
			lr, err = w.cl.Lease(ctx, w.opt.ID)
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			leaseFails++
			if w.opt.MaxLeaseFailures >= 0 && leaseFails >= w.opt.MaxLeaseFailures {
				return fmt.Errorf("dist worker %s: coordinator unreachable after %d lease rounds: %w", w.opt.ID, leaseFails, err)
			}
			w.opt.Logf("dist worker %s: lease: %v", w.opt.ID, err)
			if !sleep(ctx, w.opt.Poll) {
				return ctx.Err()
			}
			continue
		}
		leaseFails = 0
		switch lr.Status {
		case LeaseShutdown:
			w.opt.Logf("dist worker %s: coordinator done, exiting", w.opt.ID)
			return nil
		case LeaseUnit:
			if err := w.process(ctx, lr); err != nil {
				return err
			}
		default: // wait
			d := w.opt.Poll
			if lr.RetryAfterMs > 0 {
				d = time.Duration(lr.RetryAfterMs) * time.Millisecond
			}
			if !sleep(ctx, d) {
				return ctx.Err()
			}
		}
	}
}

// process solves one leased unit under a heartbeat.
func (w *Worker) process(ctx context.Context, lr *LeaseResponse) error {
	u := lr.Unit
	if lr.Traceparent != "" {
		w.opt.Logf("dist worker %s: unit %.12s (%d candidates, seq %d) trace %s",
			w.opt.ID, u.Key, len(u.Candidates), u.Seq, lr.Traceparent)
	} else {
		w.opt.Logf("dist worker %s: unit %.12s (%d candidates, seq %d)", w.opt.ID, u.Key, len(u.Candidates), u.Seq)
	}

	// Units of one program share the process's prepared form of it, with
	// every other worker and front door in the process.
	prep, err := u.Program.Prepared(spec.Limits{}, u.Solve.Adaptive)
	if err != nil {
		// The coordinator admitted this spec, so a build failure here is a
		// unit failure worth reporting, not a reason to die.
		return w.complete(ctx, lr, nil, err.Error(), nil)
	}

	// Heartbeat at a third of the TTL until the solve finishes. A gone
	// lease (stolen, or resolved by someone else) cancels the solve: the
	// late result would be bit-identical anyway, so the compute is better
	// spent on a fresh lease.
	ttl := time.Duration(lr.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	solveCtx, cancel := context.WithCancel(ctx)
	// For a traced sweep the lease carries a traceparent naming the unit
	// span: build a collector joining that trace so the solver's spans
	// (prepare, per-tier solves) become this worker's span shard, posted
	// back with the completion. Untraced leases leave the context bare —
	// the solver's obs entry points see no collector and the run stays on
	// the nil-sink zero-cost path.
	var col *obs.Collector
	if lr.Traceparent != "" {
		col = obs.NewTraced("unit:"+w.opt.ID, lr.Traceparent)
		col.Root().SetAttr("worker", w.opt.ID)
		col.Root().SetAttr("unit", u.Key)
		col.Root().SetAttr("seq", u.Seq)
		solveCtx = obs.NewContext(solveCtx, col)
	}
	var abandoned atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-solveCtx.Done():
				return
			case <-t.C:
			}
			var ok bool
			err := retry.Do(solveCtx, w.opt.HTTPPolicy, func() error {
				var err error
				ok, err = w.cl.Heartbeat(solveCtx, w.opt.ID, lr.Sweep, u.Key)
				return err
			})
			if err == nil && !ok {
				w.opt.Logf("dist worker %s: lease on unit %.12s gone, abandoning", w.opt.ID, u.Key)
				abandoned.Store(true)
				cancel()
				return
			}
		}
	}()

	b := u.Solve.budget()
	if w.opt.Hook != nil {
		b.Hook = w.opt.Hook(u.Key)
	}
	plan, err := u.Solve.plan()
	var reps []*cme.Report
	var solveErr error
	cands := spec.Solvers(u.Candidates)
	solveStart := time.Now()
	if err != nil {
		solveErr = err
	} else {
		reps, solveErr = prep.SolveBatch(solveCtx, cands, cme.BatchOptions{
			Plan:    plan,
			Cache:   w.rc,
			Workers: w.opt.SolveWorkers,
			Budget:  b,
		})
	}
	mSolveMs.Observe(time.Since(solveStart).Milliseconds())
	cancel()
	<-hbDone

	var shard *obs.SpanSnapshot
	if col != nil {
		col.Finish()
		s := col.Root().Snapshot()
		shard = &s
	}

	if killed(solveErr) {
		// Chaos hook fired: die exactly like a SIGKILL — no completion, no
		// checkpoint, leaving the lease to expire and the unit to be stolen.
		return ErrKilled
	}
	if abandoned.Load() && ctx.Err() == nil {
		return nil // abandoned (lease gone): back to leasing
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Per-unit checkpoint: every solved (program, geometry) result is on
	// disk before the unit completes, so a restarted worker replays it
	// from the cache instead of re-solving.
	if w.opt.CachePath != "" {
		if err := w.rc.Save(w.opt.CachePath); err != nil {
			w.opt.Logf("dist worker %s: checkpoint %s: %v", w.opt.ID, w.opt.CachePath, err)
		}
	}

	var batch *cme.BatchError
	if solveErr != nil && !errors.As(solveErr, &batch) {
		// A batch-level failure (not per-candidate): report it so the
		// coordinator can retry or fail the unit.
		return w.complete(ctx, lr, nil, solveErr.Error(), shard)
	}
	return w.complete(ctx, lr, spec.Rows(cands, reps, solveErr), "", shard)
}

// complete posts a unit outcome through the retry policy.
func (w *Worker) complete(ctx context.Context, lr *LeaseResponse, rows []Row, errMsg string, shard *obs.SpanSnapshot) error {
	err := retry.Do(ctx, w.opt.HTTPPolicy, func() error {
		return w.cl.Complete(ctx, w.opt.ID, lr.Sweep, lr.Unit.Key, rows, errMsg, shard)
	})
	if err != nil && ctx.Err() == nil {
		// The lease will expire and the unit will be stolen: correctness is
		// preserved, only this worker's effort is lost.
		w.opt.Logf("dist worker %s: complete unit %.12s: %v", w.opt.ID, lr.Unit.Key, err)
	}
	return ctx.Err()
}

// killed reports whether the chaos sentinel fired, including when it is
// wrapped per candidate inside a BatchError.
func killed(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrKilled) {
		return true
	}
	var be *cme.BatchError
	if errors.As(err, &be) {
		for _, e := range be.Errs {
			if errors.Is(e, ErrKilled) {
				return true
			}
		}
	}
	return false
}

// sleep waits d or until ctx ends; false means ctx ended.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
