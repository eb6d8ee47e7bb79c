package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/retry"
)

// JobStatus is the lifecycle of one admitted job. Shed requests never
// become jobs — they are rejected at admission with a typed HTTP error.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Event is one server-sent progress or terminal event of a job stream.
type Event struct {
	Stage     string    `json:"stage,omitempty"`
	Done      int64     `json:"done,omitempty"`
	Total     int64     `json:"total,omitempty"`
	Current   string    `json:"current,omitempty"`
	ElapsedMs int64     `json:"elapsed_ms"`
	Status    JobStatus `json:"status,omitempty"` // terminal events only
	// TraceID correlates the stream with the job's distributed trace
	// (terminal events only).
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorBody is the typed JSON error of both shed requests and failed
// jobs: a stable machine-readable kind plus the human message.
type ErrorBody struct {
	Kind         string `json:"kind"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Error kinds. Admission kinds ride on 429/503 responses; job kinds land
// in the failed job's result.
const (
	kindQueueFull  = "queue_full"
	kindOverloaded = "overloaded"
	kindDraining   = "draining"
	kindInvalid    = "invalid_request"

	kindCanceled   = "canceled"
	kindBudget     = "budget_exceeded"
	kindTransient  = "transient"
	kindPanic      = "internal_panic"
	kindNonAffine  = "non_affine"
	kindDegenerate = "degenerate_system"
	kindError      = "error"
)

// errKind classifies an error into its wire kind via the cerr sentinels.
func errKind(err error) string {
	switch {
	case errors.Is(err, cerr.ErrCanceled):
		return kindCanceled
	case errors.Is(err, cerr.ErrBudgetExceeded):
		return kindBudget
	case errors.Is(err, cerr.ErrTransient):
		return kindTransient
	case errors.Is(err, cerr.ErrPanic):
		return kindPanic
	case errors.Is(err, cerr.ErrNonAffine):
		return kindNonAffine
	case errors.Is(err, cerr.ErrDegenerateSystem):
		return kindDegenerate
	default:
		return kindError
	}
}

// RefResult is the per-reference row of a candidate result: the raw
// counts, so bit-identity between two jobs is checkable from the API
// alone.
type RefResult struct {
	ID       string  `json:"id"`
	Volume   int64   `json:"volume"`
	Analyzed int64   `json:"analyzed"`
	Hits     int64   `json:"hits"`
	Cold     int64   `json:"cold"`
	Repl     int64   `json:"repl"`
	Tier     string  `json:"tier"`
	Ratio    float64 `json:"ratio,omitempty"`
	// ClosedForm marks counts evaluated from the lifted quasi-polynomial
	// rather than an enumerating solve at this size.
	ClosedForm bool `json:"closed_form,omitempty"`
}

// CandidateResult is one candidate's answer with full provenance.
type CandidateResult struct {
	Label           string      `json:"label"`
	CacheBytes      int64       `json:"cache_bytes"`
	LineBytes       int64       `json:"line_bytes"`
	Assoc           int         `json:"assoc"`
	MissRatioPct    float64     `json:"miss_ratio_pct"`
	EstimatedMisses float64     `json:"estimated_misses"`
	Accesses        int64       `json:"accesses"`
	Tier            string      `json:"tier"`
	Degraded        bool        `json:"degraded,omitempty"`
	Coverage        float64     `json:"coverage"`
	Refs            []RefResult `json:"refs,omitempty"`
	Error           string      `json:"error,omitempty"`
	// Closed-form provenance (cme.ClosedInfo), set by the problem-size
	// tier (parameter-axis jobs) or the set-count tier (exact sweep
	// columns): whether this candidate was answered in closed form, how
	// many references were covered, whether it was solved exactly to
	// anchor a fit, and why it was not answered in closed form.
	ClosedForm     bool   `json:"closed_form,omitempty"`
	ClosedFormRefs int    `json:"closed_form_refs,omitempty"`
	ClosedAnchor   bool   `json:"closed_anchor,omitempty"`
	ClosedWhy      string `json:"closed_why,omitempty"`
}

// Result is a terminal job's outcome: candidate rows with provenance for
// done jobs, a typed error for failed ones, and the solve fingerprint
// either way.
type Result struct {
	Key        string            `json:"key,omitempty"`
	Shared     bool              `json:"shared,omitempty"`
	Degraded   bool              `json:"degraded,omitempty"`
	Retries    int               `json:"retries,omitempty"`
	Candidates []CandidateResult `json:"candidates,omitempty"`
	Error      *ErrorBody        `json:"error,omitempty"`
}

// Job is one admitted analysis or sweep.
type Job struct {
	ID       string
	Priority int
	Created  time.Time
	// TraceID is the job's distributed-trace id: joined from the
	// submitter's traceparent header when one arrived, minted fresh
	// otherwise. parentSpan is the submitter's span id ("" when local).
	TraceID    string
	parentSpan string

	spec     *jobSpec
	backoff  *retry.Backoff
	attempts int // mutated by the single worker running the job

	ctlMu    sync.Mutex
	cancel   context.CancelFunc
	canceled bool

	mu     sync.Mutex
	status JobStatus
	result *Result

	events *hub
	done   chan struct{}
}

func newJob(id string, prio int, spec *jobSpec, pol retry.Policy, traceparent string) *Job {
	tid, psid, _ := obs.ParseTraceparent(traceparent)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	return &Job{
		ID: id, Priority: prio, Created: time.Now(),
		TraceID: tid, parentSpan: psid,
		spec:    spec,
		backoff: retry.NewBackoff(pol),
		status:  StatusQueued,
		events:  newHub(),
		done:    make(chan struct{}),
	}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the terminal result, or nil before the job finished.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (j *Job) setStatus(s JobStatus) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// finish records the terminal state exactly once: result, status, event
// stream closure, done signal.
func (j *Job) finish(status JobStatus, res *Result) {
	j.mu.Lock()
	j.status = status
	j.result = res
	j.mu.Unlock()
	j.events.close()
	close(j.done)
}

// Cancel requests cancellation: a queued job fails before solving, a
// running one trips its meter at the next checkpoint.
func (j *Job) Cancel() {
	j.ctlMu.Lock()
	j.canceled = true
	cancel := j.cancel
	j.ctlMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *Job) isCanceled() bool {
	j.ctlMu.Lock()
	defer j.ctlMu.Unlock()
	return j.canceled
}

func (j *Job) setCancel(fn context.CancelFunc) {
	j.ctlMu.Lock()
	j.cancel = fn
	j.ctlMu.Unlock()
}

// terminal reports whether the job has finished.
func (j *Job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// hub fans a job's progress events out to its SSE subscribers. Publishing
// never blocks: a subscriber that cannot keep up loses progress events
// (they are lossy by design — the throttled stream is a UI, not a ledger);
// the terminal state is delivered out of band via Job.done, so it cannot
// be lost. subscribe after close returns a closed channel, which tells the
// handler to emit the terminal event immediately.
type hub struct {
	mu     sync.Mutex
	subs   map[chan Event]bool
	closed bool
}

func newHub() *hub { return &hub{subs: map[chan Event]bool{}} }

func (h *hub) subscribe() chan Event {
	ch := make(chan Event, 64)
	h.mu.Lock()
	if h.closed {
		close(ch)
	} else {
		h.subs[ch] = true
	}
	h.mu.Unlock()
	return ch
}

func (h *hub) unsubscribe(ch chan Event) {
	h.mu.Lock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

func (h *hub) publish(e Event) {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop the progress event
		}
	}
	h.mu.Unlock()
}

func (h *hub) close() {
	h.mu.Lock()
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
	h.closed = true
	h.mu.Unlock()
}

// resultFrom renders a solve outcome into the job's wire result.
func resultFrom(key string, shared bool, spec *jobSpec, out *solveOutcome) *Result {
	res := &Result{Key: key, Shared: shared}
	if out.err != nil {
		res.Error = &ErrorBody{Kind: errKind(out.err), Message: out.err.Error()}
	}
	for i, c := range spec.cands {
		row := CandidateResult{Label: c.Label,
			CacheBytes: c.Config.SizeBytes, LineBytes: c.Config.LineBytes, Assoc: c.Config.Assoc}
		var rep *cme.Report
		if i < len(out.reports) {
			rep = out.reports[i]
		}
		if rep == nil {
			if out.batch != nil && out.batch.Errs[i] != nil {
				row.Error = out.batch.Errs[i].Error()
			} else if out.err != nil {
				row.Error = out.err.Error()
			}
			res.Candidates = append(res.Candidates, row)
			continue
		}
		row.MissRatioPct = rep.MissRatio()
		row.EstimatedMisses = rep.EstimatedMisses()
		row.Accesses = rep.TotalAccesses()
		row.Tier = rep.Tier.String()
		row.Degraded = rep.Degraded
		row.Coverage = rep.Coverage()
		if rep.Degraded {
			res.Degraded = true
		}
		ci := rep.Scaling
		if ci == nil {
			ci = rep.Geom
		}
		if ci != nil {
			row.ClosedForm = ci.Closed()
			row.ClosedFormRefs = ci.ClosedRefs
			row.ClosedAnchor = ci.Anchor
			row.ClosedWhy = ci.Why
		}
		for _, rr := range rep.Refs {
			row.Refs = append(row.Refs, RefResult{ID: rr.Ref.ID, Volume: rr.Volume,
				Analyzed: rr.Analyzed, Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl,
				Tier: rr.Tier.String(), Ratio: rr.Ratio, ClosedForm: rr.ClosedForm})
		}
		res.Candidates = append(res.Candidates, row)
	}
	return res
}

// failResult renders a job failure that never reached (or never finished)
// the solver.
func failResult(key string, err error) *Result {
	return &Result{Key: key, Error: &ErrorBody{Kind: errKind(err), Message: err.Error()}}
}
