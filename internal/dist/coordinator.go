package dist

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/spec"
)

// Options configures a Coordinator. The zero value is usable.
type Options struct {
	// LeaseTTL is how long a worker may hold a unit without heartbeating
	// before the lease expires and the unit is stolen (default 10s).
	LeaseTTL time.Duration
	// UnitRetries is how many worker-reported failures a unit absorbs
	// before the sweeps referencing it fail (default 3). Lease expiries do
	// not count — a dead worker is the steal path, not the failure path.
	UnitRetries int
	// MaxProblemSize rejects absurd problem sizes at submission
	// (default 4096).
	MaxProblemSize int64
	// MaxCandidates bounds a sweep's candidate grid (default 4096).
	MaxCandidates int
	// PruneConcurrency bounds how many advisor prune passes may solve at
	// once (default 1). The prune pass is CPU-heavy and runs in the
	// submitting caller — on a serve mount that is the HTTP handler
	// goroutine, outside the job API's admission control — so it must not
	// be able to pin every core under concurrent submissions.
	PruneConcurrency int
	// MaxRetainedSweeps bounds how many sweeps the coordinator keeps in
	// memory (default 256; negative retains everything). When the bound is
	// exceeded the oldest *finished* sweeps are evicted — their reports
	// become unavailable and their units leave the dedup store, so a
	// long-lived coordinator's ledger stays bounded. Running sweeps are
	// never evicted.
	MaxRetainedSweeps int
	// JournalPath, when set, appends every sweep submission, lease and
	// unit completion to this file and replays it on startup, so a killed
	// coordinator restarts mid-sweep without losing completed units.
	JournalPath string
	// ShutdownWhenDone makes Lease answer "shutdown" once every submitted
	// sweep has finished — the one-shot CLI mode, where workers should
	// exit instead of polling forever.
	ShutdownWhenDone bool
	// Trace forces a trace id onto every sweep that arrives without one,
	// so lease responses carry trace context and workers record span
	// shards (the -trace-out CLI mode). Off by default: an untraced
	// submission keeps workers on the nil-sink zero-cost path.
	Trace bool
	// Logf receives coordinator lifecycle lines (nil = silent).
	Logf func(format string, args ...any)

	// now and after are the test clock seams; after times a lease hold.
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.UnitRetries <= 0 {
		o.UnitRetries = 3
	}
	if o.MaxProblemSize <= 0 {
		o.MaxProblemSize = 4096
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 4096
	}
	if o.PruneConcurrency <= 0 {
		o.PruneConcurrency = 1
	}
	if o.MaxRetainedSweeps == 0 {
		o.MaxRetainedSweeps = 256
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.after == nil {
		o.after = time.After // an unstopped timer outlives its hold by at most one hold
	}
	return o
}

// unitState is one work unit's scheduling lifecycle.
type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
	unitFailed
)

// unitRef ties a unit to its candidates in one sweep's grid. The first
// ref is the canonical owner; later refs are dedup followers — identical
// (program, geometry, mode, budget) units whose rows are copied from the
// canonical result with only the labels patched (the key construction
// guarantees everything else is identical).
type unitRef struct {
	sweep *sweepState
	cands []WireCandidate
	// idxs maps each unit candidate to its sweep grid index. A fuse group
	// carries strided candidates: the grid iterates cache sizes outermost,
	// so a fixed-(line, pad) group is not consecutive.
	idxs []int
}

// unit is one content-addressed work unit: a candidate or a line-size
// fuse group, keyed by Prepared.SolveKey over exactly those candidates
// (salted with the per-unit budget when one is set — see unitKey).
type unit struct {
	key     string
	refs    []unitRef
	state   unitState
	worker  string
	expires time.Time
	// leasedAt is when the current (or last) lease was granted — the
	// straggler signal, distinct from expires which heartbeats push out.
	leasedAt time.Time
	fails    int
	rows     []Row // canonical rows once done

	// spanID names the unit in the distributed trace; worker solve spans
	// link to it as their parent.
	spanID string
	// timeline is the unit's lifecycle ledger (see timeline.go).
	timeline []TimelineEvent
	// shards are worker-posted span snapshots for traced completions.
	shards []obs.SpanSnapshot
}

// live reports whether any referencing sweep still wants this unit.
func (u *unit) live() bool {
	for _, ref := range u.refs {
		if !ref.sweep.closed {
			return true
		}
	}
	return false
}

// sweepID is the sweep's identity: the batch SolveKey extended with every
// row-affecting spec field the key scheme does not cover — the advisor
// prune knobs (which replace dominated rows with cheap-tier estimates)
// and the per-unit budget (which may degrade rows). Without the salt, a
// sweep submitted with prune or a budget would alias an identical-grid
// sweep without them, and the idempotent-resubmit path would hand the
// caller rows its spec never asked for.
func sweepID(solveKey string, spec *SweepSpec) string {
	h := sha256.New()
	h.Write([]byte(solveKey))
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	if spec.Prune {
		wi(1)
		wi(int64(spec.pruneKeep()))
		wi(int64(math.Float64bits(spec.pruneMargin())))
	} else {
		wi(0)
	}
	wi(spec.MaxPoints)
	wi(spec.TimeoutMs)
	return hex.EncodeToString(h.Sum(nil))
}

// unitKey is a unit's dedup identity. Unbudgeted units keep the raw
// SolveKey — the pure content address, shared with the result cache
// family. A budget can degrade rows, so budgeted units are salted with
// their budget and may only dedup against units with the identical one:
// a tight-budget sweep must never donate degraded canonical rows to an
// unbudgeted sweep (or vice versa).
func unitKey(solveKey string, s SolveSpec) string {
	if s.MaxPoints == 0 && s.TimeoutMs == 0 {
		return solveKey
	}
	h := sha256.New()
	h.Write([]byte(solveKey))
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(s.MaxPoints)
	wi(s.TimeoutMs)
	return hex.EncodeToString(h.Sum(nil))
}

// sweepState is one submitted sweep's merge ledger.
type sweepState struct {
	id      string
	spec    *SweepSpec
	program string
	wcs     []WireCandidate

	// traceID ("" = untraced) correlates the sweep across submitter,
	// coordinator and workers; spanID is the sweep's own span, the
	// parent of every unit span; parentSpan is the submitter's span.
	traceID    string
	spanID     string
	parentSpan string

	rows      []Row
	filled    []bool
	remaining int // unfilled rows

	units []*unit // every unit this sweep references (for eviction GC)

	unitsTotal int // unit refs (canonical + follower)
	unitsDone  int
	deduped    int
	pruned     int
	stolen     int64
	retried    int64

	failed  string
	closed  bool
	done    chan struct{}
	created time.Time
}

// workerStat is the per-worker throughput ledger.
type workerStat struct {
	completed int64
	firstSeen time.Time
	lastSeen  time.Time
	// unit/leasedAt track the worker's current lease for the fleet view
	// ("" when idle).
	unit     string
	leasedAt time.Time
	// shutdown marks that this worker has been answered LeaseShutdown: it
	// is gone for scheduling purposes, and a lingering coordinator can
	// exit once every known worker is shut down.
	shutdown bool
}

// Coordinator owns sweep decomposition, unit leasing, stealing, dedup,
// journalling and the deterministic merge. All methods are safe for
// concurrent use; the coordinator is passive (no background goroutines) —
// expiry reaping happens on every request, which keeps it trivially
// testable under a fake clock, and a held lease (LeaseWait) waits on its
// caller's goroutine.
type Coordinator struct {
	opt      Options
	pruneSem chan struct{} // bounds concurrent prune passes

	mu      sync.Mutex
	sweeps  map[string]*sweepState
	order   []string
	pending []*unit          // FIFO of schedulable units (entries may be stale; checked on pop)
	leased  map[string]*unit // in-flight leases, the reaper's working set
	byKey   map[string]*unit
	workers map[string]*workerStat
	journal *journal
	// wake is closed and replaced whenever a held lease may find a new
	// answer: a unit queued, a sweep closed. Close closes it for good and
	// leaves it nil.
	wake chan struct{}

	sweepsTotal, unitsTotal, prunedTotal         int64
	leasedT, stolen, deduped, retried, completed int64
	timelineEvents                               int64
	traces                                       []string // trace ids of traced sweeps, submission order
	// names interns the reference ids and tier names of retained rows
	// (at most maxInterned entries; see compactRowsLocked).
	names map[string]string
}

// maxInterned bounds the coordinator's name table. Past it, new names are
// kept as decoded: interning only saves memory, it never changes a row.
const maxInterned = 1 << 12

// New builds a coordinator, replaying the journal at Options.JournalPath
// when one exists: sweeps are re-decomposed from their journalled specs
// (deterministic, so unit keys match) and completed units are re-applied
// by key, so only work that never completed is re-issued. Records that no
// longer match (a spec the current build rejects, a key no code path
// produces) are skipped with a log line rather than trusted.
func New(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := &Coordinator{
		opt:      opt,
		pruneSem: make(chan struct{}, opt.PruneConcurrency),
		sweeps:   map[string]*sweepState{},
		leased:   map[string]*unit{},
		byKey:    map[string]*unit{},
		workers:  map[string]*workerStat{},
		wake:     make(chan struct{}),
		names:    map[string]string{},
	}
	if opt.JournalPath == "" {
		return c, nil
	}
	recs, j, err := openJournal(opt.JournalPath)
	if err != nil {
		return nil, err
	}
	// Replay with journalling suppressed (c.journal still nil): the
	// records being replayed are already on disk.
	for _, r := range recs {
		switch r.T {
		case recSweep:
			if r.Spec == nil {
				continue
			}
			// Re-attach the journalled trace id so post-crash log lines
			// and trace exports stay greppable by the original trace.
			ctx := context.Background()
			if r.Trace != "" {
				ctx = WithTraceparent(ctx, obs.FormatTraceparent(r.Trace, obs.NewSpanID()))
			}
			if _, err := c.addSweep(ctx, r.Spec, r.Pruned, true); err != nil {
				opt.Logf("dist: journal replay: sweep %.12s: %v", r.Sweep, err)
			}
		case recComplete:
			if err := c.Complete(r.Worker, r.Sweep, r.Unit, r.Rows, "", nil); err != nil {
				opt.Logf("dist: journal replay: unit %.12s: %v", r.Unit, err)
			}
		case recFail:
			_ = c.Complete(r.Worker, r.Sweep, r.Unit, nil, r.Err, nil)
		}
	}
	c.journal = j
	return c, nil
}

// Close releases the journal file handle and returns every held lease
// (the coordinator itself has no other resources).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
	if c.journal != nil {
		return c.journal.close()
	}
	return nil
}

// limits are the coordinator's admission bounds in the spec vocabulary.
func (c *Coordinator) limits() spec.Limits {
	return spec.Limits{Who: "coordinator", MaxSize: c.opt.MaxProblemSize, MaxCandidates: c.opt.MaxCandidates}
}

// AddSweep validates and decomposes a sweep, returning its status. The
// sweep id covers the full candidate grid plus every row-affecting spec
// field (solve mode, prune knobs, budget), so resubmitting an identical
// sweep is idempotent — the existing sweep's status comes back and no new
// units are created — while a same-grid sweep with a different prune or
// budget spec is a distinct sweep.
func (c *Coordinator) AddSweep(ctx context.Context, spec *SweepSpec) (*SweepStatus, error) {
	return c.addSweep(ctx, spec, nil, false)
}

// addSweep registers a sweep. journalledPrune, non-nil only during journal
// replay of a prune sweep, is the prune pass's journalled outcome: replay
// re-applies it instead of re-running the solve pass (which would make
// startup arbitrarily slow for a journal full of prune sweeps).
func (c *Coordinator) addSweep(ctx context.Context, sw *SweepSpec, journalledPrune *map[int]Row, replay bool) (*SweepStatus, error) {
	lim := c.limits()
	wcs, err := sw.grid(lim)
	if err != nil {
		return nil, err
	}
	// Unit keys come from the program's prepared form, shared with the
	// process's workers and front doors.
	prep, err := sw.ProgramSpec.Prepared(lim, sw.Adaptive)
	if err != nil {
		return nil, err
	}
	plan, err := sw.plan()
	if err != nil {
		return nil, err
	}
	cands := spec.Solvers(wcs)
	id := sweepID(prep.SolveKey(cands, plan), sw)

	// Trace context: an obs collector in ctx wins (in-process submitter),
	// then a remote traceparent (HTTP header / journal replay), then a
	// coordinator-minted id when Options.Trace forces tracing. Untraced
	// sweeps keep traceID == "" and workers stay on the nil-sink path.
	// The trace is pure observability: it never feeds sweepID, unitKey or
	// Row, so traced and untraced merges are byte-identical.
	tp := obs.Traceparent(ctx)
	if tp == "" {
		tp = traceparentFrom(ctx)
	}
	traceID, parentSpan, _ := obs.ParseTraceparent(tp)
	if traceID == "" && c.opt.Trace {
		traceID = obs.NewTraceID()
	}

	c.mu.Lock()
	if ss, ok := c.sweeps[id]; ok {
		st := c.sweepStatusLocked(ss)
		c.mu.Unlock()
		return st, nil
	}
	c.mu.Unlock()

	// The prune pass solves (cheap tier), so it runs outside the lock,
	// bounded by the prune semaphore.
	prunedRows := map[int]Row{}
	if sw.Prune {
		if sw.PadArray != "" {
			return nil, fmt.Errorf("prune is not supported with a pad axis (the advisor ranks geometries, not layouts)")
		}
		if journalledPrune != nil {
			prunedRows = *journalledPrune
			if prunedRows == nil {
				prunedRows = map[int]Row{}
			}
		} else if prunedRows, err = c.runPrune(ctx, sw, wcs); err != nil {
			return nil, err
		}
	}

	ss := &sweepState{
		id:         id,
		spec:       sw,
		program:    prep.Program().Name,
		wcs:        wcs,
		traceID:    traceID,
		parentSpan: parentSpan,
		rows:       make([]Row, len(wcs)),
		filled:     make([]bool, len(wcs)),
		done:       make(chan struct{}),
		created:    c.opt.now(),
	}
	if traceID != "" {
		ss.spanID = obs.NewSpanID()
	}
	for i, row := range prunedRows {
		ss.rows[i] = row
		ss.filled[i] = true
	}
	ss.pruned = len(prunedRows)
	ss.remaining = len(wcs) - len(prunedRows)
	mPruned.Add(int64(ss.pruned))

	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.sweeps[id]; ok { // raced with an identical submit
		return c.sweepStatusLocked(existing), nil
	}
	c.sweeps[id] = ss
	c.order = append(c.order, id)
	c.sweepsTotal++
	c.prunedTotal += int64(ss.pruned)
	mSweeps.Inc()
	if ss.traceID != "" {
		c.traces = append(c.traces, ss.traceID)
	}
	now := c.opt.now()

	addUnit := func(key string, ref unitRef) {
		ss.unitsTotal++
		if u, ok := c.byKey[key]; ok {
			// Content-addressed dedup: an identical unit (same program
			// digest, geometry run, solve mode and budget) already exists,
			// within this sweep or from an earlier one.
			ss.deduped++
			c.deduped++
			mDeduped.Inc()
			ss.units = append(ss.units, u)
			c.eventLocked(u, now, TimelineDeduped, "", fmt.Sprintf("sweep %.12s", id))
			switch u.state {
			case unitDone:
				c.fillLocked(u, ref, u.rows)
			case unitFailed:
				// A fresh sweep earns the unit fresh attempts.
				u.state = unitPending
				u.fails = 0
				mPending.Add(1)
				u.refs = append(u.refs, ref)
				c.pending = append(c.pending, u)
				c.eventLocked(u, now, TimelineQueued, "", "")
			default:
				u.refs = append(u.refs, ref)
			}
		} else {
			u := &unit{key: key, refs: []unitRef{ref}}
			if ss.traceID != "" {
				u.spanID = obs.NewSpanID()
			}
			c.byKey[key] = u
			c.unitsTotal++
			ss.units = append(ss.units, u)
			c.pending = append(c.pending, u)
			mUnits.Inc()
			mPending.Add(1)
			c.eventLocked(u, now, TimelineSubmitted, "", fmt.Sprintf("sweep %.12s", id))
			c.eventLocked(u, now, TimelineQueued, "", "")
		}
	}

	// The partition: an exact, unbudgeted sweep shards by fuse group —
	// every cache size and associativity sharing (line size, pad) rides
	// one unit, in grid order — so the solving worker's SolveBatch runs
	// the geometry-parametric tier (cme geom.go) and one fused walk over
	// the whole group, exactly as an in-process sweep does. Every other
	// candidate is a unit of its own, the finest stealing granularity:
	// those of budgeted sweeps (the budget is per unit, so regrouping
	// would change how far it stretches) and of sampled ones, which do
	// not fuse. Counts are bit-identical under any partition, but
	// set-count provenance is not: a one-candidate unit has no line size
	// to share, so a budgeted exact sweep's rows never carry it, while
	// SolveLocal's whole-grid batch does. Only the unbudgeted partition
	// keeps every row byte-identical to SolveLocal.
	addUnitOf := func(idxs []int) {
		ucs := make([]cme.Candidate, len(idxs))
		uwcs := make([]WireCandidate, len(idxs))
		for j, gi := range idxs {
			ucs[j], uwcs[j] = cands[gi], wcs[gi]
		}
		addUnit(unitKey(prep.SolveKey(ucs, plan), sw.SolveSpec), unitRef{sweep: ss, cands: uwcs, idxs: idxs})
	}
	fused := sw.Exact && sw.MaxPoints == 0 && sw.TimeoutMs == 0
	groups := map[WireCandidate][]int{} // keyed by the candidate's line size and pad
	var order []WireCandidate
	for i, wc := range wcs {
		if ss.filled[i] {
			continue
		}
		if !fused {
			addUnitOf([]int{i})
			continue
		}
		k := WireCandidate{LineBytes: wc.LineBytes, PadArray: wc.PadArray, Pad: wc.Pad}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		addUnitOf(groups[k])
	}
	if !replay {
		rec := journalRec{T: recSweep, Sweep: id, Spec: sw, Trace: ss.traceID}
		if sw.Prune {
			// Journal the prune outcome with the submission so replay
			// re-applies it instead of re-solving the cheap pass.
			rec.Pruned = &prunedRows
		}
		c.journalLocked(rec, true)
	}
	if ss.traceID != "" {
		c.opt.Logf("dist: sweep %.12s: %d candidates, %d units (%d deduped, %d pruned) trace %s",
			id, len(wcs), ss.unitsTotal, ss.deduped, ss.pruned, ss.traceID)
	} else {
		c.opt.Logf("dist: sweep %.12s: %d candidates, %d units (%d deduped, %d pruned)",
			id, len(wcs), ss.unitsTotal, ss.deduped, ss.pruned)
	}
	c.checkDoneLocked(ss)
	c.evictLocked()
	c.wakeLocked()
	return c.sweepStatusLocked(ss), nil
}

// runPrune runs the advisor prune pass under the concurrency bound: at
// most Options.PruneConcurrency grids solve at once, the rest queue here
// (or give up with the caller's context).
func (c *Coordinator) runPrune(ctx context.Context, spec *SweepSpec, wcs []WireCandidate) (map[int]Row, error) {
	select {
	case c.pruneSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.pruneSem }()
	return pruneGrid(ctx, spec, wcs)
}

// evictLocked drops the oldest finished sweeps beyond the retention
// bound, so a long-lived coordinator accepting many sweeps does not grow
// without bound. An evicted sweep's report becomes unavailable and its
// resolved units leave the dedup store (a later identical sweep re-solves
// them — cheap, since workers keep their own result caches). Running
// sweeps are never evicted.
func (c *Coordinator) evictLocked() {
	if c.opt.MaxRetainedSweeps < 0 {
		return
	}
	for len(c.sweeps) > c.opt.MaxRetainedSweeps {
		evicted := false
		for i, id := range c.order {
			ss := c.sweeps[id]
			if !ss.closed {
				continue
			}
			c.order = append(c.order[:i], c.order[i+1:]...)
			delete(c.sweeps, id)
			for _, u := range ss.units {
				if (u.state == unitDone || u.state == unitFailed) && !u.live() && c.byKey[u.key] == u {
					delete(c.byKey, u.key)
				}
			}
			c.opt.Logf("dist: evicted finished sweep %.12s (retention %d)", id, c.opt.MaxRetainedSweeps)
			evicted = true
			break
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}

// leaseHold bounds how long LeaseWait holds an idle worker's request, and
// is the retry hint of Lease's non-blocking "wait": a quarter of the
// lease TTL, at most 500ms. Holding no longer than that keeps expiry
// reaping prompt — the hold ends in a lease, which reaps.
func (c *Coordinator) leaseHold() time.Duration {
	return min(c.opt.LeaseTTL/4, 500*time.Millisecond)
}

// Lease hands the next pending unit to worker, first reclaiming any
// expired leases (work stealing). When nothing is pending it answers
// "wait" (units are still in flight, or no sweep has been submitted yet)
// or — with ShutdownWhenDone, once every sweep is finished — "shutdown".
// The pending queue makes this O(1) amortised in the coordinator's
// lifetime unit count: neither leasing nor reaping ever scans units that
// are already resolved. Lease never blocks; LeaseWait is the held form
// the HTTP handler serves.
func (c *Coordinator) Lease(worker string) *LeaseResponse {
	lr, _ := c.lease(worker)
	return lr
}

// LeaseWait is Lease held open: when the answer would be "wait", it waits
// until a unit is queued, a sweep closes, ctx ends, Close is called or
// the hold (leaseHold) expires, and leases again. At expiry it leases
// once more — that reaps expired leases, so a dead worker's unit still
// reaches a held caller within LeaseTTL plus one hold — and only then
// answers "wait", with a 1ms hint: the caller has already been held, so
// it should ask again at once. The wait runs on the caller's goroutine.
func (c *Coordinator) LeaseWait(ctx context.Context, worker string) *LeaseResponse {
	expired := c.opt.after(c.leaseHold())
	for {
		lr, wake := c.lease(worker)
		if lr.Status != LeaseWait || wake == nil {
			return lr
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return lr
		case <-expired:
			if lr, _ = c.lease(worker); lr.Status == LeaseWait {
				lr.RetryAfterMs = 1
			}
			return lr
		}
	}
}

// lease is Lease plus the wake channel current when it answered (nil once
// the coordinator is closed), taken under the same lock so a held caller
// cannot miss a wake-up that lands between the answer and its wait.
func (c *Coordinator) lease(worker string) (*LeaseResponse, <-chan struct{}) {
	now := c.opt.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(worker, now), c.wake
}

func (c *Coordinator) leaseLocked(worker string, now time.Time) *LeaseResponse {
	c.touchWorkerLocked(worker, now)
	c.reapLocked(now)
	for len(c.pending) > 0 {
		u := c.pending[0]
		c.pending[0] = nil
		c.pending = c.pending[1:]
		if u.state != unitPending || c.byKey[u.key] != u {
			continue // stale entry: resolved or collected since it was queued
		}
		if !u.live() {
			// Every referencing sweep already closed (failed): drop the
			// unit instead of spending a worker on it.
			u.state = unitFailed
			delete(c.byKey, u.key)
			mPending.Add(-1)
			continue
		}
		u.state = unitLeased
		u.worker = worker
		u.expires = now.Add(c.opt.LeaseTTL)
		u.leasedAt = now
		c.leased[u.key] = u
		c.leasedT++
		mLeased.Inc()
		mPending.Add(-1)
		// Lease wait: time since the unit last entered the pending queue.
		for i := len(u.timeline) - 1; i >= 0; i-- {
			if u.timeline[i].State == TimelineQueued {
				mLeaseWaitMs.Observe(now.UnixMilli() - u.timeline[i].AtMs)
				break
			}
		}
		c.eventLocked(u, now, TimelineLeased, worker, "")
		if ws := c.workers[worker]; ws != nil {
			ws.unit = u.key
			ws.leasedAt = now
		}
		ref := u.refs[0]
		// Lease records are audit-only (never replayed), so they ride
		// without an fsync — scheduling must not serialize behind disk.
		c.journalLocked(journalRec{T: recLease, Sweep: ref.sweep.id, Unit: u.key, Worker: worker, Trace: ref.sweep.traceID}, false)
		return &LeaseResponse{
			Status: LeaseUnit,
			Sweep:  ref.sweep.id,
			TTLMs:  c.opt.LeaseTTL.Milliseconds(),
			// Trace context rides the lease: the unit span becomes the
			// parent of the worker's solve span shard. Empty when the
			// sweep is untraced, which keeps the worker uninstrumented.
			Traceparent: obs.FormatTraceparent(ref.sweep.traceID, u.spanID),
			Unit: &UnitSpec{
				Key:        u.key,
				Seq:        ref.idxs[0],
				Program:    ref.sweep.spec.ProgramSpec,
				Solve:      ref.sweep.spec.SolveSpec,
				Candidates: ref.cands,
			},
		}
	}
	if c.opt.ShutdownWhenDone && len(c.sweeps) > 0 && c.allDoneLocked() {
		if ws := c.workers[worker]; ws != nil {
			ws.shutdown = true
		}
		return &LeaseResponse{Status: LeaseShutdown}
	}
	return &LeaseResponse{Status: LeaseWait, RetryAfterMs: c.leaseHold().Milliseconds()}
}

// Heartbeat extends worker's lease on a unit. false means the lease is
// gone — expired and stolen, completed elsewhere, or never granted — and
// the worker should abandon the unit (its late result would be identical
// anyway, but the compute is better spent on a fresh lease).
func (c *Coordinator) Heartbeat(worker, sweep, unitKey string) bool {
	now := c.opt.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	c.reapLocked(now)
	u := c.byKey[unitKey]
	if u == nil || u.state != unitLeased || u.worker != worker {
		return false
	}
	u.expires = now.Add(c.opt.LeaseTTL)
	c.eventLocked(u, now, TimelineHeartbeat, worker, "")
	return true
}

// Complete records a unit result (or a worker-reported failure). Late
// completions from stale leases are accepted when the unit is still
// unresolved — the result is bit-identical to what the stealing worker
// would produce, so first write wins and the duplicate is dropped.
// shard, optional, is the worker's span snapshot for a traced solve; it
// feeds the merged trace export and never touches the rows.
func (c *Coordinator) Complete(worker, sweep, unitKey string, rows []Row, errMsg string, shard *obs.SpanSnapshot) error {
	now := c.opt.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	u := c.byKey[unitKey]
	if u == nil {
		return fmt.Errorf("unknown unit %.12s", unitKey)
	}
	if ws := c.workers[worker]; ws != nil && ws.unit == unitKey {
		ws.unit = ""
	}
	if u.state == unitDone || u.state == unitFailed {
		return nil // duplicate or late after resolution: drop
	}
	want := len(u.refs[0].cands)
	if errMsg == "" && len(rows) != want {
		return fmt.Errorf("unit %.12s: got %d rows, want %d", unitKey, len(rows), want)
	}
	if shard != nil && len(u.shards) < maxUnitShards {
		u.shards = append(u.shards, *shard)
	}
	wasPending := u.state == unitPending
	u.worker = ""
	delete(c.leased, u.key)
	if errMsg != "" {
		u.fails++
		c.journalLocked(journalRec{T: recFail, Sweep: sweep, Unit: unitKey, Worker: worker, Err: errMsg}, true)
		if u.fails >= c.opt.UnitRetries {
			u.state = unitFailed
			if wasPending {
				mPending.Add(-1)
			}
			c.eventLocked(u, now, TimelineFailed, worker, errMsg)
			c.failLocked(u, errMsg)
			return nil
		}
		u.state = unitPending
		if !wasPending {
			mPending.Add(1)
			c.pending = append(c.pending, u)
		}
		c.retried++
		mRetried.Inc()
		for _, ref := range u.refs {
			ref.sweep.retried++
		}
		c.eventLocked(u, now, TimelineRetried, worker, errMsg)
		c.eventLocked(u, now, TimelineQueued, "", "")
		c.wakeLocked()
		c.opt.Logf("dist: unit %.12s failed on %s (attempt %d/%d): %s",
			unitKey, worker, u.fails, c.opt.UnitRetries, errMsg)
		return nil
	}
	u.state = unitDone
	rows = c.compactRowsLocked(rows)
	u.rows = rows
	if wasPending {
		mPending.Add(-1)
	}
	c.completed++
	mCompleted.Inc()
	if ws := c.workers[worker]; ws != nil {
		ws.completed++
	}
	c.eventLocked(u, now, TimelineReported, worker, tierSummary(rows))
	for _, ref := range u.refs {
		c.fillLocked(u, ref, rows)
	}
	c.journalLocked(journalRec{T: recComplete, Sweep: sweep, Unit: unitKey, Worker: worker, Rows: rows}, true)
	return nil
}

// compactRowsLocked copies a unit result into exactly sized storage for
// retention: the rows and each row's Refs lose the slack the JSON
// decoder's append-doubling leaves, the tier, closed-form reason and
// per-reference id and tier strings are interned, so the many rows naming
// one reference share one string, and rows of the unit with equal Refs
// share one slice (the set-count tier copies one anchor's counts to every
// stable geometry of a line size, so most rows of a unit repeat
// another's). Only capacities and
// storage sharing change, so the rows stay bit-identical; retained rows
// are read-only.
func (c *Coordinator) compactRowsLocked(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	var distinct [][]RefRow
	for i := range out {
		out[i].Tier = c.internLocked(out[i].Tier)
		out[i].ClosedWhy = c.internLocked(out[i].ClosedWhy)
		if len(out[i].Refs) == 0 {
			continue
		}
		if k := slices.IndexFunc(distinct, func(d []RefRow) bool { return slices.Equal(d, out[i].Refs) }); k >= 0 {
			out[i].Refs = distinct[k]
			continue
		}
		refs := make([]RefRow, len(out[i].Refs))
		copy(refs, out[i].Refs)
		for j := range refs {
			refs[j].ID = c.internLocked(refs[j].ID)
			refs[j].Tier = c.internLocked(refs[j].Tier)
		}
		out[i].Refs = refs
		distinct = append(distinct, refs)
	}
	return out
}

// internLocked returns the table's copy of s, adding s while the table
// has room.
func (c *Coordinator) internLocked(s string) string {
	if v, ok := c.names[s]; ok {
		return v
	}
	if len(c.names) < maxInterned {
		c.names[s] = s
	}
	return s
}

// reapLocked reclaims expired leases: the stealing half of the fabric.
// It walks only the in-flight lease set (bounded by the worker count),
// never the full unit ledger.
func (c *Coordinator) reapLocked(now time.Time) {
	for key, u := range c.leased {
		if u.state != unitLeased {
			delete(c.leased, key) // resolved since; defensive
			continue
		}
		if now.Before(u.expires) {
			continue
		}
		c.opt.Logf("dist: lease on unit %.12s expired (worker %s): re-queueing", u.key, u.worker)
		delete(c.leased, key)
		if ws := c.workers[u.worker]; ws != nil && ws.unit == u.key {
			ws.unit = ""
		}
		robbed := u.worker
		u.worker = ""
		if !u.live() {
			// No sweep wants it anymore: drop instead of re-queueing.
			u.state = unitFailed
			delete(c.byKey, u.key)
			continue
		}
		u.state = unitPending
		c.pending = append(c.pending, u)
		mPending.Add(1)
		c.stolen++
		mStolen.Inc()
		for _, ref := range u.refs {
			ref.sweep.stolen++
		}
		c.eventLocked(u, now, TimelineStolen, robbed, "lease expired")
		c.eventLocked(u, now, TimelineQueued, "", "")
		c.wakeLocked()
	}
}

// fillLocked merges one unit result into a sweep's rows at its grid
// offset, patching labels for dedup followers (the only field that can
// differ between units with equal keys).
func (c *Coordinator) fillLocked(u *unit, ref unitRef, rows []Row) {
	ss := ref.sweep
	c.eventLocked(u, c.opt.now(), TimelineMerged, "", fmt.Sprintf("sweep %.12s", ss.id))
	for i, row := range rows {
		if i >= len(ref.cands) {
			break
		}
		row.Label = ref.cands[i].Label
		idx := ref.idxs[i]
		if !ss.filled[idx] {
			ss.filled[idx] = true
			ss.remaining--
		}
		ss.rows[idx] = row
	}
	ss.unitsDone++
	c.checkDoneLocked(ss)
}

// failLocked fails every sweep referencing a permanently failed unit.
func (c *Coordinator) failLocked(u *unit, msg string) {
	for _, ref := range u.refs {
		ss := ref.sweep
		if ss.closed {
			continue
		}
		ss.failed = fmt.Sprintf("unit %.12s failed after %d attempts: %s", u.key, u.fails, msg)
		ss.closed = true
		close(ss.done)
		c.wakeLocked()
		c.opt.Logf("dist: sweep %.12s failed: %s", ss.id, ss.failed)
	}
}

func (c *Coordinator) checkDoneLocked(ss *sweepState) {
	if ss.closed || ss.remaining > 0 {
		return
	}
	ss.closed = true
	close(ss.done)
	c.wakeLocked()
	c.opt.Logf("dist: sweep %.12s complete (%d candidates)", ss.id, len(ss.wcs))
}

// wakeLocked releases every held lease to lease again. Waking on events
// that turn out not to help a caller is harmless: it re-holds.
func (c *Coordinator) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = make(chan struct{})
	}
}

func (c *Coordinator) allDoneLocked() bool {
	for _, ss := range c.sweeps {
		if !ss.closed {
			return false
		}
	}
	return true
}

func (c *Coordinator) touchWorkerLocked(worker string, now time.Time) {
	if worker == "" {
		return
	}
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerStat{firstSeen: now}
		c.workers[worker] = ws
	}
	ws.lastSeen = now
	ws.shutdown = false // a returning worker is active again
	active := int64(0)
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= 30*time.Second {
			active++
		}
	}
	mWorkers.Set(active)
}

func (c *Coordinator) journalLocked(rec journalRec, sync bool) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(rec, sync); err != nil {
		c.opt.Logf("dist: journal append: %v", err)
	}
}

// Wait blocks until the sweep finishes (nil), fails (its error), or ctx
// is cancelled.
func (c *Coordinator) Wait(ctx context.Context, id string) error {
	c.mu.Lock()
	ss, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("no such sweep %.12s", id)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-ss.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ss.failed != "" {
		return fmt.Errorf("sweep %.12s: %s", id, ss.failed)
	}
	return nil
}

// Report returns the deterministic merge of a finished sweep.
func (c *Coordinator) Report(id string) (*MergedReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ss, ok := c.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("no such sweep %.12s", id)
	}
	if !ss.closed {
		return nil, fmt.Errorf("sweep %.12s is still running", id)
	}
	if ss.failed != "" {
		return nil, fmt.Errorf("sweep %.12s: %s", id, ss.failed)
	}
	rows := make([]Row, len(ss.rows))
	copy(rows, ss.rows)
	return &MergedReport{
		Schema:     ReportSchemaV1,
		Sweep:      ss.id,
		Program:    ss.program,
		Candidates: len(ss.wcs),
		Rows:       rows,
		Stats:      c.sweepStatsLocked(ss),
	}, nil
}

// SweepStats is one sweep's scheduling ledger.
type SweepStats struct {
	Candidates int   `json:"candidates"`
	Units      int   `json:"units"`
	UnitsDone  int   `json:"units_done"`
	Deduped    int   `json:"units_deduped"`
	Pruned     int   `json:"candidates_pruned,omitempty"`
	Stolen     int64 `json:"units_stolen"`
	Retried    int64 `json:"units_retried"`
}

// SweepStatus is the wire status of one sweep.
type SweepStatus struct {
	Sweep   string     `json:"sweep"`
	Program string     `json:"program"`
	TraceID string     `json:"trace_id,omitempty"`
	Done    bool       `json:"done"`
	Failed  string     `json:"failed,omitempty"`
	Stats   SweepStats `json:"stats"`
}

func (c *Coordinator) sweepStatsLocked(ss *sweepState) SweepStats {
	return SweepStats{
		Candidates: len(ss.wcs),
		Units:      ss.unitsTotal,
		UnitsDone:  ss.unitsDone,
		Deduped:    ss.deduped,
		Pruned:     ss.pruned,
		Stolen:     ss.stolen,
		Retried:    ss.retried,
	}
}

func (c *Coordinator) sweepStatusLocked(ss *sweepState) *SweepStatus {
	return &SweepStatus{
		Sweep:   ss.id,
		Program: ss.program,
		TraceID: ss.traceID,
		Done:    ss.closed && ss.failed == "",
		Failed:  ss.failed,
		Stats:   c.sweepStatsLocked(ss),
	}
}

// SweepStatus returns one sweep's status.
func (c *Coordinator) SweepStatus(id string) (*SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ss, ok := c.sweeps[id]
	if !ok {
		return nil, false
	}
	return c.sweepStatusLocked(ss), true
}

// WorkerStatus is one worker's throughput snapshot.
type WorkerStatus struct {
	UnitsCompleted int64   `json:"units_completed"`
	UnitsPerSec    float64 `json:"units_per_sec"`
	LastSeenMs     int64   `json:"last_seen_ms"`
	// CurrentUnit is the unit the worker holds a lease on ("" when
	// idle); LeaseAgeMs is how long it has held it.
	CurrentUnit string `json:"current_unit,omitempty"`
	LeaseAgeMs  int64  `json:"lease_age_ms,omitempty"`
	// Shutdown means the worker has been told to exit (ShutdownWhenDone
	// after the last sweep finished) and is no longer scheduled.
	Shutdown bool `json:"shutdown,omitempty"`
}

// Straggler is one leased unit that has outlived a full lease TTL (it
// survives only through heartbeats) — the fleet view's "where is the
// wall-clock going right now" list.
type Straggler struct {
	Unit   string `json:"unit"`
	Sweep  string `json:"sweep"`
	Worker string `json:"worker"`
	Seq    int    `json:"seq"`
	AgeMs  int64  `json:"age_ms"`
}

// Status is the coordinator-wide snapshot (GET /v1/dist/status). Units
// counts every unit ever created, including those evicted from memory.
type Status struct {
	Sweeps       []*SweepStatus `json:"sweeps"`
	Units        int            `json:"units"`
	UnitsDone    int64          `json:"units_completed"`
	UnitsLeased  int64          `json:"units_leased"`
	UnitsStolen  int64          `json:"units_stolen"`
	UnitsDeduped int64          `json:"units_deduped"`
	UnitsRetried int64          `json:"units_retried"`
	// QueueDepth is how many units are pending a lease right now.
	QueueDepth int `json:"queue_depth"`
	// InFlight is how many leases are currently held.
	InFlight int `json:"in_flight"`
	// Stragglers lists in-flight units older than one lease TTL, oldest
	// first (capped at 16).
	Stragglers []Straggler             `json:"stragglers,omitempty"`
	Workers    map[string]WorkerStatus `json:"workers,omitempty"`
}

// Status snapshots the whole coordinator, reaping expired leases first so
// a poller sees steals without needing a concurrent lease request.
func (c *Coordinator) Status() *Status {
	now := c.opt.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	st := &Status{
		Units:        int(c.unitsTotal),
		UnitsDone:    c.completed,
		UnitsLeased:  c.leasedT,
		UnitsStolen:  c.stolen,
		UnitsDeduped: c.deduped,
		UnitsRetried: c.retried,
		InFlight:     len(c.leased),
	}
	for _, u := range c.pending {
		if u.state == unitPending && c.byKey[u.key] == u {
			st.QueueDepth++
		}
	}
	for _, u := range c.leased {
		if u.state != unitLeased {
			continue
		}
		age := now.Sub(u.leasedAt)
		if age <= c.opt.LeaseTTL {
			continue
		}
		st.Stragglers = append(st.Stragglers, Straggler{
			Unit:   u.key,
			Sweep:  u.refs[0].sweep.id,
			Worker: u.worker,
			Seq:    u.refs[0].idxs[0],
			AgeMs:  age.Milliseconds(),
		})
	}
	sort.Slice(st.Stragglers, func(i, j int) bool { return st.Stragglers[i].AgeMs > st.Stragglers[j].AgeMs })
	if len(st.Stragglers) > 16 {
		st.Stragglers = st.Stragglers[:16]
	}
	for _, id := range c.order {
		st.Sweeps = append(st.Sweeps, c.sweepStatusLocked(c.sweeps[id]))
	}
	if len(c.workers) > 0 {
		st.Workers = map[string]WorkerStatus{}
		for name, ws := range c.workers {
			w := WorkerStatus{UnitsCompleted: ws.completed, LastSeenMs: now.Sub(ws.lastSeen).Milliseconds(), Shutdown: ws.shutdown}
			if ws.unit != "" {
				w.CurrentUnit = ws.unit
				w.LeaseAgeMs = now.Sub(ws.leasedAt).Milliseconds()
			}
			if up := now.Sub(ws.firstSeen).Seconds(); up > 0 {
				w.UnitsPerSec = float64(ws.completed) / up
			}
			st.Workers[name] = w
		}
	}
	return st
}

// Outcomes renders the coordinator's ledger for the obs run report.
func (c *Coordinator) Outcomes() *obs.DistOutcomes {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &obs.DistOutcomes{
		Sweeps:         c.sweepsTotal,
		Units:          c.unitsTotal,
		Completed:      c.completed,
		Leased:         c.leasedT,
		Stolen:         c.stolen,
		Deduped:        c.deduped,
		Retried:        c.retried,
		Pruned:         c.prunedTotal,
		TimelineEvents: c.timelineEvents,
		Traces:         append([]string(nil), c.traces...),
	}
	for name, ws := range c.workers {
		if ws.completed > 0 {
			if d.Workers == nil {
				d.Workers = map[string]int64{}
			}
			d.Workers[name] = ws.completed
		}
	}
	return d
}
