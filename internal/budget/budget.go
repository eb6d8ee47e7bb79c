// Package budget makes every solver of the analysis stack interruptible
// and budget-aware. A Budget caps the resources one analysis may consume —
// wall-clock time, classified iteration points and interference-scan work —
// and a Meter enforces it through cooperative checkpoints placed at
// iteration-point granularity inside the solvers, so both context
// cancellation and budget exhaustion land within milliseconds.
//
// The checkpoints are engineered to stay off the hot path: each worker
// goroutine owns a Probe that accumulates counts locally and consults the
// shared Meter only every few dozen points (or a few thousand scan steps),
// or sooner near a cap, so the per-point cost is a few increments and
// compares. Regions counted without enumeration are charged whole.
//
// On exhaustion the solvers degrade instead of dying: FindMisses falls back
// to EstimateMisses with the paper's widened fallback interval, and what
// that cannot finish keeps the counts it reached as a sound bound on its
// misses. Grace re-arms a tripped Meter with a small fresh allowance so
// the cheaper tier can actually finish.
package budget

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cachemodel/internal/cerr"
	"cachemodel/internal/obs"
)

// Budget metrics: Flush already runs at the probe's coarse cadence (every
// flushPoints points / flushScan scan steps), so one extra atomic there
// stays off the per-point path.
var (
	mFlushes = obs.Default.Counter("budget_flushes_total")
	mTrips   = obs.Default.Counter("budget_trips_total")
	mGraces  = obs.Default.Counter("budget_graces_total")
)

// Hook is a fault-injection callback consulted at every checkpoint; n is
// the 1-based global checkpoint index. A non-nil return trips the meter
// with that error. When a Hook is installed, probes flush on every
// checkpoint so firing "at the Nth checkpoint" is deterministic (use
// single-worker solver options for full determinism).
type Hook func(n int64) error

// Budget caps one analysis. The zero value means "unlimited": no deadline,
// no point cap, no scan cap, degradation permitted (and never needed).
type Budget struct {
	// Deadline is the wall-clock allowance (0 = none). A deadline already
	// carried by the context is honoured as well; the earlier one wins.
	Deadline time.Duration
	// MaxPoints caps the number of iteration points classified (0 = none).
	MaxPoints int64
	// MaxScan caps interference-scan work: the total number of accesses
	// visited while solving replacement equations (0 = none).
	MaxScan int64
	// NoFallback, when true, makes exhaustion fail with ErrBudgetExceeded
	// (carrying a partial result) instead of degrading to a cheaper tier.
	NoFallback bool
	// Hook injects faults at checkpoints (testing).
	Hook Hook
}

// IsZero reports whether b imposes no limits and carries no hook.
func (b Budget) IsZero() bool {
	return b.Deadline == 0 && b.MaxPoints == 0 && b.MaxScan == 0 && b.Hook == nil
}

// Spent reports the resources a Meter has accounted so far.
type Spent struct {
	Points      int64         // iteration points classified
	Scan        int64         // interference-scan accesses visited
	Wall        time.Duration // elapsed wall clock
	Checkpoints int64         // checkpoints taken
	Graces      int           // fallback-tier re-arms granted
}

func (s Spent) String() string {
	return fmt.Sprintf("points=%d scan=%d wall=%s checkpoints=%d", s.Points, s.Scan, s.Wall.Round(time.Microsecond), s.Checkpoints)
}

// Meter enforces one Budget across the (possibly parallel) workers of one
// analysis. All methods are safe for concurrent use; workers interact with
// it through per-goroutine Probes.
type Meter struct {
	ctx    context.Context
	budget Budget
	start  time.Time

	deadline    time.Time // current allowance (may be extended by Grace)
	hasDeadline bool
	maxPoints   int64 // current caps; 0 = unlimited
	maxScan     int64

	points atomic.Int64
	scan   atomic.Int64
	checks atomic.Int64

	tripped atomic.Bool
	mu      sync.Mutex
	err     error
	graces  int
}

// NewMeter arms a meter for one analysis run. A nil ctx means Background.
func NewMeter(ctx context.Context, b Budget) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Meter{ctx: ctx, budget: b, start: time.Now(),
		maxPoints: b.MaxPoints, maxScan: b.MaxScan}
	if b.Deadline > 0 {
		m.deadline = m.start.Add(b.Deadline)
		m.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!m.hasDeadline || d.Before(m.deadline)) {
		m.deadline = d
		m.hasDeadline = true
	}
	return m
}

// NoFallback reports whether degradation is disabled for this run.
func (m *Meter) NoFallback() bool { return m.budget.NoFallback }

// Spent returns the resources accounted so far (flushed probes only).
func (m *Meter) Spent() Spent {
	return Spent{
		Points:      m.points.Load(),
		Scan:        m.scan.Load(),
		Wall:        time.Since(m.start),
		Checkpoints: m.checks.Load(),
		Graces:      m.graces,
	}
}

// Err returns the error the meter tripped with, or nil.
func (m *Meter) Err() error {
	if !m.tripped.Load() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Trip trips the meter with an external failure, as if a checkpoint had
// observed it: the first error wins and every subsequent probe flush
// returns it, so all workers of the analysis stand down. The solver uses
// it to convert a panic in a pool goroutine into an ordinary tripped-meter
// failure (per-job panic isolation in the serving layer).
func (m *Meter) Trip(err error) error { return m.trip(err) }

// trip records the first tripping error and returns the winning one.
func (m *Meter) trip(err error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
		m.tripped.Store(true)
		mTrips.Inc()
	}
	return m.err
}

// Grace re-arms a budget-tripped meter with a fresh allowance for the next
// (cheaper) degradation tier: a quarter of the original budget, with floors
// so a fast fallback can always finish. It must not be used after context
// cancellation — cancellation means stop, not degrade.
func (m *Meter) Grace() {
	m.mu.Lock()
	m.err = nil
	m.graces++
	m.mu.Unlock()
	mGraces.Inc()
	if m.hasDeadline {
		g := m.budget.Deadline / 4
		if g < 5*time.Millisecond {
			g = 5 * time.Millisecond
		}
		m.deadline = time.Now().Add(g)
	}
	if m.maxPoints > 0 {
		g := m.budget.MaxPoints / 4
		if g < 256 {
			g = 256
		}
		m.maxPoints = m.points.Load() + g
	}
	if m.maxScan > 0 {
		g := m.budget.MaxScan / 4
		if g < 4096 {
			g = 4096
		}
		m.maxScan = m.scan.Load() + g
	}
	m.tripped.Store(false)
}

// Probe returns a fresh per-goroutine probe, or nil when no limit,
// context or hook can ever trip the meter: solvers then skip checkpoint
// bookkeeping entirely. A probe's first Check consults the meter, so a run
// started under a cancelled context, a past deadline or a spent cap stops
// at its first point.
func (m *Meter) Probe() *Probe {
	if !m.hasDeadline && m.maxPoints == 0 && m.maxScan == 0 &&
		m.budget.Hook == nil && m.ctx.Done() == nil {
		return nil
	}
	p := &Probe{m: m, pending: flushPoints - 1}
	p.refresh()
	return p
}

// Flush cadence: a probe consults the shared meter after this many points
// or this much scan work, whichever comes first. Cancellation latency is
// therefore bounded by ~flushPoints cheap classifications or one expensive
// one. Near a point or scan cap a probe flushes sooner (see Probe).
const (
	flushPoints = 64
	flushScan   = 1 << 14
)

// Probe is the per-goroutine checkpoint counter. It batches updates so the
// per-point cost is two additions and a few compares. It caches its
// headroom under each cap, refreshed at creation and at every flush, and
// flushes as soon as its local counts pass it: with one worker a cap trips
// at the first check past it, whatever the flush cadence and the charges.
type Probe struct {
	m       *Meter
	points  int64
	scan    int64
	pending int
	// Local counts that force a flush: one past each cap's headroom.
	pointsAt, scanAt int64
}

// refresh recomputes the flush thresholds from the meter's totals.
func (p *Probe) refresh() {
	m := p.m
	p.pointsAt, p.scanAt = math.MaxInt64, flushScan
	if m.maxPoints > 0 {
		p.pointsAt = max(m.maxPoints-m.points.Load()+1, 1)
	}
	if m.maxScan > 0 {
		p.scanAt = min(p.scanAt, max(m.maxScan-m.scan.Load()+1, 1))
	}
}

// Check records one classified iteration point and its interference-scan
// work, and consults the meter at the flush cadence. It returns nil while
// the analysis may continue, ErrCanceled after context cancellation, and
// ErrBudgetExceeded (wrapped with the exhausted dimension) on exhaustion.
func (p *Probe) Check(points, scan int64) error {
	p.points += points
	p.scan += scan
	p.pending++
	if p.pending >= flushPoints || p.points >= p.pointsAt || p.scan >= p.scanAt || p.m.budget.Hook != nil {
		return p.Flush()
	}
	return nil
}

// Charge accounts a region counted without enumeration: it flushes, then
// reserves the region's whole point and scan volume at once. It refuses —
// the caller then enumerates the region, so a cap trips where enumeration
// puts it — when the reservation would pass a cap, when a Hook is
// installed (hooked runs see every checkpoint), or after a trip. A nil
// probe accepts every charge.
func (p *Probe) Charge(points, scan int64) bool {
	if p == nil {
		return true
	}
	m := p.m
	if m.budget.Hook != nil || p.Flush() != nil {
		return false
	}
	if !reserve(&m.points, points, m.maxPoints) {
		return false
	}
	if !reserve(&m.scan, scan, m.maxScan) {
		m.points.Add(-points)
		return false
	}
	p.refresh()
	return true
}

// reserve adds n to c unless that would pass a nonzero cap.
func reserve(c *atomic.Int64, n, cap int64) bool {
	for {
		cur := c.Load()
		if cap > 0 && cur+n > cap {
			return false
		}
		if c.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Flush publishes the probe's local counts and evaluates every limit.
func (p *Probe) Flush() error {
	m := p.m
	pts := m.points.Add(p.points)
	sc := m.scan.Add(p.scan)
	p.points, p.scan, p.pending = 0, 0, 0
	n := m.checks.Add(1)
	mFlushes.Inc()
	defer p.refresh()
	if m.budget.Hook != nil {
		if err := m.budget.Hook(n); err != nil {
			return m.trip(err)
		}
	}
	if m.tripped.Load() {
		return m.Err()
	}
	if err := m.ctx.Err(); err != nil {
		return m.trip(fmt.Errorf("%w: %v", cerr.ErrCanceled, err))
	}
	if m.maxPoints > 0 && pts > m.maxPoints {
		return m.trip(fmt.Errorf("%w: %d iteration points (cap %d)", cerr.ErrBudgetExceeded, pts, m.maxPoints))
	}
	if m.maxScan > 0 && sc > m.maxScan {
		return m.trip(fmt.Errorf("%w: %d interference-scan steps (cap %d)", cerr.ErrBudgetExceeded, sc, m.maxScan))
	}
	if m.hasDeadline && time.Now().After(m.deadline) {
		return m.trip(fmt.Errorf("%w: deadline (%s elapsed)", cerr.ErrBudgetExceeded, time.Since(m.start).Round(time.Microsecond)))
	}
	return nil
}

// Drain publishes any buffered counts without evaluating limits; call it
// when a worker finishes so Spent() is complete. A nil probe has nothing
// to drain.
func (p *Probe) Drain() {
	if p != nil && (p.points != 0 || p.scan != 0) {
		p.m.points.Add(p.points)
		p.m.scan.Add(p.scan)
		p.points, p.scan, p.pending = 0, 0, 0
	}
}
