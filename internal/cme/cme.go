// Package cme implements the cache miss equations of §4: cold (compulsory)
// equations and replacement equations over reuse vectors, together with the
// two solvers of Fig. 6 — FindMisses, which classifies every iteration
// point of every reference, and EstimateMisses, which classifies a
// statistically chosen sample.
//
// Classification of one access follows §4.2 exactly: the reference's reuse
// vectors are tried in increasing lexicographic order; a point that solves
// the cold equation along the current vector stays indeterminate and falls
// through to the next vector; otherwise the replacement equation along the
// vector decides hit or miss (k distinct set contentions evict the line in
// a k-way cache). Points indeterminate after all vectors are cold misses.
//
// Both solvers are interruptible and budget-aware: the Ctx variants thread
// a context.Context and a budget.Budget through cooperative checkpoints at
// iteration-point granularity. On budget exhaustion the analysis degrades
// instead of dying, down the ladder
//
//	FindMisses (exact) → EstimateMisses (widened interval) → bounded
//
// recording per-reference provenance (Tier) and overall Degraded /
// BudgetSpent fields in the Report so callers can see exactly what
// produced the numbers. The bounded rung runs no second model: it keeps
// the pointwise counts the interrupted pass reached, which prove the
// reference's misses lie in [classified misses, classified misses +
// unclassified points] (RefReport.Bounds). Context cancellation never
// degrades: the partial report is returned together with ErrCanceled.
package cme

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

// Outcome classifies one access.
type Outcome int

// Access outcomes.
const (
	Hit Outcome = iota
	ColdMiss
	ReplacementMiss
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case ColdMiss:
		return "cold"
	case ReplacementMiss:
		return "replacement"
	}
	return "?"
}

// Tier identifies which rung of the degradation ladder produced a result.
type Tier int

// Degradation ladder, cheapest last.
const (
	// TierExact: every iteration point classified (FindMisses).
	TierExact Tier = iota
	// TierSampled: a statistically chosen sample classified
	// (EstimateMisses).
	TierSampled
	// TierBounded: the pointwise counts an interrupted pass reached,
	// read as the sound bound RefReport.Bounds; the miss ratio reports
	// its upper end.
	TierBounded
)

func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierSampled:
		return "sampled"
	case TierBounded:
		return "bounded"
	}
	return "?"
}

// Options tunes the analysis.
type Options struct {
	// Reuse configures reuse-vector generation.
	Reuse reuse.Options
	// PaperLRU, when true, uses the paper's replacement equations
	// verbatim: k distinct set contentions anywhere in the reuse interval
	// evict the line. The default (false) additionally resets the
	// contention count whenever the reused line itself is touched inside
	// the interval, which models LRU exactly and lets FindMisses match
	// the simulator bit-for-bit when reuse information is complete.
	PaperLRU bool
	// Seed seeds the sampling RNG (EstimateMisses); 0 means a fixed
	// default so runs are reproducible.
	Seed int64
	// Vectors, when non-nil, supplies precomputed reuse vectors instead of
	// regenerating them. Reuse vectors depend only on the line geometry
	// (not associativity), so analyses of the same program at several
	// associativities can share one generation pass (see reuse.Generate).
	// Only New honours them, for its configuration's line size.
	Vectors map[*ir.NRef][]*reuse.Vector
	// Workers sets the number of goroutines classifying references in
	// FindMisses / EstimateMisses. 0 uses GOMAXPROCS; 1 runs sequentially.
	// Results are bit-identical at any worker count: FindMisses partitions
	// iteration spaces into tiles whose partial counts merge by summation,
	// and sampling RNGs are seeded per reference.
	Workers int
	// NoMemo disables the interference-walk verdict memo, forcing every
	// replacement walk to run in full (the behaviour of the original
	// sequential solver). Budget accounting is identical either way — memo
	// hits replay the stored scan cost — so this knob exists for
	// benchmarking the memo and for equivalence tests.
	NoMemo bool
	// NoSymbolic disables the symbolic region fast path, forcing the exact
	// solvers to classify every iteration point individually, and the
	// closed-form tiers (closed.go): SolveBatch skips the set-count tier
	// and a ScalingSolver answers every size by fall-through. Reports are
	// bit-identical either way — the fast paths reproduce exactly the
	// verdicts enumeration would have produced, and under a budget they
	// charge what they copy, so a cap trips at the point enumeration
	// trips it — so this one opt-out exists for benchmarking the fast
	// paths and for equivalence tests.
	NoSymbolic bool
	// Adaptive switches EstimateMisses to sequential sampling: points are
	// drawn in chunks from the same per-reference RNG stream and a
	// reference's sampling stops as soon as the Wilson score interval of
	// the observed miss ratio meets the plan's half-width, instead of
	// always classifying the a-priori worst-case sample size (which
	// remains the cap). Runs are deterministic under a fixed Seed; the
	// classified sample is a prefix of the non-adaptive sample whenever
	// the space's rejection sampler succeeds chunk by chunk.
	Adaptive bool
	// ProfileLabels wraps solver work items in pprof.Do with "ref" and
	// "tile" labels (plus "candidate" in SolveBatch) so CPU profiles
	// attribute time to sweep candidates. Off by default: labels cost a
	// goroutine-label swap per work item.
	ProfileLabels bool
}

// Analyzer is the analysis of one program under one cache configuration:
// a geometry-dependent view of a Prepared program. An Analyzer stays
// valid and reusable after an interrupted or degraded run: every solver
// call builds fresh per-run reports and never mutates the shared state.
// Its solvers are SolveBatch's drivers run on a batch of one.
type Analyzer struct {
	p   *Prepared
	np  *ir.NProgram
	cfg cache.Config
	opt Options
	ls  *lineShared // reuse vectors, memo table and symbolic info of cfg.LineBytes

	// Set-index strength reduction for the classifier.
	numSets int64
	setMask int64 // numSets-1 when numSets is a power of two, else -1

	// defc and detc serve the one-off public Classify and ClassifyDetail
	// APIs; solver passes build one classifier per worker instead.
	clsMu sync.Mutex
	defc  *fusedClassifier
	detc  *fusedClassifier
}

// New prepares an analyzer: it generates reuse vectors for every reference
// (or adopts Options.Vectors) and builds the RIS of every statement.
// Arrays must be laid out (internal/layout) before analysis.
func New(np *ir.NProgram, cfg cache.Config, opt Options) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := Prepare(np, opt)
	if err != nil {
		return nil, err
	}
	if opt.Vectors != nil {
		p.addLine(cfg.LineBytes, opt.Vectors)
	}
	return p.Analyzer(cfg)
}

// Vectors exposes the reuse vectors of a reference (for reporting).
func (a *Analyzer) Vectors(r *ir.NRef) []*reuse.Vector { return a.ls.vecs[r] }

// Space exposes the RIS of a statement.
func (a *Analyzer) Space(s *ir.NStmt) *poly.Space { return a.p.spaces[s] }

// newClassifier returns a one-candidate classifier for the analyzer,
// walking intervals with w. An attributing one records culprits and skips
// the verdict memo, which replays verdicts but not culprits.
func (a *Analyzer) newClassifier(w *trace.Walker, attribute bool) *fusedClassifier {
	g := &fuseGroup{lineBytes: a.cfg.LineBytes, ls: a.ls, cands: []*batchCand{{a: a}}}
	fc := newFusedClassifier(g, w, a.p)
	if attribute {
		st := fc.states[0]
		st.memo = nil
		st.culprits = make([]*ir.NRef, 0, a.cfg.Assoc)
	}
	return fc
}

// Classify decides the outcome of reference r's access at iteration idx by
// solving the cold and replacement equations along r's reuse vectors. It
// serves one-off queries through a shared, mutex-guarded classifier.
func (a *Analyzer) Classify(r *ir.NRef, idx []int64) Outcome {
	a.clsMu.Lock()
	defer a.clsMu.Unlock()
	if a.defc == nil {
		a.defc = a.newClassifier(trace.NewWalker(a.np), false)
	}
	o, _ := a.defc.classify(r, idx)
	return o
}

// ClassifyDetail is Classify plus attribution: for a replacement miss it
// reports the references whose accesses supplied the k distinct contending
// lines, in walk order (the paper's follow-up work [10] uses exactly this
// information for CME-driven diagnosis); for a hit it reports the producer
// whose line was reused, non-uniform producers included. Its walk is
// Classify's: exact LRU scans backwards and stops at the line's most
// recent fetch, while the paper's equations scan the whole interval
// forwards.
func (a *Analyzer) ClassifyDetail(r *ir.NRef, idx []int64) (Outcome, []*ir.NRef) {
	a.clsMu.Lock()
	defer a.clsMu.Unlock()
	if a.detc == nil {
		a.detc = a.newClassifier(trace.NewWalker(a.np), true)
	}
	o, _ := a.detc.classify(r, idx)
	return o, append([]*ir.NRef(nil), a.detc.states[0].culprits...)
}

// RefReport is the per-reference analysis result.
type RefReport struct {
	Ref      *ir.NRef
	Volume   int64 // |RIS_R|
	Analyzed int64 // points classified (== Volume unless sampled)
	Sampled  bool
	Hits     int64
	Cold     int64
	Repl     int64
	// Tier records which rung of the degradation ladder produced this
	// reference's numbers.
	Tier Tier
	// Complete reports that the reference's analysis ran to completion at
	// its Tier; false means the run was interrupted mid-reference and the
	// counts cover only a prefix (or sample prefix) of the RIS. The
	// degradation ladder completes every reference it settles: a
	// TierBounded reference's counts cover a prefix, and a TierSampled one
	// may stop short of its planned sample size.
	Complete bool
	// ClosedForm reports that the counts came from closed-form
	// evaluation rather than from enumerating (or sampling) this
	// reference's iteration space: either the scaling tier's per-residue
	// polynomials in the problem size, or the set-count tier's copy of
	// its line size's anchor or its pure-cold count (Report.Scaling and
	// Report.Geom say which).
	ClosedForm bool
}

// Misses returns cold + replacement misses among analysed points.
func (r *RefReport) Misses() int64 { return r.Cold + r.Repl }

// MissRatio returns the reference's estimated miss ratio in [0, 1]. A
// TierBounded reference reports the upper end of its Bounds, so a
// degraded answer over-approximates, as the exact solver does.
func (r *RefReport) MissRatio() float64 {
	if r.Tier == TierBounded {
		if r.Volume == 0 {
			return 0
		}
		_, hi := r.Bounds()
		return float64(hi) / float64(r.Volume)
	}
	if r.Analyzed == 0 {
		return 0
	}
	return float64(r.Misses()) / float64(r.Analyzed)
}

// Bounds returns the range of the reference's miss count that its
// pointwise classifications prove: lo counts the misses among the
// classified points and hi adds every point left unclassified, so a
// complete exact reference has lo == hi. A sampled reference's points are
// drawn with replacement and prove nothing about the rest of its RIS, so
// its bounds are [0, Volume].
func (r *RefReport) Bounds() (lo, hi int64) {
	if r.Sampled {
		return 0, r.Volume
	}
	return r.Misses(), r.Misses() + r.Volume - r.Analyzed
}

// HalfWidth returns the realised confidence half-width of the reference's
// miss ratio under the given plan (0 for a full census).
func (r *RefReport) HalfWidth(plan sampling.Plan) float64 {
	if !r.Sampled {
		return 0
	}
	return plan.HalfWidth(r.MissRatio(), int(r.Analyzed), r.Volume)
}

// Report aggregates the analysis of a whole program.
type Report struct {
	Config  cache.Config
	Refs    []*RefReport
	Elapsed time.Duration
	Sampled bool

	// Provenance: which tiers produced the numbers and what they cost.

	// Tier is the cheapest (least exact) tier used by any reference, i.e.
	// the weakest guarantee in the report.
	Tier Tier
	// Degraded reports that at least one reference was produced by a
	// cheaper tier than requested because the budget ran out.
	Degraded bool
	// BudgetSpent records the resources consumed by the run.
	BudgetSpent budget.Spent
	// Scaling carries the problem-size closed-form provenance (AxisSize)
	// when the report came from a ScalingSolver (nil otherwise).
	Scaling *ClosedInfo
	// Geom carries the set-count closed-form provenance (AxisSets) when
	// SolveBatch planned this candidate's line size (nil when the tier
	// never considered it).
	Geom *ClosedInfo
}

// TotalAccesses returns Σ_R |RIS_R|, the program's total access count.
func (rep *Report) TotalAccesses() int64 {
	var t int64
	for _, r := range rep.Refs {
		t += r.Volume
	}
	return t
}

// EstimatedMisses returns Σ_R |RIS_R|·ratio_R.
func (rep *Report) EstimatedMisses() float64 {
	var m float64
	for _, r := range rep.Refs {
		m += float64(r.Volume) * r.MissRatio()
	}
	return m
}

// MissRatio returns the loop-nest miss ratio of Fig. 6 in percent:
// Σ_R |RIS_R|·ratio_R / Σ_R |RIS_R|.
func (rep *Report) MissRatio() float64 {
	t := rep.TotalAccesses()
	if t == 0 {
		return 0
	}
	return 100 * rep.EstimatedMisses() / float64(t)
}

// MissRatioBound returns the confidence half-width of the aggregate miss
// ratio in percentage points under the plan: the access-weighted
// combination of the per-reference half-widths (conservative: per-ref
// errors are treated as perfectly correlated, so the true half-width is
// smaller).
func (rep *Report) MissRatioBound(plan sampling.Plan) float64 {
	t := rep.TotalAccesses()
	if t == 0 {
		return 0
	}
	var b float64
	for _, r := range rep.Refs {
		b += float64(r.Volume) * r.HalfWidth(plan)
	}
	return 100 * b / float64(t)
}

// ExactMisses returns the integral miss count when every point was
// analysed (FindMisses); it is meaningless for sampled reports.
func (rep *Report) ExactMisses() int64 {
	var m int64
	for _, r := range rep.Refs {
		m += r.Misses()
	}
	return m
}

// Coverage returns the fraction of the program's accesses that were
// classified pointwise (1.0 for a complete FindMisses; lower when the run
// was sampled, interrupted, or degraded to the bounded tier).
func (rep *Report) Coverage() float64 {
	t := rep.TotalAccesses()
	if t == 0 {
		return 0
	}
	var an int64
	for _, r := range rep.Refs {
		an += r.Analyzed
	}
	return float64(an) / float64(t)
}

// CompleteRefs returns how many references ran to completion at their tier.
func (rep *Report) CompleteRefs() int {
	n := 0
	for _, r := range rep.Refs {
		if r.Complete {
			n++
		}
	}
	return n
}

// settle stamps aggregate provenance once the per-ref reports settled:
// the weakest tier, whether any reference was sampled, and the budget
// spent.
func (rep *Report) settle(m *budget.Meter) {
	rep.Tier = TierExact
	for _, r := range rep.Refs {
		if r.Tier > rep.Tier {
			rep.Tier = r.Tier
		}
		if r.Sampled {
			rep.Sampled = true
		}
	}
	rep.BudgetSpent = m.Spent()
}

// FindMisses analyses every iteration point of every reference (the exact
// algorithm of Fig. 6, left).
func (a *Analyzer) FindMisses() *Report {
	rep, _ := a.FindMissesCtx(context.Background(), budget.Budget{})
	return rep
}

// FindMissesCtx is FindMisses under a context and a budget. With a zero
// budget and a background context it is bit-identical to FindMisses. On
// cancellation it returns the coherent partial report together with
// ErrCanceled. On budget exhaustion it degrades: references the exact pass
// did not finish are re-analysed by EstimateMisses under the paper's
// widened fallback interval, and if even that exhausts its grace
// allowance, keep their exact prefix as a bounded answer — unless the
// budget sets NoFallback, in which case the partial report is returned
// with ErrBudgetExceeded.
func (a *Analyzer) FindMissesCtx(ctx context.Context, b budget.Budget) (*Report, error) {
	start := time.Now()
	col := obs.FromContext(ctx)
	ctx, span := obs.StartSpan(ctx, "solve.exact")
	defer span.End()
	workers := a.workers()
	span.SetAttr("workers", workers)
	span.SetAttr("refs", len(a.np.Refs))
	m := budget.NewMeter(ctx, b)
	cs := a.solo(false)
	a.p.solveExactFused(m, col, "solve.exact", []*batchCand{cs}, workers)
	return a.finish(ctx, m, cs, sampling.DefaultFallback, start)
}

// solo opens the analyzer as the single candidate of a batch solve.
func (a *Analyzer) solo(sampled bool) *batchCand { return newBatchCand(a, 0, "", sampled) }

// finish walks a solo solve's degradation ladder — SolveBatch's, on a
// batch of one — and stamps the report's wall time. fallbackPlan is the
// sampling plan of the TierSampled rung.
func (a *Analyzer) finish(ctx context.Context, m *budget.Meter, cs *batchCand, fallbackPlan sampling.Plan, start time.Time) (*Report, error) {
	err := a.p.degradeBatch(ctx, m, []*batchCand{cs}, fallbackPlan)
	cs.rep.Elapsed = time.Since(start)
	return cs.rep, err
}

// workers resolves Options.Workers to a pool size.
func (a *Analyzer) workers() int {
	if a.opt.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(a.opt.Workers, 1)
}

// guardWorker is deferred at the top of every solver pool goroutine: it
// converts a panic into a tripped meter instead of a process crash. The
// other workers observe the trip at their next checkpoint and stand down,
// the merge leaves the crashed item incomplete, and the caller gets the
// classified panic error — which the degradation ladder refuses to paper
// over (a crashed solve's partial counts carry no guarantee). This is the
// foundation of the serving layer's per-job panic isolation.
func guardWorker(m *budget.Meter) {
	if r := recover(); r != nil {
		m.Trip(cerr.FromPanic(r))
	}
}

// tileFactor is the work-queue overdecomposition ratio of the tiled exact
// solver: the iteration spaces are split into about tileFactor tiles per
// worker, so one dominant nest still spreads across all workers while the
// per-tile scheduling overhead stays negligible.
const tileFactor = 4

// tileLabel renders a tile as a short profile label value.
func tileLabel(t poly.Tile) string {
	if t.Full() {
		return "full"
	}
	return "d" + strconv.Itoa(t.Dim) + ":" + strconv.FormatInt(t.Lo, 10) + "-" + strconv.FormatInt(t.Hi, 10)
}

// EstimateMisses analyses a statistically chosen sample of each reference's
// RIS (the algorithm of Fig. 6, right): a reference whose RIS is too small
// to achieve the requested (c, w) falls back to the paper's default
// (90%, 0.15); a RIS too small even for that is analysed exhaustively.
func (a *Analyzer) EstimateMisses(plan sampling.Plan) (*Report, error) {
	return a.EstimateMissesCtx(context.Background(), budget.Budget{}, plan)
}

// EstimateMissesCtx is EstimateMisses under a context and a budget. With a
// zero budget it is bit-identical to EstimateMisses. On cancellation it
// returns the partial report with ErrCanceled; on budget exhaustion an
// unfinished reference keeps the sample it reached, or is bounded when it
// has none (or fails with ErrBudgetExceeded under NoFallback).
func (a *Analyzer) EstimateMissesCtx(ctx context.Context, b budget.Budget, plan sampling.Plan) (*Report, error) {
	return a.estimate(ctx, b, plan, nil)
}

// Attribution receives each classified access with its culprits, as
// ClassifyDetail reports them; culprits is valid only during the call.
// Calls for one reference come from one goroutine in sample order;
// different references may be attributed concurrently.
type Attribution func(r *ir.NRef, o Outcome, culprits []*ir.NRef)

// AttributeMissesCtx is EstimateMissesCtx's sampled solve, passing every
// classified access to sink, so its report equals EstimateMissesCtx's.
// Attribution needs pointwise classification, so it never degrades: an
// interrupted run returns the partial report with ErrCanceled or
// ErrBudgetExceeded, as under Budget.NoFallback.
func (a *Analyzer) AttributeMissesCtx(ctx context.Context, b budget.Budget, plan sampling.Plan, sink Attribution) (*Report, error) {
	b.NoFallback = true
	return a.estimate(ctx, b, plan, sink)
}

// estimate is the sampled solve of EstimateMissesCtx, attributed to sink
// when it is non-nil.
func (a *Analyzer) estimate(ctx context.Context, b budget.Budget, plan sampling.Plan, sink Attribution) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	col := obs.FromContext(ctx)
	ctx, span := obs.StartSpan(ctx, "solve.sampled")
	defer span.End()
	span.SetAttr("refs", len(a.np.Refs))
	m := budget.NewMeter(ctx, b)
	cs := a.solo(true)
	a.p.solveSampled(m, col, "solve.sampled", []*batchCand{cs}, plan, a.workers(), sink)
	// The exact rung is already behind us: only an interrupted
	// census-sized reference (analysed exhaustively) earns a resample;
	// otherwise each unfinished reference keeps the sample it reached, or
	// is bounded.
	return a.finish(ctx, m, cs, plan, start)
}

// planFor selects the sampling plan of one reference of the given volume:
// the requested plan, else the paper's default fallback, else (sampled
// false) a full census. n is the number of points the pass classifies at
// most.
func planFor(plan sampling.Plan, vol int64) (splan sampling.Plan, n int64, sampled bool) {
	switch {
	case plan.Achievable(vol):
		return plan, int64(plan.SizeFor(vol)), true
	case sampling.DefaultFallback.Achievable(vol):
		return sampling.DefaultFallback, int64(sampling.DefaultFallback.SizeFor(vol)), true
	}
	return plan, vol, false
}

// sampleWorker returns the per-reference sampling pass of Fig. 6 (right),
// classifying with a one-candidate classifier of the analyzer. A non-nil
// sink receives every classified access; its classifier must attribute.
func (a *Analyzer) sampleWorker(plan sampling.Plan, sink Attribution) func(*fusedClassifier, *ir.NRef, *RefReport, *budget.Probe) error {
	seed := a.opt.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF
	}
	return func(fc *fusedClassifier, r *ir.NRef, rr *RefReport, p *budget.Probe) error {
		// Per-reference RNG: deterministic regardless of worker count.
		rng := rand.New(rand.NewSource(seed ^ int64(r.Seq)*0x9E3779B9))
		sp := a.p.spaces[r.Stmt]
		vol := rr.Volume
		splan, capN, sampled := planFor(plan, vol)
		rr.Sampled, rr.Tier = sampled, TierSampled
		switch {
		case !sampled:
			// Analyse all points: a full census of a small RIS.
			rr.Tier = TierExact
		case splan != plan:
			sampling.FallbackPlans.Inc()
		}
		var perr error
		classify := func(idx []int64) bool {
			out, scanned := fc.classify(r, idx)
			if sink != nil {
				sink(r, out, fc.states[0].culprits)
			}
			rr.Analyzed++
			switch out {
			case Hit:
				rr.Hits++
			case ColdMiss:
				rr.Cold++
			case ReplacementMiss:
				rr.Repl++
			}
			if p != nil {
				if perr = p.Check(1, scanned); perr != nil {
					return false
				}
			}
			return true
		}
		switch {
		case rr.Sampled && a.opt.Adaptive:
			sampleAdaptive(sp, rng, splan, vol, int(capN), rr, classify)
		case rr.Sampled:
			for _, pt := range sp.Sample(rng, int(capN)) {
				if !classify(pt) {
					break
				}
			}
		default:
			sp.Enumerate(classify)
		}
		if perr == nil {
			rr.Complete = true
		}
		mPointsClassed.Add(rr.Analyzed)
		if rr.Sampled {
			sampling.Draws.Add(rr.Analyzed)
		}
		return perr
	}
}

// Adaptive sampling tuning: points are drawn adaptiveChunk at a time (so
// the RNG stream matches the non-adaptive sampler chunk by chunk while the
// rejection phase succeeds) and the stopping rule is consulted only from
// adaptiveMin classified points on. The real floor is the Wilson interval
// itself: at an all-hit or all-miss prefix it still needs ≈ z²(1−W)/(2W)
// points before it can meet ±W, so adaptiveMin merely guards the rule's
// small-n corner.
const (
	adaptiveChunk = 32
	adaptiveMin   = 8
)

// sampleAdaptive is the sequential-sampling inner loop of EstimateMisses
// under Options.Adaptive: draw a chunk, classify point by point, and stop
// as soon as the Wilson score interval of the running miss ratio (read
// back from rr, which classify updates) fits the plan's half-width. capN,
// the a-priori sample size, remains the hard cap, so adaptive never draws
// more than the non-adaptive sampler. The classify callback returns false
// to abort (budget exhausted).
func sampleAdaptive(sp *poly.Space, rng *rand.Rand, plan sampling.Plan, vol int64, capN int, rr *RefReport, classify func([]int64) bool) {
	drawn := 0
	for drawn < capN {
		chunk := adaptiveChunk
		if capN-drawn < chunk {
			chunk = capN - drawn
		}
		pts := sp.Sample(rng, chunk)
		drawn += chunk
		for _, pt := range pts {
			if !classify(pt) {
				return
			}
			if rr.Analyzed >= adaptiveMin &&
				plan.WilsonHalfWidth(rr.MissRatio(), int(rr.Analyzed), vol) <= plan.W {
				sampling.EarlyStops.Inc()
				return
			}
		}
		if len(pts) == 0 {
			return // empty space; cannot make progress
		}
	}
}

// resampleIncomplete re-analyses every incomplete reference with the
// sampling solver under the (typically widened) plan, discarding the
// biased partial counts of the interrupted exact prefix. A resample the
// budget cuts short is dropped and the reference's earlier counts are
// restored: it and the references after it keep what the interrupted
// pass classified for the ladder's last rung.
func (a *Analyzer) resampleIncomplete(m *budget.Meter, rep *Report, plan sampling.Plan) error {
	work := a.sampleWorker(plan, nil)
	fc := a.newClassifier(trace.NewWalker(a.np), false)
	defer fc.release()
	p := m.Probe()
	defer p.Drain()
	for _, rr := range rep.Refs {
		if rr.Complete {
			continue
		}
		prefix := *rr
		rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = 0, 0, 0, 0
		rr.Sampled = false
		if err := work(fc, rr.Ref, rr, p); err != nil {
			*rr = prefix
			return err
		}
		mDegradeSampled.Inc()
	}
	return nil
}
