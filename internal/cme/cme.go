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
//	FindMisses (exact) → EstimateMisses (widened interval) → probabilistic
//
// recording per-reference provenance (Tier) and overall Degraded /
// BudgetSpent fields in the Report so callers can see exactly what
// produced the numbers. Context cancellation never degrades: the partial
// report is returned together with ErrCanceled.
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
	"cachemodel/internal/prob"
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
	// TierProbabilistic: the Fraguela-style closed-form baseline; no
	// pointwise classification at all.
	TierProbabilistic
)

func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierSampled:
		return "sampled"
	case TierProbabilistic:
		return "probabilistic"
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
	// verdicts enumeration would have produced, and budgeted or
	// cancellable solves always enumerate — so this one opt-out exists
	// for benchmarking the fast paths and for equivalence tests.
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
	numSets  int64
	wayBytes int64
	setMask  int64 // numSets-1 when numSets is a power of two, else -1

	// defc serves the one-off public Classify API; solver passes build one
	// classifier per worker instead.
	clsMu sync.Mutex
	defc  *fusedClassifier
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
		p.byLine[cfg.LineBytes] = p.newLineShared(cfg.LineBytes, opt.Vectors)
	}
	return p.Analyzer(cfg)
}

// Vectors exposes the reuse vectors of a reference (for reporting).
func (a *Analyzer) Vectors(r *ir.NRef) []*reuse.Vector { return a.ls.vecs[r] }

// Space exposes the RIS of a statement.
func (a *Analyzer) Space(s *ir.NStmt) *poly.Space { return a.p.spaces[s] }

// newClassifier returns a one-candidate classifier for the analyzer,
// walking intervals with w.
func (a *Analyzer) newClassifier(w *trace.Walker) *fusedClassifier {
	g := &fuseGroup{lineBytes: a.cfg.LineBytes, ls: a.ls, cands: []*batchCand{{a: a}}}
	return newFusedClassifier(g, w, a.p)
}

// Classify decides the outcome of reference r's access at iteration idx by
// solving the cold and replacement equations along r's reuse vectors. It
// serves one-off queries through a shared, mutex-guarded classifier.
func (a *Analyzer) Classify(r *ir.NRef, idx []int64) Outcome {
	a.clsMu.Lock()
	defer a.clsMu.Unlock()
	if a.defc == nil {
		a.defc = a.newClassifier(trace.NewWalker(a.np))
	}
	o, _ := a.defc.classify(r, idx)
	return o
}

// ClassifyDetail is Classify plus attribution: for a replacement miss it
// reports the references whose accesses supplied the k distinct contending
// lines (the paper's follow-up work [10] uses exactly this information for
// CME-driven diagnosis); for a hit it reports the producer whose line was
// reused. Its walk follows Options.PaperLRU exactly as Classify's does:
// exact LRU scans backwards and stops at the line's most recent fetch,
// while the paper's equations scan the whole interval forwards.
func (a *Analyzer) ClassifyDetail(r *ir.NRef, idx []int64) (Outcome, []*ir.NRef) {
	line := a.cfg.MemLine(r.AddressAt(idx))
	set := a.cfg.SetOfLine(line)
	k := a.cfg.Assoc
	consumer := trace.Time{Label: r.Stmt.Label, Idx: idx, Seq: r.Seq}
	visit := trace.VisitBetweenReverse
	if a.opt.PaperLRU {
		visit = trace.VisitBetween
	}

	var distinct []int64
	var culprits []*ir.NRef
	for _, v := range a.ls.vecs[r] {
		plabel, pidx := v.ProducerPoint(idx)
		if !a.p.spaces[v.Producer.Stmt].Contains(pidx) {
			continue
		}
		if a.cfg.MemLine(v.Producer.AddressAt(pidx)) != line {
			continue
		}
		producer := trace.Time{Label: plabel, Idx: pidx, Seq: v.Producer.Seq}
		distinct, culprits = distinct[:0], culprits[:0]
		evicted := false
		visit(a.np, producer, consumer, func(ri *ir.NRef, j []int64) bool {
			al := a.cfg.MemLine(ri.AddressAt(j))
			if al == line {
				return a.opt.PaperLRU // only exact LRU stops at the reuse
			}
			if a.cfg.SetOfLine(al) != set {
				return true
			}
			for _, d := range distinct {
				if d == al {
					return true
				}
			}
			distinct = append(distinct, al)
			culprits = append(culprits, ri)
			if len(distinct) >= k {
				evicted = true
				return false
			}
			return true
		})
		if evicted {
			return ReplacementMiss, append([]*ir.NRef(nil), culprits...)
		}
		return Hit, []*ir.NRef{v.Producer}
	}
	return ColdMiss, nil
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
	// counts cover only a prefix (or sample prefix) of the RIS.
	Complete bool
	// Ratio holds the closed-form miss ratio when Tier is
	// TierProbabilistic (no pointwise counts exist there).
	Ratio float64
	// ClosedForm reports that the counts came from O(1) closed-form
	// evaluation rather than from enumerating (or sampling) this
	// reference's iteration space: either the scaling tier's
	// quasi-polynomials in the problem size, or the geometry-parametric
	// tier's fit in the number of sets (Report.Scaling and Report.Geom
	// say which).
	ClosedForm bool
}

// Misses returns cold + replacement misses among analysed points.
func (r *RefReport) Misses() int64 { return r.Cold + r.Repl }

// MissRatio returns the reference's estimated miss ratio in [0, 1].
func (r *RefReport) MissRatio() float64 {
	if r.Tier == TierProbabilistic {
		return r.Ratio
	}
	if r.Analyzed == 0 {
		return 0
	}
	return float64(r.Misses()) / float64(r.Analyzed)
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
	// SolveBatch planned this candidate into a geometry column (nil when
	// the tier never considered it).
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
// was sampled, interrupted, or degraded to the probabilistic tier).
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
// allowance, by the closed-form probabilistic baseline — unless the budget
// sets NoFallback, in which case the partial report is returned with
// ErrBudgetExceeded.
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
	serr := a.p.solveExactFused(ctx, m, col, "solve.exact", []*batchCand{cs}, workers)
	return a.finish(ctx, m, cs, sampling.DefaultFallback, serr, start)
}

// solo opens the analyzer as the single candidate of a batch solve.
func (a *Analyzer) solo(sampled bool) *batchCand { return newBatchCand(a, 0, "", sampled) }

// finish walks a solo solve's degradation ladder — SolveBatch's, on a
// batch of one — and stamps the report's wall time. fallbackPlan is the
// sampling plan of the TierSampled rung.
func (a *Analyzer) finish(ctx context.Context, m *budget.Meter, cs *batchCand, fallbackPlan sampling.Plan, serr error, start time.Time) (*Report, error) {
	err := a.p.degradeBatch(ctx, m, []*batchCand{cs}, fallbackPlan)
	if err == nil {
		// Cancellation observed by the solver pool on an unlimited meter.
		err = serr
	}
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
// returns the partial report with ErrCanceled; on budget exhaustion it
// degrades unfinished references to the probabilistic baseline (or fails
// with ErrBudgetExceeded under NoFallback).
func (a *Analyzer) EstimateMissesCtx(ctx context.Context, b budget.Budget, plan sampling.Plan) (*Report, error) {
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
	serr := a.p.solveSampled(ctx, m, col, "solve.sampled", []*batchCand{cs}, plan, a.workers())
	// The exact rung is already behind us: only census-sized references
	// (analysed exhaustively) resample; the rest drop to the
	// probabilistic tier.
	return a.finish(ctx, m, cs, plan, serr, start)
}

// plannedFor returns how many points the sampling pass will classify for
// one reference of the given volume under plan (mirroring sampleWorker's
// plan selection).
func plannedFor(plan sampling.Plan, vol int64) int64 {
	switch {
	case plan.Achievable(vol):
		return int64(plan.SizeFor(vol))
	case sampling.DefaultFallback.Achievable(vol):
		return int64(sampling.DefaultFallback.SizeFor(vol))
	default:
		return vol
	}
}

// sampleWorker returns the per-reference sampling pass of Fig. 6 (right),
// classifying with a one-candidate classifier of the analyzer.
func (a *Analyzer) sampleWorker(plan sampling.Plan) func(*fusedClassifier, *ir.NRef, *RefReport, *budget.Probe) error {
	seed := a.opt.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF
	}
	return func(fc *fusedClassifier, r *ir.NRef, rr *RefReport, p *budget.Probe) error {
		// Per-reference RNG: deterministic regardless of worker count.
		rng := rand.New(rand.NewSource(seed ^ int64(r.Seq)*0x9E3779B9))
		sp := a.p.spaces[r.Stmt]
		vol := rr.Volume
		rr.Tier = TierSampled
		splan := plan
		capN := 0
		switch {
		case plan.Achievable(vol):
			rr.Sampled = true
			capN = plan.SizeFor(vol)
		case sampling.DefaultFallback.Achievable(vol):
			rr.Sampled = true
			splan, capN = sampling.DefaultFallback, sampling.DefaultFallback.SizeFor(vol)
			sampling.FallbackPlans.Inc()
		default:
			// Analyse all points: a full census of a small RIS.
			rr.Tier = TierExact
		}
		var perr error
		classify := func(idx []int64) bool {
			out, scanned := fc.classify(r, idx)
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
			sampleAdaptive(sp, rng, splan, vol, capN, rr, classify)
		case rr.Sampled:
			for _, pt := range sp.Sample(rng, capN) {
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
// biased partial counts of the interrupted exact prefix.
func (a *Analyzer) resampleIncomplete(m *budget.Meter, rep *Report, plan sampling.Plan) error {
	work := a.sampleWorker(plan)
	fc := a.newClassifier(trace.NewWalker(a.np))
	defer fc.release()
	p := m.Probe()
	defer p.Drain()
	for _, rr := range rep.Refs {
		if rr.Complete {
			continue
		}
		rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = 0, 0, 0, 0
		rr.Sampled = false
		if err := work(fc, rr.Ref, rr, p); err != nil {
			// Leave this and the remaining refs incomplete; the caller
			// drops them to the probabilistic rung.
			rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = 0, 0, 0, 0
			rr.Sampled = false
			rr.Complete = false
			return err
		}
	}
	return nil
}

// probIncomplete resolves every still-incomplete reference with the
// Fraguela-style probabilistic baseline, reusing the analyzer's reuse
// vectors (same line geometry, so the vectors transfer directly).
func (a *Analyzer) probIncomplete(rep *Report) {
	todo := false
	for _, rr := range rep.Refs {
		if !rr.Complete {
			todo = true
			break
		}
	}
	if !todo {
		return
	}
	est := prob.NewEstimator(a.np, a.cfg, prob.Options{
		Reuse:   a.opt.Reuse,
		Vectors: a.ls.vecs,
		Seed:    a.opt.Seed,
	})
	for _, rr := range rep.Refs {
		if rr.Complete {
			continue
		}
		rr.Tier = TierProbabilistic
		rr.Ratio = est.RefRatio(rr.Ref)
		rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = 0, 0, 0, 0
		rr.Sampled = false
		rr.Complete = true
	}
}
