// Package cachemodel is a from-scratch implementation of the analytical
// whole-program cache behaviour analysis of Vera & Xue, "Let's Study
// Whole-Program Cache Behaviour Analytically" (HPCA 2002 / UNSW-CSE-TR0109).
//
// Given a FORTRAN-like regular program — subroutines, call statements, IF
// statements, arbitrarily nested affine loops — the library predicts its
// data-cache miss ratio on a k-way set-associative LRU cache without
// simulating it, by:
//
//  1. abstractly inlining all analysable calls (§3.6),
//  2. normalising the loop structure so every statement sits in an
//     n-dimensional nest (§3.1),
//  3. deriving temporal and spatial reuse vectors across multiple nests
//     (§3.4–3.5, the paper's central contribution),
//  4. solving cold and replacement miss equations per access (§4), either
//     exhaustively (FindMisses) or over a statistically chosen sample
//     (EstimateMisses).
//
// An exact LRU cache simulator (the paper's validation baseline) and the
// probabilistic estimator of Fraguela et al. (the Table 7 baseline) are
// included.
//
// # Quick start
//
//	b := cachemodel.NewSub("MAIN")
//	A := b.Real8("A", 1000)
//	b.Do("I", cachemodel.Con(2), cachemodel.Con(999)).
//	    Assign("S1", cachemodel.R(A, cachemodel.Var("I")),
//	        cachemodel.R(A, cachemodel.Var("I").PlusConst(-1))).
//	    End()
//	p := cachemodel.NewProgram("demo")
//	p.Add(b.Build())
//	np, _, err := cachemodel.Prepare(p, cachemodel.PrepareOptions{})
//	if err != nil { ... }
//	rep, err := cachemodel.EstimateMisses(np, cachemodel.Default32K(2),
//	    cachemodel.AnalyzeOptions{}, cachemodel.Plan{C: 0.95, W: 0.05})
//	fmt.Printf("miss ratio %.2f%%\n", rep.MissRatio())
package cachemodel

import (
	"context"

	"cachemodel/internal/advisor"
	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/fparse"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/obs"
	"cachemodel/internal/prob"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
	"cachemodel/internal/trace"
)

// Program-model types (see internal/ir).
type (
	// Program is a whole program: subroutines plus a designated entry.
	Program = ir.Program
	// Subroutine is one subroutine: formals, locals and a body.
	Subroutine = ir.Subroutine
	// SubBuilder builds subroutines fluently.
	SubBuilder = ir.SubBuilder
	// Array is a column-major FORTRAN array.
	Array = ir.Array
	// Expr is a linear expression over named loop variables.
	Expr = ir.Expr
	// Cond is an affine IF condition.
	Cond = ir.Cond
	// Ref is an array reference with affine subscripts.
	Ref = ir.Ref
	// Arg is an actual parameter at a call site.
	Arg = ir.Arg
	// NProgram is the normalised program all analyses run on.
	NProgram = ir.NProgram
	// NRef is a reference of the normalised program.
	NRef = ir.NRef
)

// Builder helpers re-exported from the program model.
var (
	// NewProgram returns an empty program.
	NewProgram = ir.NewProgram
	// NewSub starts building a subroutine.
	NewSub = ir.NewSub
	// NewArray declares an array without laying it out.
	NewArray = ir.NewArray
	// Con builds a constant expression.
	Con = ir.Con
	// Var builds a loop-variable expression.
	Var = ir.Var
	// Term builds coeff·var.
	Term = ir.Term
	// R builds an array reference.
	R = ir.R
	// ArgVar passes a whole variable as an actual parameter.
	ArgVar = ir.ArgVar
	// ArgElem passes a subscripted element as an actual parameter.
	ArgElem = ir.ArgElem
)

// Comparison operators for IF conditions.
const (
	EQ = ir.EQ
	LE = ir.LE
	LT = ir.LT
	GE = ir.GE
	GT = ir.GT
)

// Cache and analysis types.
type (
	// Config describes a k-way set-associative LRU cache (§2).
	Config = cache.Config
	// Simulator is the exact cache simulator.
	Simulator = cache.Simulator
	// SimResult holds per-reference simulation counts.
	SimResult = trace.SimResult
	// AnalyzeOptions tunes the miss-equation solvers.
	AnalyzeOptions = cme.Options
	// ReuseOptions tunes reuse-vector generation.
	ReuseOptions = reuse.Options
	// Report is the output of FindMisses / EstimateMisses.
	Report = cme.Report
	// RefReport is the per-reference analysis result.
	RefReport = cme.RefReport
	// Plan is a sampling request: confidence and interval half-width.
	Plan = sampling.Plan
	// InlineOptions tunes abstract inlining.
	InlineOptions = inline.Options
	// InlineStats reports the Table 2 classification counters.
	InlineStats = inline.Stats
	// LayoutOptions tunes the data layout (padding, alignment).
	LayoutOptions = layout.Options
	// ProbOptions tunes the probabilistic baseline estimator.
	ProbOptions = prob.Options
	// ProbReport is the probabilistic baseline's output.
	ProbReport = prob.Report
)

// Budget bounds an analysis: a wall-clock deadline, a cap on classified
// iteration points, and a cap on interference-scan steps (the dominant
// inner cost of the replacement equations). A zero Budget means unlimited.
// When a budget trips, the solvers degrade down the ladder
// FindMisses → EstimateMisses → bounded instead of failing, unless
// NoFallback is set; cancellation via the context never degrades — it
// returns the coherent partial result together with ErrCanceled.
type Budget = budget.Budget

// BudgetSpent reports the resources an analysis actually consumed.
type BudgetSpent = budget.Spent

// Tier identifies the rung of the degradation ladder that produced a
// result: TierExact (every point solved), TierSampled (statistical
// sample), TierBounded (the points an interrupted pass classified, read
// as a sound bound on the misses; see RefReport.Bounds).
type Tier = cme.Tier

// Degradation-ladder rungs, strongest first.
const (
	TierExact   = cme.TierExact
	TierSampled = cme.TierSampled
	TierBounded = cme.TierBounded
)

// Sentinel errors, matched with errors.Is. Wrapped variants carry
// position or provenance detail.
var (
	// ErrBudgetExceeded reports that a Budget limit tripped.
	ErrBudgetExceeded = cerr.ErrBudgetExceeded
	// ErrCanceled reports context cancellation (or an injected one).
	ErrCanceled = cerr.ErrCanceled
	// ErrNonAffine reports a construct outside the paper's program model.
	ErrNonAffine = cerr.ErrNonAffine
	// ErrDegenerateSystem reports an unsolvable linear system.
	ErrDegenerateSystem = cerr.ErrDegenerateSystem
)

// ParseError is the positioned error ParseFortran returns for malformed
// source.
type ParseError = fparse.ParseError

// Default32K returns the paper's default cache: 32 KB, 32-byte lines.
func Default32K(assoc int) Config { return cache.Default32K(assoc) }

// NewSimulator returns an empty exact LRU simulator.
func NewSimulator(cfg Config) *Simulator { return cache.NewSimulator(cfg) }

// PrepareOptions bundles the front-end options of Prepare.
type PrepareOptions struct {
	Inline InlineOptions
	Layout LayoutOptions
}

// Prepare runs the paper's front end on a whole program: abstract inlining
// of every analysable call, loop-nest normalisation and data layout. The
// returned normalised program is ready for analysis and simulation.
func Prepare(p *Program, opt PrepareOptions) (np *NProgram, stats *InlineStats, err error) {
	defer cerr.RecoverTo(&err)
	return spec.FrontEnd{Inline: opt.Inline, Layout: opt.Layout}.Run(p)
}

// ClassifyCalls applies the Table 2 classification to every call of the
// program without inlining.
func ClassifyCalls(p *Program) InlineStats { return inline.ClassifyProgram(p) }

// NewAnalyzer builds the reuse vectors and iteration spaces of a prepared
// program for the given cache.
func NewAnalyzer(np *NProgram, cfg Config, opt AnalyzeOptions) (a *cme.Analyzer, err error) {
	defer cerr.RecoverTo(&err)
	return cme.New(np, cfg, opt)
}

// FindMisses analyses every iteration point of every reference (exact,
// Fig. 6 left).
func FindMisses(np *NProgram, cfg Config, opt AnalyzeOptions) (*Report, error) {
	return FindMissesCtx(context.Background(), np, cfg, opt, Budget{})
}

// FindMissesCtx is FindMisses under a context and a budget. On budget
// exhaustion the analysis degrades — unfinished references are resampled
// (TierSampled) and, if even that cannot finish, keep the counts they
// reached as a bound whose upper end the miss ratio reports
// (TierBounded) — and the report records the weakest tier used, so a
// budgeted call always returns a usable Report. On cancellation it
// returns the coherent partial report together with ErrCanceled.
func FindMissesCtx(ctx context.Context, np *NProgram, cfg Config, opt AnalyzeOptions, b Budget) (rep *Report, err error) {
	defer cerr.RecoverTo(&err)
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return nil, err
	}
	return a.FindMissesCtx(ctx, b)
}

// EstimateMisses analyses a statistically chosen sample of each
// reference's iteration space (Fig. 6 right).
func EstimateMisses(np *NProgram, cfg Config, opt AnalyzeOptions, plan Plan) (*Report, error) {
	return EstimateMissesCtx(context.Background(), np, cfg, opt, plan, Budget{})
}

// EstimateMissesCtx is EstimateMisses under a context and a budget, with
// the same degradation and cancellation semantics as FindMissesCtx (an
// interrupted sample keeps the size it reached; a reference with no
// sampled point is bounded).
func EstimateMissesCtx(ctx context.Context, np *NProgram, cfg Config, opt AnalyzeOptions, plan Plan, b Budget) (rep *Report, err error) {
	defer cerr.RecoverTo(&err)
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return nil, err
	}
	return a.EstimateMissesCtx(ctx, b, plan)
}

// Observability types (see internal/obs): a collector gathers hierarchical
// spans, registry metrics and throttled progress events for one run; attach
// it to the context passed into any *Ctx entry point and every pipeline
// stage it crosses records itself. All entry points are nil-safe, so code
// paths without a collector pay (almost) nothing.
type (
	// ObsCollector gathers spans, metrics and progress for one run.
	ObsCollector = obs.Collector
	// ObsEvent is one throttled progress event.
	ObsEvent = obs.Event
	// RunReport is the exportable JSON report of one observed run
	// (schema "cachette/run-report/v1").
	RunReport = obs.RunReport
	// RunProvenance summarises a Report for the run report.
	RunProvenance = obs.Provenance
	// CandidateProvenance summarises one sweep candidate for the run report.
	CandidateProvenance = obs.CandidateProvenance
)

// NewObsCollector returns a collector rooted at name, recording into the
// process-wide metrics registry.
func NewObsCollector(name string) *ObsCollector { return obs.New(name) }

// WithCollector attaches a collector to a context; the *Ctx entry points
// record spans, metrics and progress into it.
func WithCollector(ctx context.Context, c *ObsCollector) context.Context {
	return obs.NewContext(ctx, c)
}

// CollectorFrom returns the collector attached to ctx, or nil.
func CollectorFrom(ctx context.Context) *ObsCollector { return obs.FromContext(ctx) }

// ValidateRunReport decodes and checks a serialized run report against the
// documented schema ("cachette/run-report/v1").
func ValidateRunReport(blob []byte) (*RunReport, error) { return obs.ValidateRunReport(blob) }

// BatchError reports per-candidate failures of SolveBatch: the batch keeps
// solving the remaining candidates and the failed indices map to their
// errors (their reports stay nil).
type BatchError = cme.BatchError

// Batch design-space types (see internal/cme: the geometry-invariant
// pipeline split and the batch solver).
type (
	// PreparedProgram is the geometry-invariant stage of the pipeline:
	// everything about a normalised program that does not depend on cache
	// geometry or layout, shareable across a whole design-space sweep.
	PreparedProgram = cme.Prepared
	// BatchCandidate is one (cache geometry, layout) point of a sweep.
	BatchCandidate = cme.Candidate
	// BatchOptions tunes SolveBatch.
	BatchOptions = cme.BatchOptions
	// ResultCache is the content-addressed, LRU-bounded store of
	// per-reference results shared across SolveBatch calls.
	ResultCache = cme.ResultCache
	// ResultCacheStats are the result cache's counters.
	ResultCacheStats = cme.CacheStats
)

// NewResultCache returns a result cache bounded to capacity entries
// (capacity <= 0 selects a generous default).
func NewResultCache(capacity int) *ResultCache { return cme.NewResultCache(capacity) }

// PrepareAnalysis builds the geometry-invariant analysis stage of a
// prepared (laid-out) program once, for use with SolveBatch. The layout in
// effect becomes the batch baseline.
func PrepareAnalysis(np *NProgram, opt AnalyzeOptions) (p *PreparedProgram, err error) {
	defer cerr.RecoverTo(&err)
	return cme.Prepare(np, opt)
}

// SolveBatch evaluates many (geometry, layout) candidates against one
// prepared program, returning one Report per candidate (index-aligned).
// Exact-tier results are bit-identical to per-candidate FindMisses; sampled
// results (BatchOptions.Plan set) are bit-identical to EstimateMisses under
// the same seed. A candidate that fails (invalid config, layout error)
// leaves its report nil and is recorded in the returned *BatchError while
// the rest of the batch still solves; cancellation and NoFallback budget
// exhaustion abort the whole batch instead.
func SolveBatch(ctx context.Context, p *PreparedProgram, cands []BatchCandidate, opt BatchOptions) (reps []*Report, err error) {
	defer cerr.RecoverTo(&err)
	return p.SolveBatch(ctx, cands, opt)
}

// SearchConfigs sweeps cache geometries against one program via SolveBatch
// and returns the candidates sorted by predicted miss ratio, best first. A
// nil plan solves exactly.
func SearchConfigs(ctx context.Context, build func() *Program, cfgs []Config, opt AnalyzeOptions, plan *Plan) (cs []Choice, err error) {
	defer cerr.RecoverTo(&err)
	return advisor.SearchConfigs(ctx, build, cfgs, opt, plan)
}

// Simulate replays the program through the exact LRU simulator.
func Simulate(np *NProgram, cfg Config) *SimResult { return trace.Simulate(np, cfg) }

// SimulateCtx is Simulate under a context and a budget (Budget.MaxPoints
// caps simulated accesses). The simulator is the validation baseline, so
// there is no cheaper tier to degrade to: an interrupted replay returns
// the truncated prefix counts, marked Truncated, together with
// ErrCanceled or ErrBudgetExceeded.
func SimulateCtx(ctx context.Context, np *NProgram, cfg Config, b Budget) (res *SimResult, err error) {
	defer cerr.RecoverTo(&err)
	return trace.SimulateCtx(ctx, np, cfg, b)
}

// EstimateProbabilistic runs the Fraguela-style probabilistic baseline
// (Table 7).
func EstimateProbabilistic(np *NProgram, cfg Config, opt ProbOptions) (*ProbReport, error) {
	return EstimateProbabilisticCtx(context.Background(), np, cfg, opt, Budget{})
}

// EstimateProbabilisticCtx is EstimateProbabilistic under a context and a
// budget; each reference costs MembershipSamples points. On interruption
// the partial report covers the references estimated so far.
func EstimateProbabilisticCtx(ctx context.Context, np *NProgram, cfg Config, opt ProbOptions, b Budget) (rep *ProbReport, err error) {
	defer cerr.RecoverTo(&err)
	return prob.EstimateCtx(ctx, np, cfg, opt, b)
}

// Diagnosis types (CME-driven diagnosis, internal/advisor).
type (
	// Diagnosis attributes replacement misses to interfering arrays.
	Diagnosis = advisor.Diagnosis
	// Interference is one victim/interferer cell of the matrix.
	Interference = advisor.Interference
	// Choice is one evaluated transformation candidate.
	Choice = advisor.Choice
)

// Diagnose is EstimateMisses with miss attribution: the same sampled
// solve, attributing every sampled replacement miss to the arrays that
// supplied the evicting contentions. Its per-reference counts equal
// EstimateMisses' under the same options and plan.
func Diagnose(np *NProgram, cfg Config, opt AnalyzeOptions, plan Plan) (*Diagnosis, error) {
	return DiagnoseCtx(context.Background(), np, cfg, opt, plan, Budget{})
}

// DiagnoseCtx is Diagnose under a context and a budget, with the sampled
// solver's checkpoints, workers and adaptive sampling. Diagnosis needs
// pointwise attribution, so there is no cheaper tier: it runs as under
// Budget.NoFallback, and an interrupted run returns the partial diagnosis
// together with ErrCanceled or ErrBudgetExceeded.
func DiagnoseCtx(ctx context.Context, np *NProgram, cfg Config, opt AnalyzeOptions, plan Plan, b Budget) (d *Diagnosis, err error) {
	defer cerr.RecoverTo(&err)
	return advisor.DiagnoseCtx(ctx, np, cfg, opt, plan, b)
}

// SearchPadding ranks inter-array paddings by predicted miss ratio.
func SearchPadding(build func() *Program, array string, pads []int64, cfg Config, opt AnalyzeOptions, plan Plan) ([]Choice, error) {
	return SearchPaddingCtx(context.Background(), build, array, pads, cfg, opt, plan, Budget{})
}

// SearchPaddingCtx is SearchPadding under a context and a budget: the
// deadline spans the whole search, the point/scan caps apply per
// candidate, and an interrupted search returns the candidates evaluated
// so far (sorted) together with the interruption error.
func SearchPaddingCtx(ctx context.Context, build func() *Program, array string, pads []int64, cfg Config, opt AnalyzeOptions, plan Plan, b Budget) (cs []Choice, err error) {
	defer cerr.RecoverTo(&err)
	return advisor.SearchPaddingCtx(ctx, build, array, pads, cfg, opt, plan, b)
}

// SearchParameter ranks a parameterised program family (tile sizes, loop
// orders, ...) by predicted miss ratio.
func SearchParameter(build func(param int64) *Program, params []int64, cfg Config, opt AnalyzeOptions, plan Plan) ([]Choice, error) {
	return SearchParameterCtx(context.Background(), build, params, cfg, opt, plan, Budget{})
}

// SearchParameterCtx is SearchParameter under a context and a budget,
// with the same semantics as SearchPaddingCtx.
func SearchParameterCtx(ctx context.Context, build func(param int64) *Program, params []int64, cfg Config, opt AnalyzeOptions, plan Plan, b Budget) (cs []Choice, err error) {
	defer cerr.RecoverTo(&err)
	return advisor.SearchParameterCtx(ctx, build, params, cfg, opt, plan, b)
}

// ParseFortran parses FORTRAN-subset source (the paper's program model)
// into a Program. consts supplies compile-time values for named sizes,
// the way the paper fixes READ-initialised variables from the reference
// input. Malformed source yields a positioned *ParseError, never a panic.
func ParseFortran(src string, consts map[string]int64) (p *Program, err error) {
	defer cerr.RecoverTo(&err)
	return fparse.Parse(src, consts)
}

// ParseOptions tunes ParseFortranOptions.
type ParseOptions = fparse.Options

// ParseFortranOptions is ParseFortran with IF-GOTO loop conversion: the
// paper converts Swim's and Tomcatv's outer IF-GOTO iteration into DO
// statements with trip counts fixed from the reference input
// (Options.GotoTrips).
func ParseFortranOptions(src string, opt ParseOptions) (p *Program, err error) {
	defer cerr.RecoverTo(&err)
	return fparse.ParseOptions(src, opt)
}

// Built-in workloads: the paper's kernels (Fig. 8) and whole-program
// models (Table 5).
var (
	// KernelHydro is Livermore kernel 18 (JN = KN sizes are separate).
	KernelHydro = kernels.Hydro
	// KernelMGRID is the 3-D interpolation nest of MGRID.
	KernelMGRID = kernels.MGRID
	// KernelMMT is the blocked A·Bᵀ multiply with a transposed copy block.
	KernelMMT = kernels.MMT
	// ProgramTomcatv is the SPECfp95 Tomcatv model.
	ProgramTomcatv = kernels.Tomcatv
	// ProgramSwim is the SPECfp95 Swim model.
	ProgramSwim = kernels.Swim
	// ProgramApplu is the SPECfp95 Applu model.
	ProgramApplu = kernels.Applu
	// ProgramVCycle is a 3-level multigrid V-cycle exercising renameable
	// and sequence-associated call arguments.
	ProgramVCycle = kernels.VCycle
)
