package cme

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/poly"
	"cachemodel/internal/qpoly"
)

// This file implements the closed-form scaling tier — the top rung of the
// solver ladder. Where the exact tier classifies iteration points and the
// region tier replicates verdicts across translates at ONE problem size,
// this tier keeps the problem size n itself symbolic: per-reference miss
// counts become polynomials of n per residue class, so a whole size sweep
// costs a few sample solves plus, per size, one |RIS| count per reference
// and one polynomial evaluation instead of one re-enumeration per size.
//
// Eligibility is fit or fall-through:
//
//  1. Structural affinity. The program family build(n) is instantiated at
//     three consecutive probe sizes; statements and references must match
//     one-to-one and every loop bound and guard constant must move affinely
//     with n (coefficients fixed). This lifts each statement's iteration
//     space to a poly.ParamSpace, whose instantiation at n counts the
//     reference's |RIS| exactly (ParamSpace.At(n).Volume()).
//
//  2. Every reference is fitted per residue class. Counts are
//     quasi-polynomial with the set-wrap period P = numSets·lineBytes/g
//     (g = gcd of the element sizes): within a class n ≡ r (mod P) each
//     counter is eventually a plain polynomial of degree ≤ the number of
//     n-dependent loop dimensions. The solver runs the exact enumerating
//     tier at deg+1+closedHoldouts sample sizes of the class, past the
//     chamber breakpoints where working sets outgrow the cache and where
//     array offsets stop deciding which reuse exists, and hands their
//     censuses to the closed-form engine (closed.go), which fits, verifies
//     the holdouts and checks the count identities — analyzed == the
//     counted |RIS| among them — at every evaluation. Residue classes are
//     fitted lazily: a ladder stepping by P pays for one.
//
// Anything that fails falls through: ineligible families (and every family
// under Options.NoSymbolic), sizes below the fit window and refused
// evaluations are answered by the ordinary per-size solver, and the
// Report's Scaling provenance (a ClosedInfo on AxisSize) says which path
// produced the numbers.

// BuildFunc instantiates the program family at one problem size: a fully
// normalised and laid-out program (the same front half the per-size
// solvers consume).
type BuildFunc func(n int64) (*ir.NProgram, error)

// ScalingOptions configures the scaling solver.
type ScalingOptions struct {
	// Budget meters the internal exact solves (fit samples and
	// fall-through sizes). Zero = unlimited.
	Budget budget.Budget
}

const (
	// scalingMinFitN is the least start of the fit window; smaller sizes
	// always fall through to the per-size solver.
	scalingMinFitN = 8
	// scalingProbeN is the base of the three structural probe sizes
	// scalingProbeN, scalingProbeN+1, scalingProbeN+2.
	scalingProbeN = 8
)

// ScalingStats snapshots a solver's work counters.
type ScalingStats struct {
	ResiduesFitted int
	FitSolves      int64
	ClosedEvals    int64
	Fallbacks      int64
}

// refScale is the per-reference symbolic state.
type refScale struct {
	ref   *ir.NRef // the template instantiation's reference (ID donor)
	space *poly.ParamSpace
}

// residueFit is the closed form of one residue class n ≡ r (mod period).
type residueFit struct {
	ok   bool
	why  string
	base int64 // smallest n the fit is valid for
	refs map[string]*countFit
}

// ScalingSolver is the closed-form scaling tier for one program family ×
// cache configuration. It is safe for concurrent use.
type ScalingSolver struct {
	build BuildFunc
	cfg   cache.Config
	opt   Options
	sopt  ScalingOptions

	eligible bool
	why      string // why the family is ineligible (when !eligible)
	period   int64
	degree   int
	reach    int64       // largest constant a chamber breakpoint can sit behind
	refs     []*refScale // in template program order

	mu    sync.Mutex
	fits  map[int64]*residueFit
	stats ScalingStats
}

// PrepareScaling probes the program family and builds the scaling solver.
// An error means the probes themselves failed (bad build function or
// invalid configuration); a structurally ineligible family is NOT an
// error — the solver is returned with ClosedFormEligible() == false and
// answers every size by fall-through. Options.NoSymbolic makes every
// family ineligible without probing it.
func PrepareScaling(build BuildFunc, cfg cache.Config, opt Options, sopt ScalingOptions) (*ScalingSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &ScalingSolver{build: build, cfg: cfg, opt: opt, sopt: sopt,
		fits: map[int64]*residueFit{},
	}
	if opt.NoSymbolic {
		s.ineligible("closed form disabled by NoSymbolic")
		return s, nil
	}
	if err := s.probe(); err != nil {
		return nil, err
	}
	return s, nil
}

// ClosedFormEligible reports whether the family passed the structural
// probes; Why says what failed when it did not.
func (s *ScalingSolver) ClosedFormEligible() bool { return s.eligible }

// Why returns the ineligibility reason (empty when eligible).
func (s *ScalingSolver) Why() string { return s.why }

// Period returns the residue period of the fits: sizes n ≡ r (mod
// Period) share one class's polynomials.
func (s *ScalingSolver) Period() int64 { return s.period }

// Stats snapshots the work counters.
func (s *ScalingSolver) Stats() ScalingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResiduesFitted = len(s.fits)
	return st
}

// ineligible marks the whole family as fall-through-only.
func (s *ScalingSolver) ineligible(format string, args ...any) {
	s.eligible = false
	s.why = fmt.Sprintf(format, args...)
}

// probe instantiates the family at three consecutive sizes and lifts the
// structure to parameter space.
func (s *ScalingSolver) probe() error {
	n0 := int64(scalingProbeN)
	var nps [3]*ir.NProgram
	for i := range nps {
		np, err := s.build(n0 + int64(i))
		if err != nil {
			return fmt.Errorf("cme: scaling probe at n=%d: %w", n0+int64(i), err)
		}
		nps[i] = np
	}

	// Residue period: the set-wrap period of the cache geometry over the
	// finest element granularity. Every affine address term a·n^k + ...
	// repeats mod numSets·lineBytes when n advances by it.
	setspan := s.cfg.NumSets() * s.cfg.LineBytes
	g := setspan
	for _, arr := range nps[0].Arrays {
		g = linalg.GCD(g, arr.ElemSize)
	}
	if g == 0 {
		g = 1
	}
	s.period = setspan / g
	if s.period < 1 {
		s.period = 1
	}

	// Structural match + affine lift of every statement space. Along the
	// way, reach collects the n-free constants of n-dependent loop bounds,
	// of guards and of subscripts, which place chamber breakpoints
	// (MinClosedN).
	if len(nps[1].Stmts) != len(nps[0].Stmts) || len(nps[2].Stmts) != len(nps[0].Stmts) ||
		len(nps[1].Refs) != len(nps[0].Refs) || len(nps[2].Refs) != len(nps[0].Refs) {
		s.ineligible("statement/reference structure varies with n")
		return nil
	}
	spaces := make(map[*ir.NStmt]*poly.ParamSpace, len(nps[0].Stmts))
	maxNDims := 0
	for i, st := range nps[0].Stmts {
		st1, st2 := nps[1].Stmts[i], nps[2].Stmts[i]
		ps, ok := liftSpace(st, st1, st2, n0)
		if !ok {
			s.ineligible("statement %s: bounds or guards are not affine in n", st.Name)
			return nil
		}
		spaces[st] = ps
		nd := 0
		for _, b := range ps.Bounds {
			if b.Lo.IsParam() || b.Hi.IsParam() {
				nd++
				s.reach = max(s.reach, abs64(b.Lo.Base.Const), abs64(b.Hi.Base.Const))
			}
		}
		for _, g := range ps.Guards {
			s.reach = max(s.reach, abs64(g.Expr.Base.Const))
		}
		if nd > maxNDims {
			maxNDims = nd
		}
	}
	s.degree = maxNDims
	if s.degree == 0 {
		s.degree = 1 // constant-size family: still fit a sanity slope
	}

	for i, r := range nps[0].Refs {
		r1, r2 := nps[1].Refs[i], nps[2].Refs[i]
		if r.ID != r1.ID || r.ID != r2.ID || len(r.Subs) != len(r1.Subs) || len(r.Subs) != len(r2.Subs) {
			s.ineligible("reference order varies with n")
			return nil
		}
		ps := spaces[r.Stmt]
		for d, sub := range r.Subs {
			// A subscript that does not lift keeps its probe constant.
			if pa, ok := liftAffine(sub, r1.Subs[d], r2.Subs[d], n0); ok {
				sub = pa.Base
			}
			s.reach = max(s.reach, subscriptReach(sub, ps))
		}
		s.refs = append(s.refs, &refScale{ref: r, space: ps})
	}
	s.eligible = true
	return nil
}

// subscriptReach is how far a subscript's n-free part shifts it: its
// constant plus, for every loop whose bounds do not move with n, the
// largest shift that loop's index contributes.
func subscriptReach(sub ir.Affine, ps *poly.ParamSpace) int64 {
	r := abs64(sub.Const)
	for k, b := range ps.Bounds {
		if c := sub.At(k + 1); c != 0 && !b.Lo.IsParam() && !b.Hi.IsParam() {
			r += abs64(c) * max(abs64(b.Lo.Base.Const), abs64(b.Hi.Base.Const))
		}
	}
	return r
}

// liftSpace lifts one statement's bounds and guards to parameter space by
// differencing three consecutive instantiations: coefficients must agree
// and constants must advance by the same integer step.
func liftSpace(st0, st1, st2 *ir.NStmt, n0 int64) (*poly.ParamSpace, bool) {
	if st0.Depth() != st1.Depth() || st0.Depth() != st2.Depth() ||
		len(st0.Guards) != len(st1.Guards) || len(st0.Guards) != len(st2.Guards) {
		return nil, false
	}
	bounds := make([]poly.ParamBound, st0.Depth())
	for k := range bounds {
		lo, ok1 := liftAffine(st0.Bounds[k].Lo, st1.Bounds[k].Lo, st2.Bounds[k].Lo, n0)
		hi, ok2 := liftAffine(st0.Bounds[k].Hi, st1.Bounds[k].Hi, st2.Bounds[k].Hi, n0)
		if !ok1 || !ok2 {
			return nil, false
		}
		bounds[k] = poly.ParamBound{Lo: lo, Hi: hi}
	}
	guards := make([]poly.ParamConstraint, len(st0.Guards))
	for i := range guards {
		g0, g1, g2 := st0.Guards[i], st1.Guards[i], st2.Guards[i]
		if g0.IsEq != g1.IsEq || g0.IsEq != g2.IsEq {
			return nil, false
		}
		e, ok := liftAffine(g0.Expr, g1.Expr, g2.Expr, n0)
		if !ok {
			return nil, false
		}
		guards[i] = poly.ParamConstraint{Expr: e, IsEq: g0.IsEq}
	}
	return poly.NewParamSpace(bounds, guards), true
}

// liftAffine recovers c(n) = base + step·n from three consecutive
// observations, requiring equal index coefficients and a consistent step.
func liftAffine(a0, a1, a2 ir.Affine, n0 int64) (poly.ParamAffine, bool) {
	d := a0.MaxDepthUsed()
	if a1.MaxDepthUsed() != d || a2.MaxDepthUsed() != d {
		return poly.ParamAffine{}, false
	}
	for k := 1; k <= d; k++ {
		if a0.At(k) != a1.At(k) || a0.At(k) != a2.At(k) {
			return poly.ParamAffine{}, false
		}
	}
	step := a1.Const - a0.Const
	if a2.Const-a1.Const != step {
		return poly.ParamAffine{}, false
	}
	base := ir.Affine{Const: a0.Const - step*n0, Coeff: append([]int64(nil), a0.Coeff...)}
	return poly.ParamAffine{Base: base, N: step}, true
}

// MinClosedN returns the start of the fit window, a lower bound on the
// sizes the closed form can cover: fits are anchored at or beyond it, so
// EvalClosedCtx below it always reports ok=false (and spends nothing).
// Callers with a known size range can use it to skip the closed tier up
// front.
//
// The window starts past the chamber breakpoints: beyond the size where
// every array row spans more lines than the cache holds, the
// capacity-transition chambers are behind us, and one period of slack
// keeps the first sample clear of the seam. The program's own constants
// add breakpoints too: two forms a1 + s1·n and a2 + s2·n with s1 ≠ s2 swap
// order at some |n| ≤ |a1| + |a2| ≤ 2·reach — the size where A(J+20)
// starts to meet A(I), I ≤ n, is one.
func (s *ScalingSolver) MinClosedN() int64 {
	return max(s.period, s.cfg.SizeBytes/s.cfg.LineBytes, scalingMinFitN, 2*s.reach+2)
}

// solveExactAt runs the ordinary exact tier at one size.
func (s *ScalingSolver) solveExactAt(ctx context.Context, n int64) (*Report, error) {
	np, err := s.build(n)
	if err != nil {
		return nil, err
	}
	a, err := New(np, s.cfg, s.opt)
	if err != nil {
		return nil, err
	}
	return a.FindMissesCtx(ctx, s.sopt.Budget)
}

// fitResidue lazily builds (and caches) the closed form of one residue
// class from exact sample solves. It is called with s.mu NOT held.
func (s *ScalingSolver) fitResidue(ctx context.Context, r int64) (*residueFit, error) {
	s.mu.Lock()
	if f, ok := s.fits[r]; ok {
		s.mu.Unlock()
		return f, nil
	}
	s.mu.Unlock()

	f, solves, err := s.fitResidueUncached(ctx, r)
	if err != nil {
		return nil, err // budget/cancellation: don't cache, don't fall back
	}
	s.mu.Lock()
	if prev, ok := s.fits[r]; ok { // another goroutine won the race
		s.mu.Unlock()
		return prev, nil
	}
	s.fits[r] = f
	s.stats.FitSolves += solves
	s.mu.Unlock()
	mScalingFits.Inc()
	mScalingFitSolves.Add(solves)
	return f, nil
}

func (s *ScalingSolver) fitResidueUncached(ctx context.Context, r int64) (*residueFit, int64, error) {
	fitN := s.MinClosedN()
	var solves int64
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, n, err := s.tryFit(ctx, r, fitN)
		solves += n
		if err == nil {
			return f, solves, nil
		}
		if ctx.Err() != nil {
			return nil, solves, err
		}
		lastErr = err
		fitN *= 2 // the chamber guess was too low: push the window out
	}
	return &residueFit{ok: false, why: lastErr.Error()}, solves, nil
}

// tryFit solves degree+1+closedHoldouts sizes of the class at and beyond
// fitN and fits every reference's counters through the closed-form engine.
func (s *ScalingSolver) tryFit(ctx context.Context, r, fitN int64) (*residueFit, int64, error) {
	nSamples := s.degree + 1 + closedHoldouts
	base := fitN + mod64(r-fitN, s.period)
	type sampleRep struct {
		n   int64
		rep *Report
	}
	var solves int64
	samples := make([]sampleRep, 0, nSamples)
	for k := 0; k < nSamples; k++ {
		n := base + int64(k)*s.period
		rep, err := s.solveExactAt(ctx, n)
		solves++
		if err != nil {
			return nil, solves, err
		}
		samples = append(samples, sampleRep{n: n, rep: rep})
	}

	f := &residueFit{ok: true, base: base, refs: make(map[string]*countFit, len(s.refs))}
	for _, rs := range s.refs {
		id := rs.ref.ID
		var cs []countSample
		for _, sm := range samples {
			rr := findRef(sm.rep, id)
			if rr == nil || !exactCensus(rr) {
				return nil, solves, fmt.Errorf("sample solve at n=%d did not complete exactly for %s", sm.n, id)
			}
			if vol := rs.space.At(sm.n).Volume(); vol != rr.Volume {
				return nil, solves, fmt.Errorf("lifted space of %s diverges at n=%d: |RIS| %d, exact %d",
					id, sm.n, vol, rr.Volume)
			}
			cs = append(cs, countSample{x: sm.n, c: countsOf(rr)})
		}
		rf, err := fitCounts(s.degree, cs)
		if err != nil {
			return nil, solves, fmt.Errorf("ref %s: %w", id, err)
		}
		f.refs[id] = rf
	}
	return f, solves, nil
}

func findRef(rep *Report, id string) *RefReport {
	for _, rr := range rep.Refs {
		if rr.Ref.ID == id {
			return rr
		}
	}
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func mod64(n, m int64) int64 {
	v := n % m
	if v < 0 {
		v += m
	}
	return v
}

// EvalClosedCtx evaluates the closed form at size n without ever solving
// at n itself: it may spend fit solves (at small sample sizes) the first
// time a residue class is touched, but never enumerates size n. ok
// reports whether the closed form covers n; (nil, false, nil) means the
// caller should fall through.
func (s *ScalingSolver) EvalClosedCtx(ctx context.Context, n int64) (*Report, bool, error) {
	// Residue-class fits are anchored at or beyond the fit window
	// (tryFit's base ≥ fitN), so no fit can ever cover a smaller n: refuse
	// before spending fit solves that are guaranteed wasted.
	if !s.eligible || n < s.MinClosedN() {
		return nil, false, nil
	}
	start := time.Now()
	r := mod64(n, s.period)
	fit, err := s.fitResidue(ctx, r)
	if err != nil {
		return nil, false, err
	}
	if !fit.ok || n < fit.base {
		return nil, false, nil
	}
	info := &ClosedInfo{Axis: AxisSize, Param: n, ClosedRefs: len(s.refs),
		TotalRefs: len(s.refs), Period: s.period, Degree: s.degree}
	rep := &Report{Config: s.cfg, Tier: TierExact, Scaling: info}
	for _, rs := range s.refs {
		rf := fit.refs[rs.ref.ID]
		if rf == nil {
			return nil, false, nil
		}
		vol := rs.space.At(n).Volume()
		// A refused evaluation means the polynomial left its chamber:
		// refuse rather than mispredict.
		c, ok := rf.at(n, vol)
		if !ok {
			return nil, false, nil
		}
		rr := &RefReport{Ref: rs.ref, Volume: vol}
		fillClosed(rr, c)
		rep.Refs = append(rep.Refs, rr)
	}
	rep.Elapsed = time.Since(start)
	s.mu.Lock()
	s.stats.ClosedEvals++
	s.mu.Unlock()
	mScalingEvals.Inc()
	return rep, true, nil
}

// EvalCtx answers one size: closed form when the ladder allows it,
// otherwise graceful fall-through to the per-size exact solver (with the
// fall-through recorded in the report's Scaling provenance).
func (s *ScalingSolver) EvalCtx(ctx context.Context, n int64) (*Report, error) {
	rep, ok, err := s.EvalClosedCtx(ctx, n)
	if err != nil {
		return nil, err
	}
	if ok {
		return rep, nil
	}
	why := s.why
	if why == "" {
		why = s.fallbackWhy(n)
	}
	rep, err = s.solveExactAt(ctx, n)
	if rep != nil {
		rep.Scaling = &ClosedInfo{Axis: AxisSize, Param: n,
			FallthroughRefs: len(rep.Refs), TotalRefs: len(rep.Refs),
			Period: s.period, Degree: s.degree, Why: why}
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	s.mu.Unlock()
	mScalingFallbacks.Inc()
	return rep, err
}

func (s *ScalingSolver) fallbackWhy(n int64) string {
	if m := s.MinClosedN(); n < m {
		return fmt.Sprintf("n=%d below the closed-form minimum %d", n, m)
	}
	s.mu.Lock()
	f := s.fits[mod64(n, s.period)]
	s.mu.Unlock()
	switch {
	case f == nil:
		return "residue class not fitted"
	case !f.ok:
		return "residue class fit failed: " + f.why
	default:
		return fmt.Sprintf("n=%d below the fitted chamber base %d", n, f.base)
	}
}

// SolveLadder answers a whole size ladder. Sizes sharing a residue class
// mod Period share one fit; the reports come back index-aligned with ns.
func (s *ScalingSolver) SolveLadder(ctx context.Context, ns []int64) ([]*Report, error) {
	out := make([]*Report, len(ns))
	for i, n := range ns {
		rep, err := s.EvalCtx(ctx, n)
		if err != nil {
			return out, err
		}
		out[i] = rep
	}
	return out, nil
}

// MissPoly is the public closed form of one reference: the counter
// polynomials of every residue class fitted so far.
type MissPoly struct {
	RefID string
	// Residues maps n mod Period to the class's counter polynomials
	// (valid for n ≥ Base in the class); Analyzed is the class's |RIS|.
	Residues map[int64]MissPolyClass
}

// MissPolyClass is one residue class's closed form.
type MissPolyClass struct {
	Base                       int64
	Analyzed, Hits, Cold, Repl qpoly.Poly
}

// MissPolys returns the per-reference closed forms accumulated so far,
// sorted by reference ID.
func (s *ScalingSolver) MissPolys() []MissPoly {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MissPoly, 0, len(s.refs))
	for _, rs := range s.refs {
		mp := MissPoly{RefID: rs.ref.ID, Residues: map[int64]MissPolyClass{}}
		for r, f := range s.fits {
			if !f.ok {
				continue
			}
			if rf := f.refs[rs.ref.ID]; rf != nil {
				mp.Residues[r] = MissPolyClass{Base: f.base,
					Analyzed: rf.analyzed, Hits: rf.hits, Cold: rf.cold, Repl: rf.repl}
			}
		}
		out = append(out, mp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RefID < out[j].RefID })
	return out
}
