package cme

import (
	"context"
	"fmt"
	"slices"
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
//
// A surface is the tier over a set of cache geometries (SolveSurface; a
// ladder is the surface of one). The family is probed once; each geometry
// keeps its own fit state (period and fit window differ) and makes the
// decisions it would make alone. Every exact solve — fit sample or
// fall-through — is one per-size step: build and Prepare once per size,
// then one SolveBatch over every geometry that needs the size, all
// charging one meter. Solves run in waves: the first window of every
// residue fit with the sizes no fit can cover, then the retries of failed
// fits, then the sizes the fits left.

// BuildFunc instantiates the program family at one problem size: a fully
// normalised and laid-out program (the same front half the per-size
// solvers consume).
type BuildFunc func(n int64) (*ir.NProgram, error)

// ScalingOptions configures the scaling solver.
type ScalingOptions struct {
	// Budget meters the exact solves of one SolveLadder or EvalClosedCtx
	// call — fit samples and fall-through sizes — with one meter for the
	// whole call and at most one degradation grace, as a SolveBatch grid.
	// Zero = unlimited.
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

// scalingFamily is what the structural probes learn about a program
// family. None of it depends on the cache geometry, so one probe serves
// every geometry of a surface.
type scalingFamily struct {
	eligible bool
	why      string // why the family is ineligible (when !eligible)
	degree   int
	reach    int64       // largest constant a chamber breakpoint can sit behind
	refs     []*refScale // in template program order
	elemGCD  int64       // gcd of the element sizes (0 without arrays)
}

// ScalingSolver is the closed-form scaling tier for one program family ×
// cache configuration. It is safe for concurrent use.
type ScalingSolver struct {
	build BuildFunc
	cfg   cache.Config
	opt   Options
	sopt  ScalingOptions
	scalingFamily
	period int64

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
	gs, err := prepareSurface(build, []Candidate{{Config: cfg}}, opt, sopt)
	if err != nil {
		return nil, err
	}
	return gs[0], nil
}

// prepareSurface validates every candidate geometry, probes the family
// once and stamps one solver per geometry; geometries differ only in
// their period.
func prepareSurface(build BuildFunc, cands []Candidate, opt Options, sopt ScalingOptions) ([]*ScalingSolver, error) {
	for _, c := range cands {
		if err := c.Config.Validate(); err != nil {
			return nil, err
		}
	}
	var fam scalingFamily
	if opt.NoSymbolic {
		fam.ineligible("closed form disabled by NoSymbolic")
	} else if err := fam.probe(build); err != nil {
		return nil, err
	}
	gs := make([]*ScalingSolver, len(cands))
	for i, c := range cands {
		s := &ScalingSolver{build: build, cfg: c.Config, opt: opt, sopt: sopt, scalingFamily: fam,
			fits: map[int64]*residueFit{}}
		if !opt.NoSymbolic {
			// Residue period: the set-wrap period of the cache geometry
			// over the finest element granularity. Every affine address
			// term a·n^k + ... repeats mod numSets·lineBytes when n
			// advances by it.
			setspan := c.Config.NumSets() * c.Config.LineBytes
			s.period = max(setspan/linalg.GCD(setspan, fam.elemGCD), 1)
		}
		gs[i] = s
	}
	return gs, nil
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
func (f *scalingFamily) ineligible(format string, args ...any) {
	f.eligible = false
	f.why = fmt.Sprintf(format, args...)
}

// probe instantiates the family at three consecutive sizes and lifts the
// structure to parameter space.
func (f *scalingFamily) probe(build BuildFunc) error {
	n0 := int64(scalingProbeN)
	var nps [3]*ir.NProgram
	for i := range nps {
		np, err := build(n0 + int64(i))
		if err != nil {
			return fmt.Errorf("cme: scaling probe at n=%d: %w", n0+int64(i), err)
		}
		nps[i] = np
	}
	for _, arr := range nps[0].Arrays {
		f.elemGCD = linalg.GCD(f.elemGCD, arr.ElemSize)
	}

	// Structural match + affine lift of every statement space. Along the
	// way, reach collects the n-free constants of n-dependent loop bounds,
	// of guards and of subscripts, which place chamber breakpoints
	// (MinClosedN).
	if len(nps[1].Stmts) != len(nps[0].Stmts) || len(nps[2].Stmts) != len(nps[0].Stmts) ||
		len(nps[1].Refs) != len(nps[0].Refs) || len(nps[2].Refs) != len(nps[0].Refs) {
		f.ineligible("statement/reference structure varies with n")
		return nil
	}
	spaces := make(map[*ir.NStmt]*poly.ParamSpace, len(nps[0].Stmts))
	maxNDims := 0
	for i, st := range nps[0].Stmts {
		st1, st2 := nps[1].Stmts[i], nps[2].Stmts[i]
		ps, ok := liftSpace(st, st1, st2, n0)
		if !ok {
			f.ineligible("statement %s: bounds or guards are not affine in n", st.Name)
			return nil
		}
		spaces[st] = ps
		nd := 0
		for _, b := range ps.Bounds {
			if b.Lo.IsParam() || b.Hi.IsParam() {
				nd++
				f.reach = max(f.reach, abs64(b.Lo.Base.Const), abs64(b.Hi.Base.Const))
			}
		}
		for _, g := range ps.Guards {
			f.reach = max(f.reach, abs64(g.Expr.Base.Const))
		}
		if nd > maxNDims {
			maxNDims = nd
		}
	}
	f.degree = maxNDims
	if f.degree == 0 {
		f.degree = 1 // constant-size family: still fit a sanity slope
	}

	for i, r := range nps[0].Refs {
		r1, r2 := nps[1].Refs[i], nps[2].Refs[i]
		if r.ID != r1.ID || r.ID != r2.ID || len(r.Subs) != len(r1.Subs) || len(r.Subs) != len(r2.Subs) {
			f.ineligible("reference order varies with n")
			return nil
		}
		ps := spaces[r.Stmt]
		for d, sub := range r.Subs {
			// A subscript that does not lift keeps its probe constant.
			if pa, ok := liftAffine(sub, r1.Subs[d], r2.Subs[d], n0); ok {
				sub = pa.Base
			}
			f.reach = max(f.reach, subscriptReach(sub, ps))
		}
		f.refs = append(f.refs, &refScale{ref: r, space: ps})
	}
	f.eligible = true
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

// fit returns the committed closed form of one residue class (nil
// while the class is unfitted).
func (s *ScalingSolver) fit(r int64) *residueFit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fits[r]
}

// commitFit records a residue class's fit and what it cost. A class
// another call fitted first keeps that fit and its cost.
func (s *ScalingSolver) commitFit(r int64, f *residueFit, solves int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fits[r] != nil {
		return
	}
	s.fits[r] = f
	s.stats.FitSolves += solves
	mScalingFits.Inc()
	mScalingFitSolves.Add(solves)
}

// fitFrom fits every reference's counters through the closed-form engine
// from the sample censuses of one window, based at its first size.
func (s *ScalingSolver) fitFrom(ns []int64, reps []*Report) (*residueFit, error) {
	f := &residueFit{ok: true, base: ns[0], refs: make(map[string]*countFit, len(s.refs))}
	for _, rs := range s.refs {
		id := rs.ref.ID
		var cs []countSample
		for i, n := range ns {
			rr := findRef(reps[i], id)
			if rr == nil || !exactCensus(rr) {
				return nil, fmt.Errorf("sample solve at n=%d did not complete exactly for %s", n, id)
			}
			if vol := rs.space.At(n).Volume(); vol != rr.Volume {
				return nil, fmt.Errorf("lifted space of %s diverges at n=%d: |RIS| %d, exact %d",
					id, n, vol, rr.Volume)
			}
			cs = append(cs, countSample{x: n, c: countsOf(rr)})
		}
		rf, err := fitCounts(s.degree, cs)
		if err != nil {
			return nil, fmt.Errorf("ref %s: %w", id, err)
		}
		f.refs[id] = rf
	}
	return f, nil
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

// closable reports whether a fit can ever cover size n.
func (s *ScalingSolver) closable(n int64) bool { return s.eligible && n >= s.MinClosedN() }

// evalClosed evaluates the closed form at size n from its class's fit;
// nil means no fit covers n and the caller falls through.
func (s *ScalingSolver) evalClosed(n int64) *Report {
	if !s.closable(n) {
		return nil
	}
	fit := s.fit(mod64(n, s.period))
	if fit == nil || !fit.ok || n < fit.base {
		return nil
	}
	start := time.Now()
	info := &ClosedInfo{Axis: AxisSize, Param: n, ClosedRefs: len(s.refs),
		TotalRefs: len(s.refs), Period: s.period, Degree: s.degree}
	rep := &Report{Config: s.cfg, Tier: TierExact, Scaling: info}
	for _, rs := range s.refs {
		rf := fit.refs[rs.ref.ID]
		if rf == nil {
			return nil
		}
		vol := rs.space.At(n).Volume()
		// A refused evaluation means the polynomial left its chamber:
		// refuse rather than mispredict.
		c, ok := rf.at(n, vol)
		if !ok {
			return nil
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
	return rep
}

// fellThrough stamps a per-size solve at n as this geometry's
// fall-through row, with the reason the closed form did not answer.
func (s *ScalingSolver) fellThrough(n int64, solved *Report) *Report {
	why := s.why
	if why == "" {
		why = fmt.Sprintf("n=%d below the closed-form minimum %d", n, s.MinClosedN())
	}
	if s.closable(n) {
		switch f := s.fit(mod64(n, s.period)); {
		case f == nil:
			why = "residue class not fitted"
		case !f.ok:
			why = "residue class fit failed: " + f.why
		default:
			why = fmt.Sprintf("n=%d below the fitted chamber base %d", n, f.base)
		}
	}
	rep := copyReport(solved, s.cfg)
	rep.Scaling = &ClosedInfo{Axis: AxisSize, Param: n,
		FallthroughRefs: len(rep.Refs), TotalRefs: len(rep.Refs),
		Period: s.period, Degree: s.degree, Why: why}
	s.mu.Lock()
	s.stats.Fallbacks++
	s.mu.Unlock()
	mScalingFallbacks.Inc()
	return rep
}

// EvalClosedCtx evaluates the closed form at size n without ever solving
// at n itself: it may spend fit solves (at small sample sizes, metered by
// ScalingOptions.Budget) the first time a residue class is touched, but
// never enumerates size n. ok reports whether the closed form covers n;
// (nil, false, nil) means the caller should fall through. Below
// MinClosedN it refuses without spending anything.
func (s *ScalingSolver) EvalClosedCtx(ctx context.Context, n int64) (*Report, bool, error) {
	reps, err := solveSurface(ctx, []*ScalingSolver{s}, []int64{n}, BatchOptions{Budget: s.sopt.Budget, Workers: s.opt.Workers}, false)
	if err != nil {
		return nil, false, err
	}
	return reps[0], reps[0] != nil, nil
}

// SolveLadder answers a whole size ladder: the surface of this one
// geometry (see SolveSurface), metered by ScalingOptions.Budget as one
// meter for the call. Sizes sharing a residue class mod Period share one
// fit; the reports come back index-aligned with ns, each with its
// Scaling provenance: closed form, or the per-size solve it fell through
// to and why.
func (s *ScalingSolver) SolveLadder(ctx context.Context, ns []int64) ([]*Report, error) {
	return solveSurface(ctx, []*ScalingSolver{s}, ns, BatchOptions{Budget: s.sopt.Budget, Workers: s.opt.Workers}, true)
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

// SolveSurface answers every candidate geometry at every ladder size of
// the family build describes: rows in candidate order, then ladder
// order, plus the per-geometry solvers (fits, stats, closed forms). The
// surface is exact (bopt.Plan is ignored) and candidate layouts are not
// applied; bopt.Budget arms one meter for the whole call, with at most
// one degradation grace, and bopt.Cache and bopt.Workers serve every
// per-size solve.
func SolveSurface(ctx context.Context, build BuildFunc, cands []Candidate, ns []int64, opt Options, bopt BatchOptions) ([]*Report, []*ScalingSolver, error) {
	gs, err := prepareSurface(build, cands, opt, ScalingOptions{Budget: bopt.Budget})
	if err != nil {
		return nil, nil, err
	}
	reps, err := solveSurface(ctx, gs, ns, bopt, true)
	return reps, gs, err
}

// sizeKey names one exact solve: a geometry at size n.
type sizeKey struct {
	g *ScalingSolver
	n int64
}

// fitJob is one residue class's fit in progress.
type fitJob struct {
	g                *ScalingSolver
	r, fitN, attempt int64
}

// sizes are the attempt's degree+1+closedHoldouts sample sizes of the
// class at and beyond fitN; the first is the fit's base.
func (j *fitJob) sizes() []int64 {
	ns := make([]int64, j.g.degree+1+closedHoldouts)
	for k := range ns {
		ns[k] = j.fitN + mod64(j.r-j.fitN, j.g.period) + int64(k)*j.g.period
	}
	return ns
}

// solveSurface answers every geometry of gs (one family, one Options) at
// every size of ns, in geometry order, then ladder order. Without
// fallThrough only fits are solved, and a row the closed form does not
// cover stays nil.
func solveSurface(ctx context.Context, gs []*ScalingSolver, ns []int64, bopt BatchOptions, fallThrough bool) ([]*Report, error) {
	if len(gs) == 0 {
		return nil, nil
	}
	bopt.Plan = nil
	m := budget.NewMeter(ctx, bopt.Budget)
	progs := map[int64]*Prepared{}
	reps := map[sizeKey]*Report{}
	// solve is the per-size step: each size of need, in ascending order,
	// is built and Prepared once per call and solved in one batch over
	// the geometries that need it and have not solved it yet. A failed
	// build, cancellation or a NoFallback exhaustion fails the call.
	solve := func(need []sizeKey) error {
		bySize := map[int64][]*ScalingSolver{}
		var sizes []int64
		for _, k := range need {
			if reps[k] != nil || slices.Contains(bySize[k.n], k.g) {
				continue
			}
			if len(bySize[k.n]) == 0 {
				sizes = append(sizes, k.n)
			}
			bySize[k.n] = append(bySize[k.n], k.g)
		}
		slices.Sort(sizes)
		for _, n := range sizes {
			if progs[n] == nil {
				np, err := gs[0].build(n)
				if err == nil {
					progs[n], err = Prepare(np, gs[0].opt)
				}
				if err != nil {
					return err
				}
			}
			cands := make([]Candidate, len(bySize[n]))
			for i, g := range bySize[n] {
				cands[i] = Candidate{Label: g.cfg.String(), Config: g.cfg}
			}
			out, err := progs[n].solveBatch(ctx, m, cands, bopt)
			if err != nil {
				return err
			}
			for i, g := range bySize[n] {
				reps[sizeKey{g, n}] = out[i]
			}
		}
		return nil
	}

	var jobs []*fitJob
	var need []sizeKey
	for _, g := range gs {
		for _, n := range ns {
			if !g.closable(n) {
				if fallThrough {
					need = append(need, sizeKey{g, n})
				}
			} else if r := mod64(n, g.period); g.fit(r) == nil &&
				!slices.ContainsFunc(jobs, func(j *fitJob) bool { return j.g == g && j.r == r }) {
				jobs = append(jobs, &fitJob{g: g, r: r, fitN: g.MinClosedN()})
			}
		}
	}
	// Fit waves. A failed attempt retries with the window doubled (the
	// chamber guess was too low) and the third failure is committed as
	// the class's refusal. Once the meter has tripped, fitting stops: a
	// census the budget cut short says nothing about the chamber, so the
	// class stays unfitted for this call.
	for len(jobs) > 0 {
		for _, j := range jobs {
			for _, n := range j.sizes() {
				need = append(need, sizeKey{j.g, n})
			}
		}
		if err := solve(need); err != nil {
			return nil, err
		}
		need = nil
		var retry []*fitJob
		for _, j := range jobs {
			samples := j.sizes()
			sreps := make([]*Report, len(samples))
			for i, n := range samples {
				sreps[i] = reps[sizeKey{j.g, n}]
			}
			f, err := j.g.fitFrom(samples, sreps)
			switch {
			case err == nil:
			case m.Err() != nil || m.Spent().Graces > 0:
				continue
			case j.attempt < 2:
				j.attempt++
				j.fitN *= 2
				retry = append(retry, j)
				continue
			default:
				f = &residueFit{why: err.Error()}
			}
			j.g.commitFit(j.r, f, int64(len(samples))*(j.attempt+1))
		}
		jobs = retry
	}

	// Closed rows, then one last wave for the rows they left (sizes no
	// fit could cover ride it when no fit was needed).
	need = nil
	out := make([]*Report, len(gs)*len(ns))
	var left []int
	for i := range out {
		g, n := gs[i/len(ns)], ns[i%len(ns)]
		if out[i] = g.evalClosed(n); out[i] == nil && fallThrough {
			left = append(left, i)
			need = append(need, sizeKey{g, n})
		}
	}
	if err := solve(need); err != nil {
		return nil, err
	}
	for j, i := range left {
		out[i] = need[j].g.fellThrough(need[j].n, reps[need[j]])
	}
	return out, nil
}
