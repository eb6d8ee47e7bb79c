package cme

import (
	"sort"
	"sync"

	"cachemodel/internal/budget"
	"cachemodel/internal/ir"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
	"cachemodel/internal/trace"
)

// This file implements the symbolic region solver: instead of classifying
// every iteration point, it classifies one representative region and
// replicates the verdicts across the translates that provably share them,
// and resolves all-cold references by pure lattice-point counting. Reports
// are bit-identical to the enumerating solver; Options.NoSymbolic turns
// the fast path off for benchmarking and equivalence testing.
//
// Soundness rests on the same per-depth invariance predicates the verdict
// memo uses (programTraits / vectorMemoInfo). A dimension k is eligible
// for a reference when EVERY reuse vector of the reference carries
// invariance bit k. Translating the consumer by t·e_k then
//
//   - keeps the recursion shape of every deeper level and every guard
//     (rectAt[k]: nothing mentions I_{k+1});
//   - keeps each vector's replacement-walk verdict AND scan count
//     whenever the common address delta c_k·t is a multiple of the line
//     size: all visited addresses, the consumer's and the producer's
//     shift by the same whole-line amount, so every line identity
//     difference, set-membership relation and distinctness relation in
//     the walk is preserved (the walk only ever compares lines against
//     the consumer's line and set). The translation period is therefore
//     trace.LineWrapPeriod(c_k, LineBytes) — a divisor of the set-wrap
//     period numSets·lineBytes/gcd, and 1 when addresses ignore I_{k+1}
//     entirely (the time loop of a stepped program);
//   - leaves each vector's cold equation unchanged except for the
//     producer-existence bound at depth k itself, which is an interval of
//     idx[k] computed from the producer's depth-k bound pair — the slab
//     decomposition below splits the dimension at those interval
//     boundaries, so the verdict pattern is constant (period-P periodic)
//     within each slab.
//
// Within a slab longer than the period P, the solver classifies the first
// P values (the representatives) and replicates their aggregate outcomes
// onto the remaining values, whatever the meter: under a budget probe
// every classified point is checked and every replicated (or counted)
// region is charged before it is copied (budget.Probe.Charge), and a
// refused charge enumerates the region in order instead. Points are thus
// visited in enumeration order and a single-worker probe trips at the
// first check past a cap, so trip points, degradation decisions and
// partial counts are those of enumeration.

// refSym is the per-reference symbolic-region precomputation.
type refSym struct {
	// The all-cold test's inputs (nil sp: the reference is not analysed).
	sp       *poly.Space
	vecs     []*reuse.Vector
	coldOnce sync.Once
	allCold  bool
	// dims[k] describes depth k when it is eligible for replication.
	dims []*dimSym
	// avoid is the dimension the tiler should keep contiguous (-1: none).
	avoid int
}

// isAllCold reports whether no reuse vector's producer-existence system
// has a solution inside the reference's space: every point is a cold miss
// and a tile resolves by counting alone. It is decided on first use, as
// an empty system can cost a search of the whole space: a solve pays for
// the references it runs, inside its workers, after its probes are armed.
func (s *refSym) isAllCold() bool {
	if s == nil || s.sp == nil {
		return false
	}
	s.coldOnce.Do(func() {
		s.allCold = true
		for _, v := range s.vecs {
			sys, ok := producerSystem(v, s.sp.Depth)
			if !ok || s.sp.CountWith(poly.FullTile(), sys) > 0 {
				s.allCold = false
				return
			}
		}
	})
	return s.allCold
}

// dim returns depth k's replication dimension (nil: none).
func (s *refSym) dim(k int) *dimSym {
	if s == nil || k >= len(s.dims) {
		return nil
	}
	return s.dims[k]
}

// dimSym is one eligible replication dimension of a reference.
type dimSym struct {
	period int64
	// ivs holds, per reuse vector, the producer-existence interval of
	// idx[k] as a pre-shifted affine pair over the prefix idx[0..k-1].
	ivs []ivSpec
}

type ivSpec struct {
	lo, hi ir.Affine
}

// shiftAffine returns a'(idx) = a(idx − D) + add: the same coefficients
// with the displacement folded into the constant.
func shiftAffine(a ir.Affine, D []int64, add int64) ir.Affine {
	out := ir.Affine{Const: a.Const + add, Coeff: append([]int64(nil), a.Coeff...)}
	for d := 1; d <= a.MaxDepthUsed(); d++ {
		if c := a.At(d); c != 0 && d-1 < len(D) {
			out.Const -= c * D[d-1]
		}
	}
	return out
}

// varMinus returns the affine I_{m+1} − a.
func varMinus(m int, a ir.Affine) ir.Affine {
	n := len(a.Coeff)
	if m+1 > n {
		n = m + 1
	}
	co := make([]int64, n)
	for i, c := range a.Coeff {
		co[i] = -c
	}
	co[m]++
	return ir.Affine{Const: -a.Const, Coeff: co}
}

// minusVar returns the affine a − I_{m+1}.
func minusVar(a ir.Affine, m int) ir.Affine {
	n := len(a.Coeff)
	if m+1 > n {
		n = m + 1
	}
	co := make([]int64, n)
	copy(co, a.Coeff)
	co[m]--
	return ir.Affine{Const: a.Const, Coeff: co}
}

// producerSystem renders "the producer point of v exists" as affine
// constraints over the consumer iteration: the producer's bounds and
// guards composed with the displacement idx − IdxDiff. ok = false when
// the system cannot be expressed over the consumer's depth.
func producerSystem(v *reuse.Vector, depth int) ([]ir.NConstraint, bool) {
	p := v.Producer.Stmt
	if p.Depth() != depth {
		return nil, false
	}
	D := v.IdxDiff
	var sys []ir.NConstraint
	for m := 0; m < depth; m++ {
		bl, bh := p.Bounds[m].Lo, p.Bounds[m].Hi
		if bl.MaxDepthUsed() > depth || bh.MaxDepthUsed() > depth {
			return nil, false
		}
		// Lo(idx−D) + D[m] <= idx[m] <= Hi(idx−D) + D[m]
		sys = append(sys,
			ir.NConstraint{Expr: varMinus(m, shiftAffine(bl, D, D[m]))},
			ir.NConstraint{Expr: minusVar(shiftAffine(bh, D, D[m]), m)})
	}
	for _, g := range p.Guards {
		if g.Expr.MaxDepthUsed() > depth {
			return nil, false
		}
		sys = append(sys, ir.NConstraint{Expr: shiftAffine(g.Expr, D, 0), IsEq: g.IsEq})
	}
	return sys, true
}

// buildSymInfo derives the symbolic-region eligibility of every reference
// for one line size. It reads only program structure, reuse vectors and
// the memo invariance masks — never array bases — so, like the memo
// table, one table serves every capacity, associativity and layout that
// shares the line size.
func buildSymInfo(np *ir.NProgram, spaces map[*ir.NStmt]*poly.Space,
	vecs map[*ir.NRef][]*reuse.Vector, memo map[*ir.NRef][]memoInfo,
	dyn map[*ir.NRef][]*reuse.DynamicPair, lineBytes int64) map[*ir.NRef]*refSym {

	out := make(map[*ir.NRef]*refSym, len(np.Refs))
	traits := programTraits(np)
	for _, r := range np.Refs {
		rs := &refSym{avoid: -1}
		out[r] = rs
		if np.Depth == 0 || np.Depth > 64 {
			continue
		}
		if dyn != nil && len(dyn[r]) > 0 {
			// Dynamically generated reuse is not invariance-analysed.
			continue
		}
		sp := spaces[r.Stmt]
		n := sp.Depth
		vs, infos := vecs[r], memo[r]
		rs.sp, rs.vecs = sp, vs
		rs.dims = make([]*dimSym, n)
		blo, bhi, bok := sp.BoundingBox()
		for k := 0; k < n; k++ {
			if !traits.zero[k] && !traits.shared[k] {
				continue
			}
			period := int64(1)
			if traits.coeff[k] != 0 {
				period = trace.LineWrapPeriod(traits.coeff[k], lineBytes)
			}
			if bok && bhi[k]-blo[k]+1 <= period {
				continue // the dimension can never hold more than one period
			}
			ds := &dimSym{period: period, ivs: make([]ivSpec, 0, len(vs))}
			ok := len(vs) > 0
			for i, v := range vs {
				if infos[i].invMask&(1<<k) == 0 {
					ok = false
					break
				}
				p := v.Producer.Stmt
				if p.Depth() != n {
					ok = false
					break
				}
				bl, bh := p.Bounds[k].Lo, p.Bounds[k].Hi
				if bl.MaxDepthUsed() > k || bh.MaxDepthUsed() > k {
					ok = false // the producer's depth-k bound is not outer-only
					break
				}
				D := v.IdxDiff
				ds.ivs = append(ds.ivs, ivSpec{
					lo: shiftAffine(bl, D, D[k]),
					hi: shiftAffine(bh, D, D[k]),
				})
			}
			if ok {
				rs.dims[k] = ds
				if rs.avoid < 0 && period == 1 {
					rs.avoid = k
				}
			}
		}
	}
	return out
}

// symDelta is the aggregate outcome of one representative subtree.
type symDelta struct {
	analyzed, hits, cold, repl int64
}

// symRunFused is one (reference, tile) solve of fusedClassifier.runTile,
// bit-identical to plain enumeration of the same tile. A reference without
// symbolic info (or a solve under Options.NoSymbolic) is the case where no
// dimension replicates: the recursion enumerates every point. The line
// size (and hence every period and every slab) is shared across the fuse
// group, so one slab decomposition replicates every candidate's
// aggregates at once.
type symRunFused struct {
	fc    *fusedClassifier
	r     *ir.NRef
	sym   *refSym // nil: enumerate
	sp    *poly.Space
	t     poly.Tile
	parts []RefReport
	pb    *budget.Probe // nil on an unlimited meter
	err   error         // the probe's trip, which stops the tile
	idx   []int64
	nRep  int64 // replicated points per candidate
	scan  int64 // logical scan work of the points run so far, summed over candidates

	cuts   [][]int64
	deltas [][]symDelta // per depth: P * len(parts) deltas, row-major
}

// countCold resolves an all-cold tile by counting alone, charging its
// points (cold misses scan nothing); false leaves the tile to enumerate.
func (s *symRunFused) countCold() bool {
	if !s.sym.isAllCold() {
		return false
	}
	cnt := s.sp.CountTile(s.t)
	if !s.pb.Charge(cnt*int64(len(s.parts)), 0) {
		return false
	}
	for i := range s.parts {
		s.parts[i].Analyzed += cnt
		s.parts[i].Cold += cnt
	}
	s.nRep = cnt
	return true
}

func (s *symRunFused) run(k int) bool {
	if k == s.sp.Depth {
		scanned, _ := s.fc.classifyFused(s.r, s.idx, s.parts)
		s.scan += scanned
		if s.pb != nil {
			s.err = s.pb.Check(int64(len(s.parts)), scanned)
		}
		return s.err == nil
	}
	lo, hi, ok := s.sp.RangeAt(k, s.idx)
	if !ok {
		return true
	}
	if k == s.t.Dim {
		if s.t.Lo > lo {
			lo = s.t.Lo
		}
		if s.t.Hi < hi {
			hi = s.t.Hi
		}
		if lo > hi {
			return true
		}
	}
	d := s.sym.dim(k)
	if d == nil || hi-lo+1 <= d.period {
		return s.enumerate(k, lo, hi)
	}
	// Slab decomposition: cut [lo, hi] where some vector's
	// producer-existence interval opens or closes. Within a slab every
	// vector's existence status is constant along the dimension, so
	// verdicts repeat with the dimension's period.
	cuts := s.cuts[k][:0]
	for _, iv := range d.ivs {
		a := iv.lo.Eval(s.idx)
		b := iv.hi.Eval(s.idx) + 1
		if a > lo && a <= hi {
			cuts = append(cuts, a)
		}
		if b > lo && b <= hi {
			cuts = append(cuts, b)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	w := 0
	for i, c := range cuts {
		if i == 0 || c != cuts[w-1] {
			cuts[w] = c
			w++
		}
	}
	cuts = cuts[:w]
	s.cuts[k] = cuts
	start := lo
	for ci := 0; ci <= len(cuts); ci++ {
		end := hi
		if ci < len(cuts) {
			end = cuts[ci] - 1
		}
		if !s.runSlab(k, d, start, end) {
			return false
		}
		start = end + 1
		cuts = s.cuts[k]
	}
	return true
}

// enumerate runs depth k's values lo..hi one by one.
func (s *symRunFused) enumerate(k int, lo, hi int64) bool {
	for v := lo; v <= hi; v++ {
		s.idx[k] = v
		if !s.run(k + 1) {
			return false
		}
	}
	return true
}

func (s *symRunFused) runSlab(k int, d *dimSym, lo, hi int64) bool {
	n := hi - lo + 1
	P := d.period
	if n <= P {
		return s.enumerate(k, lo, hi)
	}
	nc := int64(len(s.parts))
	dl := s.deltas[k]
	if int64(cap(dl)) < P*nc {
		dl = make([]symDelta, P*nc)
	} else {
		dl = dl[:P*nc]
	}
	s.deltas[k] = dl
	// points and scan accumulate the remainder lo+P..hi's volume: each
	// representative's outcome repeats (n-1-j)/P more times.
	var points, scan int64
	for j := int64(0); j < P; j++ {
		row := dl[j*nc : (j+1)*nc]
		for i := range s.parts {
			row[i] = symDelta{s.parts[i].Analyzed, s.parts[i].Hits, s.parts[i].Cold, s.parts[i].Repl}
		}
		scan0 := s.scan
		s.idx[k] = lo + j
		if !s.run(k + 1) {
			return false
		}
		extra := (n - 1 - j) / P
		for i := range s.parts {
			row[i] = symDelta{
				analyzed: s.parts[i].Analyzed - row[i].analyzed,
				hits:     s.parts[i].Hits - row[i].hits,
				cold:     s.parts[i].Cold - row[i].cold,
				repl:     s.parts[i].Repl - row[i].repl,
			}
			points += extra * row[i].analyzed
		}
		scan += extra * (s.scan - scan0)
	}
	// Charge the remainder whole, or enumerate it when the meter refuses.
	if !s.pb.Charge(points, scan) {
		return s.enumerate(k, lo+P, hi)
	}
	for j := int64(0); j < P; j++ {
		extra := (n - 1 - j) / P
		if extra == 0 {
			continue
		}
		row := dl[j*nc : (j+1)*nc]
		for i := range s.parts {
			s.parts[i].Analyzed += extra * row[i].analyzed
			s.parts[i].Hits += extra * row[i].hits
			s.parts[i].Cold += extra * row[i].cold
			s.parts[i].Repl += extra * row[i].repl
		}
		s.nRep += extra * row[0].analyzed
	}
	s.scan += scan
	return true
}
