package cme

import (
	"context"
	"fmt"
	"sort"

	"cachemodel/internal/budget"
	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/obs"
	"cachemodel/internal/qpoly"
)

// Geometry-parametric sweeps: closed-form miss counts in the number of
// sets.
//
// The replacement equations see the cache geometry through exactly two
// quantities: the line size (which shapes reuse vectors and cold
// equations) and the set-mapping residue line mod NumSets. Within a sweep
// column — candidates of one layout group sharing LineBytes and Assoc,
// differing only in capacity — only NumSets varies, so the per-reference
// miss counts are functions of S = NumSets alone. This tier answers most
// of a column from a handful of anchor solves:
//
//   - Pure-cold rung: a reference with no feasible reuse producer
//     (refSym.allCold, a line-size-only property) is all cold misses at
//     every S. Zero anchor solves.
//
//   - Stable-region certificate: two distinct memory lines can contend
//     for a set only if S divides their difference, i.e. only if they lie
//     at least S lines apart. Once S exceeds the program's footprint span
//     in lines (footprintSpanLines), no two distinct touched lines ever
//     share a set: every replacement walk ends the same way and scans the
//     same logical interval — the whole interval under PaperLRU, the
//     suffix back to the reused line under exact LRU — at every such S.
//     All counts are therefore provably constant over S > span, and the
//     fit below runs only inside this certified region, so its claims are
//     sound rather than merely spot-checked.
//
//   - Per-residue fit rung: within the stable region the anchor counts of
//     each residue class S mod Period are fitted to a degree-Degree
//     polynomial (qpoly.FitPoly over exact rationals), the remaining
//     anchors are held out and must reproduce exactly, and every
//     evaluation must pass the count identities (integral, non-negative,
//     hits+cold+repl == volume). Any failure refuses the (member, ref)
//     pair, which falls through to the fused enumerating solver — a
//     refusal costs extra work, never a wrong count.
//
// Members at or below the span (where counts genuinely vary with S in a
// way no low-degree polynomial captures) are never claimed: they solve
// through the ordinary fused path, with provenance saying why. The tier
// runs only for exact batches. Plain deadline/point/scan budgets keep it
// eligible — an anchor the budget cuts short fails the fit's census
// check, so its column falls through per reference to the ordinary
// degradation ladder, and closed-form fills cost the meter nothing —
// but fault-hooked budgets and NoSymbolic disable it (both force
// enumeration for fault-parity and equivalence testing).

// GeomOptions tunes the geometry-parametric tier of SolveBatch. The zero
// value picks everything automatically.
type GeomOptions struct {
	// Period is the residue period in NumSets (default 1: inside the
	// stable region counts are constant, so one class suffices).
	Period int64
	// Degree is the fitted polynomial degree per residue class (default 0).
	Degree int
	// Verify is the number of holdout anchor solves per residue class that
	// the fit must reproduce exactly (default 2).
	Verify int
	// MinColumn is the smallest column (same line size and associativity,
	// distinct set counts) worth planning (default DefaultGeomMinColumn:
	// below that the anchors cover everything and closed-form evaluation
	// gains nothing).
	MinColumn int
}

// DefaultGeomMinColumn is the default GeomOptions.MinColumn: the smallest
// sweep column the geometry-parametric tier will claim. Work partitioners
// (internal/dist) use it to decide when keeping a column together in one
// solve is worth the coarser stealing granularity.
const DefaultGeomMinColumn = 4

func (o GeomOptions) withDefaults() GeomOptions {
	if o.Period <= 0 {
		o.Period = 1
	}
	if o.Degree < 0 {
		o.Degree = 0
	}
	if o.Verify <= 0 {
		o.Verify = 2
	}
	if o.MinColumn <= 0 {
		o.MinColumn = DefaultGeomMinColumn
	}
	return o
}

// anchorsPerClass is how many stable members of one residue class the
// fused path must solve before the rest of the class can be claimed.
func (o GeomOptions) anchorsPerClass() int { return o.Degree + 1 + o.Verify }

// GeomInfo is the geometry-parametric tier's provenance for one sweep
// candidate, mirroring ScalingInfo for the problem-size axis.
type GeomInfo struct {
	// NumSets is this candidate's set count, the tier's free parameter.
	NumSets int64 `json:"num_sets"`
	// SpanLines is the program footprint span bound in lines under the
	// candidate's layout and line size (-1: no finite bound); Stable
	// reports NumSets > SpanLines, the no-interference certificate.
	SpanLines int64 `json:"span_lines"`
	Stable    bool  `json:"stable"`
	// Anchor marks a member the fused solver solved to feed the fits.
	Anchor bool `json:"anchor,omitempty"`
	// ClosedRefs counts references answered by O(1) evaluation (including
	// PureColdRefs, the rung that needs no anchors at all);
	// FallthroughRefs counts references the tier claimed but refused, so
	// they re-solved through the fused enumerating path.
	ClosedRefs      int `json:"closed_refs"`
	PureColdRefs    int `json:"pure_cold_refs,omitempty"`
	FallthroughRefs int `json:"fallthrough_refs,omitempty"`
	TotalRefs       int `json:"total_refs"`
	// Period and Degree describe the fitted shape.
	Period int64 `json:"period"`
	Degree int   `json:"degree"`
	// Why says why the fit rung did not cover this member (anchors and
	// unstable members; empty for members answered in closed form).
	Why string `json:"why,omitempty"`
}

// Closed reports that every reference of the candidate came from the
// closed form.
func (g *GeomInfo) Closed() bool {
	return g != nil && !g.Anchor && g.TotalRefs > 0 && g.ClosedRefs == g.TotalRefs
}

// geomColumn is one planned column: the candidates of a layout group that
// share line size and associativity, ordered by ascending set count.
type geomColumn struct {
	lineBytes int64
	assoc     int
	span      int64 // footprint span bound in lines (-1: none computable)

	anchors  []*batchCand // stable members the fused pass solves
	deferred []*batchCand // stable members answered in closed form
	other    []*batchCand // unstable members: ordinary fused path

	// cleared[cs][ri] marks the refs this plan removed from cs.need so the
	// fused pass skips them; exactly these are filled (or restored on
	// refusal) by finishGeom.
	cleared map[*batchCand][]bool

	// pureCold[ri] marks references the pure-cold rung answers for every
	// member; fit[ri] marks references the fit rung must answer for the
	// deferred members.
	pureCold []bool
	fit      []bool
}

// geomPlan is the per-layout-group plan of the geometry-parametric tier.
type geomPlan struct {
	opt     GeomOptions
	columns []*geomColumn
}

// numSetsOf is the candidate's cache.Config.NumSets.
func numSetsOf(cs *batchCand) int64 {
	cfg := cs.a.cfg
	return cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
}

// planGeom partitions a layout group's candidates into geometry columns
// and decides, per column, which members anchor, which defer to closed
// form, and which references each rung covers. It clears the deferred
// (member, ref) pairs from the need masks so the fused pass skips them.
// nil means the tier has nothing to contribute to this group.
func (p *Prepared) planGeom(states []*batchCand, gopt GeomOptions) *geomPlan {
	gopt = gopt.withDefaults()
	type colKey struct {
		lineBytes int64
		assoc     int
	}
	cols := map[colKey][]*batchCand{}
	var order []colKey
	for _, cs := range states {
		k := colKey{cs.a.cfg.LineBytes, cs.a.cfg.Assoc}
		if _, ok := cols[k]; !ok {
			order = append(order, k)
		}
		cols[k] = append(cols[k], cs)
	}
	plan := &geomPlan{opt: gopt}
	for _, k := range order {
		members := cols[k]
		if len(members) < gopt.MinColumn {
			continue
		}
		sorted := append([]*batchCand(nil), members...)
		sort.Slice(sorted, func(i, j int) bool { return numSetsOf(sorted[i]) < numSetsOf(sorted[j]) })
		if col := p.planColumn(k.lineBytes, k.assoc, sorted, gopt); col != nil {
			plan.columns = append(plan.columns, col)
		}
	}
	if len(plan.columns) == 0 {
		return nil
	}
	return plan
}

// planColumn builds one column's plan (nil when nothing can be claimed).
// members arrive sorted by ascending set count, so anchors are the
// cheapest stable solves of each residue class.
func (p *Prepared) planColumn(lineBytes int64, assoc int, members []*batchCand, gopt GeomOptions) *geomColumn {
	col := &geomColumn{lineBytes: lineBytes, assoc: assoc,
		span:     p.footprintSpanLines(lineBytes),
		cleared:  map[*batchCand][]bool{},
		pureCold: make([]bool, len(p.np.Refs)),
		fit:      make([]bool, len(p.np.Refs)),
	}
	sym := p.lineState(lineBytes).sym
	anyPureCold := false
	for ri, r := range p.np.Refs {
		if s := sym[r]; s != nil && s.allCold && p.spaces[r.Stmt].Volume() > 0 {
			col.pureCold[ri] = true
			anyPureCold = true
		}
	}

	// Partition members: per residue class, the first anchorsPerClass
	// stable members anchor and the rest defer to closed form.
	need := gopt.anchorsPerClass()
	classCount := map[int64]int{}
	for _, cs := range members {
		s := numSetsOf(cs)
		switch {
		case col.span < 0 || s <= col.span:
			col.other = append(col.other, cs)
		case classCount[mod64(s, gopt.Period)] < need:
			classCount[mod64(s, gopt.Period)]++
			col.anchors = append(col.anchors, cs)
		default:
			col.deferred = append(col.deferred, cs)
		}
	}
	if len(col.deferred) == 0 && !anyPureCold {
		return nil
	}

	// Clear the rungs' (member, ref) pairs from the need masks. Pure-cold
	// references clear for every member (the rung is S-independent); fit
	// references clear only for deferred members.
	clear := func(cs *batchCand, ri int) {
		if !cs.need[ri] {
			return // the result cache already answered it
		}
		cs.need[ri] = false
		cl := col.cleared[cs]
		if cl == nil {
			cl = make([]bool, len(p.np.Refs))
			col.cleared[cs] = cl
		}
		cl[ri] = true
	}
	for ri := range p.np.Refs {
		if col.pureCold[ri] {
			for _, cs := range members {
				clear(cs, ri)
			}
			continue
		}
		for _, cs := range col.deferred {
			col.fit[ri] = true
			clear(cs, ri)
		}
	}
	if len(col.cleared) == 0 {
		return nil // everything was already cache-filled
	}
	mGeomAnchors.Add(int64(len(col.anchors)))
	return col
}

// footprintSpanLines bounds the program's footprint span in memory lines
// under the current layout: the difference between the largest and
// smallest line index any reference can touch. Every candidate with more
// sets than this span is interference-free (two distinct lines contend
// only when at least NumSets lines apart). Returns -1 when no finite
// bound exists.
func (p *Prepared) footprintSpanLines(lineBytes int64) int64 {
	minA, maxA := int64(0), int64(0)
	seen := false
	for _, r := range p.np.Refs {
		sp := p.spaces[r.Stmt]
		if sp.Volume() == 0 {
			continue // touches nothing
		}
		lo, hi, ok := sp.BoundingBox()
		if !ok {
			return -1
		}
		aff := r.AddressAffine()
		if aff.MaxDepthUsed() > len(lo) {
			return -1 // address uses a loop the space does not bound
		}
		a, b := affineRange(aff, lo, hi)
		if !seen || a < minA {
			minA = a
		}
		if !seen || b > maxA {
			maxA = b
		}
		seen = true
	}
	if !seen {
		return -1
	}
	return maxA/lineBytes - minA/lineBytes
}

// affineRange returns the minimum and maximum of an affine form over the
// box lo..hi (inclusive), the standard interval evaluation.
func affineRange(aff ir.Affine, lo, hi []int64) (int64, int64) {
	a, b := aff.Const, aff.Const
	for k := 1; k <= len(lo); k++ {
		c := aff.At(k)
		if c == 0 {
			continue
		}
		x, y := c*lo[k-1], c*hi[k-1]
		if x > y {
			x, y = y, x
		}
		a += x
		b += y
	}
	return a, b
}

// geomSample is one reference's anchor counts at one set count.
type geomSample struct {
	s                int64
	hits, cold, repl int64
}

// finishGeom completes the tier after the fused pass: it fills the
// pure-cold and fitted rungs' reports, restores and re-solves every
// refusal through the ordinary fused path, and stamps per-candidate
// provenance. serr is the fused pass's outcome; on a pool error
// (cancellation, panic) the deferred reports are left incomplete
// (coherent partial results), exactly like an interrupted enumeration.
// Budget exhaustion (m.Err with a clean pool) still fills: closed-form
// evaluation costs the meter nothing, and an anchor the budget cut
// short fails the fit's census check, so its column's deferred refs
// fall through per reference and rejoin the ordinary degradation
// ladder.
func (p *Prepared) finishGeom(ctx context.Context, m *budget.Meter, col *obs.Collector, workers int, gp *geomPlan, serr error) error {
	if serr != nil {
		return serr
	}
	var resolve []*batchCand
	resolveSeen := map[*batchCand]bool{}
	for _, gc := range gp.columns {
		refused := p.fillColumn(gc, gp.opt)
		for cs, refs := range refused {
			for ri, bad := range refs {
				if !bad {
					continue
				}
				cs.need[ri] = true
				if !resolveSeen[cs] {
					resolveSeen[cs] = true
					resolve = append(resolve, cs)
				}
			}
		}
	}
	if len(resolve) > 0 && m.Err() == nil {
		// Fall-through: the refused (member, ref) pairs run the ordinary
		// fused enumerating solver — need masks now select exactly them.
		sort.Slice(resolve, func(i, j int) bool { return resolve[i].ci < resolve[j].ci })
		return p.solveExactFused(ctx, m, col, "solve.batch", resolve, workers)
	}
	return nil
}

// fillColumn evaluates one column's rungs and returns the refused
// (member → per-ref) masks (empty when everything claimed held).
func (p *Prepared) fillColumn(col *geomColumn, gopt GeomOptions) map[*batchCand][]bool {
	stats := map[*batchCand]*GeomInfo{}
	info := func(cs *batchCand) *GeomInfo {
		gi := stats[cs]
		if gi == nil {
			s := numSetsOf(cs)
			gi = &GeomInfo{NumSets: s, SpanLines: col.span,
				Stable: col.span >= 0 && s > col.span,
				Period: gopt.Period, Degree: gopt.Degree,
				TotalRefs: len(p.np.Refs)}
			stats[cs] = gi
			cs.rep.Geom = gi
		}
		return gi
	}
	refused := map[*batchCand][]bool{}
	refuse := func(cs *batchCand, ri int) {
		cl := col.cleared[cs]
		if cl == nil || !cl[ri] {
			return
		}
		m := refused[cs]
		if m == nil {
			m = make([]bool, len(p.np.Refs))
			refused[cs] = m
		}
		m[ri] = true
		info(cs).FallthroughRefs++
		mGeomFallbacks.Inc()
	}
	for _, cs := range col.anchors {
		info(cs).Anchor = true
		info(cs).Why = "anchor"
	}
	for _, cs := range col.other {
		if col.span < 0 {
			info(cs).Why = "no finite footprint bound"
		} else {
			info(cs).Why = fmt.Sprintf("unstable: %d sets <= span %d lines", numSetsOf(cs), col.span)
		}
	}

	// Pure-cold rung: all cold at every set count, no anchors consumed.
	// Members are visited in plan order so provenance builds
	// deterministically (the fills themselves are independent).
	fillPureCold := func(cs *batchCand) {
		cl := col.cleared[cs]
		if cl == nil {
			return
		}
		for ri := range p.np.Refs {
			if !col.pureCold[ri] || !cl[ri] {
				continue
			}
			rr := cs.rep.Refs[ri]
			rr.Analyzed = rr.Volume
			rr.Hits, rr.Repl = 0, 0
			rr.Cold = rr.Volume
			rr.Tier = TierExact
			rr.Complete = true
			rr.ClosedForm = true
			gi := info(cs)
			gi.ClosedRefs++
			gi.PureColdRefs++
			mGeomEvals.Inc()
			mGeomPureCold.Inc()
		}
	}
	for _, cs := range col.anchors {
		fillPureCold(cs)
	}
	for _, cs := range col.deferred {
		fillPureCold(cs)
	}
	for _, cs := range col.other {
		fillPureCold(cs)
	}

	// Fit rung, per reference over the anchor samples of each class.
	for ri := range p.np.Refs {
		if col.fit[ri] {
			p.fitAndFill(col, gopt, ri, refuse, info)
		}
	}
	return refused
}

// fitAndFill runs the fit rung for one reference: per residue class of
// the deferred set counts, fit the anchors, hold out the rest, and
// evaluate. Refusals route through refuse (fall-through, never a wrong
// count).
func (p *Prepared) fitAndFill(col *geomColumn, gopt GeomOptions, ri int, refuse func(*batchCand, int), info func(*batchCand) *GeomInfo) {
	// Collect anchor samples per residue class. An anchor whose report is
	// not an exact complete census cannot feed a fit.
	classes := map[int64][]geomSample{}
	bad := map[int64]bool{}
	for _, cs := range col.anchors {
		rr := cs.rep.Refs[ri]
		r := mod64(numSetsOf(cs), gopt.Period)
		if !rr.Complete || rr.Tier != TierExact || rr.Sampled || rr.Analyzed != rr.Volume {
			bad[r] = true
			continue
		}
		classes[r] = append(classes[r], geomSample{s: numSetsOf(cs),
			hits: rr.Hits, cold: rr.Cold, repl: rr.Repl})
	}
	fits := map[int64]*geomRefFit{}
	for _, cs := range col.deferred {
		cl := col.cleared[cs]
		if cl == nil || !cl[ri] {
			continue
		}
		r := mod64(numSetsOf(cs), gopt.Period)
		fit, ok := fits[r]
		if !ok {
			if bad[r] {
				fit = &geomRefFit{}
			} else {
				fit = fitClass(gopt, classes[r])
			}
			fits[r] = fit
			if fit.ok {
				mGeomFits.Inc()
			}
		}
		if !fit.ok {
			refuse(cs, ri)
			continue
		}
		rr := cs.rep.Refs[ri]
		hits, cold, repl, ok := fit.eval(numSetsOf(cs), rr.Volume)
		if !ok {
			refuse(cs, ri)
			continue
		}
		rr.Analyzed = rr.Volume
		rr.Hits, rr.Cold, rr.Repl = hits, cold, repl
		rr.Tier = TierExact
		rr.Complete = true
		rr.ClosedForm = true
		info(cs).ClosedRefs++
		mGeomEvals.Inc()
	}
}

// geomRefFit is one (column, reference, residue class) fitted counter set.
type geomRefFit struct {
	ok               bool
	hits, cold, repl []linalg.Rat // power-basis coefficients
}

// fitClass fits one residue class's anchor samples and verifies the
// holdouts. Inside the certified stable region the counts are constant,
// so the default degree-0 fit always holds; the holdout verification is
// defense in depth for non-default shapes.
func fitClass(gopt GeomOptions, samples []geomSample) *geomRefFit {
	needFit := gopt.Degree + 1
	if len(samples) < needFit+gopt.Verify {
		return &geomRefFit{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].s < samples[j].s })
	fitOn, holdout := samples[:needFit], samples[needFit:]
	mk := func(sel func(geomSample) int64) ([]linalg.Rat, bool) {
		in := make([]qpoly.Sample, len(fitOn))
		for i, s := range fitOn {
			in[i] = qpoly.Sample{N: s.s, V: linalg.RatInt(sel(s))}
		}
		coef, err := qpoly.FitPoly(gopt.Degree, in)
		if err != nil {
			return nil, false
		}
		for _, s := range holdout {
			v, ok := evalPolyAt(coef, s.s)
			if !ok || v != sel(s) {
				return nil, false
			}
		}
		return coef, true
	}
	f := &geomRefFit{}
	var ok1, ok2, ok3 bool
	f.hits, ok1 = mk(func(s geomSample) int64 { return s.hits })
	f.cold, ok2 = mk(func(s geomSample) int64 { return s.cold })
	f.repl, ok3 = mk(func(s geomSample) int64 { return s.repl })
	if !ok1 || !ok2 || !ok3 {
		return &geomRefFit{}
	}
	f.ok = true
	return f
}

// eval evaluates the fitted counters at one set count and checks the
// count identities: integral, non-negative, summing to the volume.
func (f *geomRefFit) eval(s, volume int64) (hits, cold, repl int64, ok bool) {
	var k1, k2, k3 bool
	hits, k1 = evalPolyAt(f.hits, s)
	cold, k2 = evalPolyAt(f.cold, s)
	repl, k3 = evalPolyAt(f.repl, s)
	if !k1 || !k2 || !k3 || hits < 0 || cold < 0 || repl < 0 || hits+cold+repl != volume {
		return 0, 0, 0, false
	}
	return hits, cold, repl, true
}

// evalPolyAt evaluates power-basis rational coefficients at n, requiring
// an integral result.
func evalPolyAt(coef []linalg.Rat, n int64) (int64, bool) {
	acc := linalg.RatInt(0)
	x := linalg.RatInt(n)
	for i := len(coef) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(coef[i])
	}
	return acc.Int()
}
