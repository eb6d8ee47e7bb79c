package cme

import (
	"context"
	"fmt"
	"sort"

	"cachemodel/internal/budget"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
)

// Geometry-parametric sweeps: closed-form miss counts in the number of
// sets (the AxisSets side of the closed-form engine in closed.go).
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
//   - Fit rung: within the stable region the geomAnchors cheapest stable
//     members anchor one degree-0 fit per reference (fitCounts: one fit
//     anchor plus closedHoldouts holdouts that must reproduce exactly),
//     and every evaluation must pass the count identities. Any failure
//     refuses the (member, ref) pair, which falls through to the fused
//     enumerating solver — a refusal costs extra work, never a wrong
//     count.
//
// Members at or below the span (where counts genuinely vary with S in a
// way no low-degree polynomial captures) are never claimed: they solve
// through the ordinary fused path, with provenance saying why. The tier
// runs only for exact batches. Plain deadline/point/scan budgets keep it
// eligible — an anchor the budget cuts short fails the census check, so
// its column falls through per reference to the ordinary degradation
// ladder, and closed-form fills cost the meter nothing — but fault-hooked
// budgets and NoSymbolic disable it (both force enumeration for
// fault-parity and equivalence testing).

// DefaultGeomMinColumn is the smallest sweep column (same line size and
// associativity, distinct set counts) the geometry-parametric tier will
// claim: below it the anchors cover everything and closed-form evaluation
// gains nothing. Work partitioners (internal/dist) use it to decide when
// keeping a column together in one solve is worth the coarser stealing
// granularity.
const DefaultGeomMinColumn = 4

// geomDegree is the fitted degree in NumSets: inside the certified stable
// region every counter is constant, so one degree-0 fit per reference
// (residue period 1) suffices, and a column needs geomAnchors anchors.
const (
	geomDegree  = 0
	geomAnchors = geomDegree + 1 + closedHoldouts
)

// geomColumn is one planned column: the candidates of a layout group that
// share line size and associativity, ordered by ascending set count.
type geomColumn struct {
	span int64 // footprint span bound in lines (-1: none computable)

	anchors  []*batchCand // stable members the fused pass solves
	deferred []*batchCand // stable members answered in closed form
	other    []*batchCand // unstable members: ordinary fused path

	// cleared[cs][ri] marks the refs this plan removed from cs.need so the
	// fused pass skips them; exactly these are filled (or restored on
	// refusal) by finishGeom.
	cleared map[*batchCand][]bool

	// pureCold[ri] marks references the pure-cold rung answers for every
	// member; the fit rung answers the others for the deferred members.
	pureCold []bool
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
func (p *Prepared) planGeom(states []*batchCand) []*geomColumn {
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
	var plan []*geomColumn
	for _, k := range order {
		members := cols[k]
		if len(members) < DefaultGeomMinColumn {
			continue
		}
		sorted := append([]*batchCand(nil), members...)
		sort.Slice(sorted, func(i, j int) bool { return numSetsOf(sorted[i]) < numSetsOf(sorted[j]) })
		if col := p.planColumn(k.lineBytes, sorted); col != nil {
			plan = append(plan, col)
		}
	}
	return plan
}

// planColumn builds one column's plan (nil when nothing can be claimed).
// members arrive sorted by ascending set count, so anchors are the
// cheapest stable solves.
func (p *Prepared) planColumn(lineBytes int64, members []*batchCand) *geomColumn {
	col := &geomColumn{
		span:     p.footprintSpanLines(lineBytes),
		cleared:  map[*batchCand][]bool{},
		pureCold: make([]bool, len(p.np.Refs)),
	}
	sym := p.lineState(lineBytes).sym
	anyPureCold := false
	for ri, r := range p.np.Refs {
		if s := sym[r]; s != nil && s.allCold && p.spaces[r.Stmt].Volume() > 0 {
			col.pureCold[ri] = true
			anyPureCold = true
		}
	}

	// Partition members: the first geomAnchors stable members anchor and
	// the rest defer to closed form.
	for _, cs := range members {
		switch s := numSetsOf(cs); {
		case col.span < 0 || s <= col.span:
			col.other = append(col.other, cs)
		case len(col.anchors) < geomAnchors:
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
		targets := col.deferred
		if col.pureCold[ri] {
			targets = members
		}
		for _, cs := range targets {
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

// finishGeom completes the tier after the fused pass: it fills the
// pure-cold and fitted rungs' reports, restores and re-solves every
// refusal through the ordinary fused path, and stamps per-candidate
// provenance. serr is the fused pass's outcome; on a pool error
// (cancellation, panic) the deferred reports are left incomplete
// (coherent partial results), exactly like an interrupted enumeration.
// Budget exhaustion (m.Err with a clean pool) still fills: closed-form
// evaluation costs the meter nothing, and an anchor the budget cut
// short fails the census check, so its column's deferred refs fall
// through per reference and rejoin the ordinary degradation ladder.
func (p *Prepared) finishGeom(ctx context.Context, m *budget.Meter, col *obs.Collector, workers int, plan []*geomColumn, serr error) error {
	if serr != nil {
		return serr
	}
	var resolve []*batchCand
	resolveSeen := map[*batchCand]bool{}
	for _, gc := range plan {
		refused := p.fillColumn(gc)
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
func (p *Prepared) fillColumn(col *geomColumn) map[*batchCand][]bool {
	stats := map[*batchCand]*ClosedInfo{}
	info := func(cs *batchCand) *ClosedInfo {
		gi := stats[cs]
		if gi == nil {
			gi = &ClosedInfo{Axis: AxisSets, Param: numSetsOf(cs),
				Period: 1, Degree: geomDegree, TotalRefs: len(p.np.Refs)}
			stats[cs] = gi
			cs.rep.Geom = gi
		}
		return gi
	}
	refused := map[*batchCand][]bool{}
	refuse := func(cs *batchCand, ri int) {
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
	for _, group := range [][]*batchCand{col.anchors, col.deferred, col.other} {
		for _, cs := range group {
			cl := col.cleared[cs]
			if cl == nil {
				continue
			}
			for ri := range p.np.Refs {
				if !col.pureCold[ri] || !cl[ri] {
					continue
				}
				rr := cs.rep.Refs[ri]
				fillClosed(rr, pureColdCounts(rr.Volume))
				gi := info(cs)
				gi.ClosedRefs++
				gi.PureColdRefs++
				mGeomEvals.Inc()
				mGeomPureCold.Inc()
			}
		}
	}

	// Fit rung, one fit per reference over the anchors, built on first use.
	for ri := range p.np.Refs {
		if col.pureCold[ri] {
			continue
		}
		var fit *countFit
		fitted := false
		for _, cs := range col.deferred {
			if cl := col.cleared[cs]; cl == nil || !cl[ri] {
				continue
			}
			if !fitted {
				fitted = true
				if fit = anchorFit(col.anchors, ri); fit != nil {
					mGeomFits.Inc()
				}
			}
			if fit == nil {
				refuse(cs, ri)
				continue
			}
			rr := cs.rep.Refs[ri]
			c, ok := fit.at(numSetsOf(cs), rr.Volume)
			if !ok {
				refuse(cs, ri)
				continue
			}
			fillClosed(rr, c)
			info(cs).ClosedRefs++
			mGeomEvals.Inc()
		}
	}
	return refused
}

// anchorFit fits reference ri over the anchors' censuses (nil when an
// anchor's census is not exact or the fit fails its holdouts).
func anchorFit(anchors []*batchCand, ri int) *countFit {
	samples := make([]countSample, 0, len(anchors))
	for _, cs := range anchors {
		rr := cs.rep.Refs[ri]
		if !exactCensus(rr) {
			return nil
		}
		samples = append(samples, countSample{x: numSetsOf(cs), c: countsOf(rr)})
	}
	fit, err := fitCounts(geomDegree, samples)
	if err != nil {
		return nil
	}
	return fit
}
