package cme

import (
	"fmt"
	"sort"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
)

// Geometry sweeps: the set-count tier (the AxisSets side of closed.go).
//
// The replacement equations see the cache geometry through exactly two
// quantities: the line size, which shapes reuse vectors and cold
// equations, and the set-mapping residue line mod NumSets. Two distinct
// memory lines can contend for a set only if NumSets divides their
// difference, i.e. only if they lie at least NumSets lines apart. Once
// NumSets exceeds the program's footprint span in lines
// (footprintSpanLines), no two distinct touched lines ever share a set,
// so no replacement walk meets a contending line at any associativity:
// every access whose cold equation holds is a hit, and the counts are
// the line size's cold-only census, whatever the capacity or
// associativity. This certificate is the whole tier:
//
//   - Stable class: within a layout group, every candidate of one line
//     size with NumSets above the span. The first stable member in
//     candidate order is the class's only anchor: it solves through the
//     fused pass, and every other stable member copies its per-reference
//     counts. A copy is made only from an exact census (exactCensus);
//     otherwise the (member, ref) pair is refused and falls through to
//     the fused enumerating solver — a refusal costs extra work, never a
//     wrong count.
//
//   - Pure-cold rung: a reference with no feasible reuse producer
//     (refSym.isAllCold, a line-size-only property) is all cold misses at
//     every geometry of the line size, stable or not. Zero solves.
//
// Members at or below the span, where counts genuinely vary with the
// geometry, solve through the ordinary fused path, with provenance
// saying why. A line size is planned only when it has at least two
// members, since a lone candidate has nothing to share. The tier runs
// only for exact batches. Plain deadline/point/scan budgets keep it
// eligible — an anchor the budget cuts short fails the census check, so
// its class falls through per reference to the ordinary degradation
// ladder, and copies cost the meter nothing — but fault-hooked budgets
// and NoSymbolic disable it (both force enumeration for fault-parity and
// equivalence testing).

// geomClass is one planned line size of a layout group.
type geomClass struct {
	span    int64        // footprint span bound in lines (-1: none computable)
	members []*batchCand // the line size's candidates, in candidate order

	// anchor is the first stable member: the fused pass solves it, and
	// the other stable members copy it. Unstable members take the
	// ordinary fused path.
	anchor *batchCand

	// cleared[cs][ri] marks the refs this plan removed from cs.need so the
	// fused pass skips them; exactly these are filled (or restored on
	// refusal) by finishGeom.
	cleared map[*batchCand][]bool

	// pureCold[ri] marks references the pure-cold rung answers for every
	// member; the anchor answers the others for the stable members.
	pureCold []bool
}

// stable reports whether the certificate covers cs: more sets than the
// footprint span in lines.
func (gc *geomClass) stable(cs *batchCand) bool { return gc.span >= 0 && cs.a.numSets > gc.span }

// planGeom partitions a layout group's candidates by line size and plans
// each line size with at least two members. It clears the (member, ref)
// pairs the tier will answer from the need masks so the fused pass skips
// them. nil means the tier has nothing to contribute to this group.
func (p *Prepared) planGeom(states []*batchCand) []*geomClass {
	byLine := map[int64][]*batchCand{}
	var order []int64
	for _, cs := range states {
		lb := cs.a.cfg.LineBytes
		if _, ok := byLine[lb]; !ok {
			order = append(order, lb)
		}
		byLine[lb] = append(byLine[lb], cs)
	}
	var plan []*geomClass
	for _, lb := range order {
		if members := byLine[lb]; len(members) >= 2 {
			if gc := p.planClass(lb, members); gc != nil {
				plan = append(plan, gc)
			}
		}
	}
	return plan
}

// planClass builds one line size's plan (nil when nothing can be
// claimed). members arrive in candidate order.
func (p *Prepared) planClass(lineBytes int64, members []*batchCand) *geomClass {
	gc := &geomClass{
		span:     p.footprintSpanLines(lineBytes),
		members:  members,
		cleared:  map[*batchCand][]bool{},
		pureCold: make([]bool, len(p.np.Refs)),
	}
	sym := p.symInfo(p.lineState(lineBytes))
	anyPureCold := false
	for ri, r := range p.np.Refs {
		if s := sym[r]; s.isAllCold() && p.spaces[r.Stmt].Volume() > 0 {
			gc.pureCold[ri] = true
			anyPureCold = true
		}
	}
	var stable []*batchCand // stable members other than the anchor
	for _, cs := range members {
		switch {
		case !gc.stable(cs):
		case gc.anchor == nil:
			gc.anchor = cs
		default:
			stable = append(stable, cs)
		}
	}
	if len(stable) == 0 && !anyPureCold {
		return nil
	}

	// Pure-cold references clear for every member (the rung holds at every
	// geometry of the line size); the others clear only for the stable
	// members the anchor answers.
	for ri := range p.np.Refs {
		targets := stable
		if gc.pureCold[ri] {
			targets = members
		}
		for _, cs := range targets {
			cs.need[ri] = false
			cl := gc.cleared[cs]
			if cl == nil {
				cl = make([]bool, len(p.np.Refs))
				gc.cleared[cs] = cl
			}
			cl[ri] = true
		}
	}
	if gc.anchor != nil {
		mGeomAnchors.Inc()
	}
	return gc
}

// footprintSpanLines bounds the program's footprint span in memory lines
// under the current layout: the difference between the largest and
// smallest line index (cache.LineOf, the fused walk's floor) any
// reference can touch. Every candidate with more sets than this span is
// interference-free (two distinct lines contend only when at least
// NumSets lines apart). Returns -1 when no finite bound exists.
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
	return cache.LineOf(maxA, lineBytes) - cache.LineOf(minA, lineBytes)
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
// pure-cold rung and the stable members' copies of their anchor, restores
// and re-solves every refusal through the ordinary fused path, and stamps
// per-candidate provenance. A tripped meter (a cap, a deadline,
// cancellation, a panic) still fills: copies cost the meter nothing, and
// an anchor the meter cut short fails the census check, so its class's
// stable refs fall through per reference and are left to the ordinary
// degradation ladder (or, after cancellation, incomplete).
func (p *Prepared) finishGeom(m *budget.Meter, col *obs.Collector, workers int, plan []*geomClass) {
	var resolve []*batchCand
	for _, gc := range plan {
		resolve = append(resolve, p.fillClass(gc)...)
	}
	if len(resolve) > 0 && m.Err() == nil {
		// Fall-through: the refused (member, ref) pairs run the ordinary
		// fused enumerating solver — need masks now select exactly them.
		sort.Slice(resolve, func(i, j int) bool { return resolve[i].ci < resolve[j].ci })
		p.solveExactFused(m, col, "solve.batch", resolve, workers)
	}
}

// fillClass stamps one class's provenance and answers its cleared
// references. A refused reference is restored to its member's need mask;
// the members with any refusal are returned.
func (p *Prepared) fillClass(gc *geomClass) []*batchCand {
	var refused []*batchCand
	for _, cs := range gc.members {
		gi := &ClosedInfo{Axis: AxisSets, Param: cs.a.numSets, Period: 1, TotalRefs: len(p.np.Refs)}
		switch {
		case cs == gc.anchor:
			gi.Anchor, gi.Why = true, "anchor"
		case gc.span < 0:
			gi.Why = "no finite footprint bound"
		case !gc.stable(cs):
			gi.Why = fmt.Sprintf("unstable: %d sets <= span %d lines", cs.a.numSets, gc.span)
		}
		cs.rep.Geom = gi
		bad := false
		for ri, c := range gc.cleared[cs] {
			if !c {
				continue
			}
			rr := cs.rep.Refs[ri]
			switch {
			case gc.pureCold[ri]:
				fillClosed(rr, pureColdCounts(rr.Volume))
				gi.PureColdRefs++
				mGeomPureCold.Inc()
			case exactCensus(gc.anchor.rep.Refs[ri]):
				// Only stable members clear a reference that is not pure
				// cold, so the class has an anchor.
				fillClosed(rr, countsOf(gc.anchor.rep.Refs[ri]))
			default:
				cs.need[ri] = true
				gi.FallthroughRefs++
				mGeomFallbacks.Inc()
				bad = true
				continue
			}
			gi.ClosedRefs++
			mGeomEvals.Inc()
		}
		if bad {
			refused = append(refused, cs)
		}
	}
	return refused
}
