package cme

import (
	"fmt"

	"cachemodel/internal/linalg"
	"cachemodel/internal/qpoly"
)

// The closed-form engine shared by the two parameter tiers: the
// problem-size tier (scaling.go, parameter N) and the set-count tier
// (geom.go, parameter NumSets). Each tier decides for itself which
// references are eligible and which parameter values anchor a fit; the
// protocol from there on is the same and lives here:
//
//  1. Census: only a complete, exact, unsampled report whose Analyzed
//     equals its Volume may anchor a fit (exactCensus).
//  2. Fit: the four counters analyzed/hits/cold/repl of one reference are
//     interpolated exactly over linalg.Rat by qpoly.FitPoly through the
//     first deg+1 anchors (fitCounts).
//  3. Holdouts: closedHoldouts further anchors must lie on the fitted
//     polynomials bit-for-bit (FitPoly verifies every sample past deg+1).
//  4. Identities: every evaluation must be integral and non-negative, with
//     analyzed == volume and hits+cold+repl == analyzed ((*countFit).at).
//  5. Refusal: any failure refuses the claim, and the reference falls
//     through to an enumerating solve — extra work, never a wrong count.
//  6. Provenance: the report records the outcome in one ClosedInfo.

// closedHoldouts is the number of anchors past deg+1 that every fit must
// reproduce exactly before it is trusted.
const closedHoldouts = 2

// Closed-form axes: the free parameter of a ClosedInfo.
const (
	AxisSize = "size" // problem size N (ScalingSolver)
	AxisSets = "sets" // number of cache sets (SolveBatch geometry columns)
)

// ClosedInfo is the provenance of a closed-form tier for one report: which
// references were answered by O(1) evaluation of a fitted closed form, and
// why the rest were not.
type ClosedInfo struct {
	// Axis names the free parameter (AxisSize or AxisSets); Param is its
	// value for this report.
	Axis  string `json:"axis"`
	Param int64  `json:"param"`
	// Anchor marks a report solved by enumeration to feed the fits.
	Anchor bool `json:"anchor,omitempty"`
	// ClosedRefs counts references answered by O(1) evaluation (including
	// PureColdRefs, answered by counting alone); FallthroughRefs counts
	// references the tier refused, which were re-solved by enumeration.
	ClosedRefs      int `json:"closed_refs"`
	PureColdRefs    int `json:"pure_cold_refs,omitempty"`
	FallthroughRefs int `json:"fallthrough_refs,omitempty"`
	TotalRefs       int `json:"total_refs"`
	// Period and Degree describe the fitted shape: per residue class of
	// Param mod Period, a polynomial of degree at most Degree.
	Period int64 `json:"period"`
	Degree int   `json:"degree"`
	// Why says why the report was not answered in closed form (empty when
	// it was).
	Why string `json:"why,omitempty"`
}

// Closed reports that every reference came from the closed form.
func (c *ClosedInfo) Closed() bool {
	return c != nil && !c.Anchor && c.TotalRefs > 0 && c.ClosedRefs == c.TotalRefs
}

// counts is one reference's census counters.
type counts struct{ analyzed, hits, cold, repl int64 }

func countsOf(rr *RefReport) counts {
	return counts{rr.Analyzed, rr.Hits, rr.Cold, rr.Repl}
}

// pureColdCounts is the census of a reference with no feasible reuse:
// every access a cold miss.
func pureColdCounts(volume int64) counts { return counts{analyzed: volume, cold: volume} }

// exactCensus reports whether rr may anchor a closed-form fit.
func exactCensus(rr *RefReport) bool {
	return rr.Complete && rr.Tier == TierExact && !rr.Sampled && rr.Analyzed == rr.Volume
}

// countSample is one anchor's census at parameter value x.
type countSample struct {
	x int64
	c counts
}

// countFit is one reference's counters as polynomials of the parameter
// (period-1 quasi-polynomials: a residue class is fitted on its own).
type countFit struct {
	analyzed, hits, cold, repl qpoly.QPoly
}

// fitCounts fits every counter to a polynomial of degree deg through the
// lowest deg+1 samples and verifies the remaining ones. It needs at least
// closedHoldouts holdout samples.
func fitCounts(deg int, samples []countSample) (*countFit, error) {
	if len(samples) < deg+1+closedHoldouts {
		return nil, fmt.Errorf("degree-%d fit needs %d anchors, have %d",
			deg, deg+1+closedHoldouts, len(samples))
	}
	in := make([]qpoly.Sample, len(samples))
	fit := func(name string, sel func(counts) int64) (qpoly.QPoly, error) {
		for i, s := range samples {
			in[i] = qpoly.Sample{N: s.x, V: linalg.RatInt(sel(s.c))}
		}
		coef, err := qpoly.FitPoly(deg, in)
		if err != nil {
			return qpoly.QPoly{}, fmt.Errorf("%s: %w", name, err)
		}
		return qpoly.New([][]linalg.Rat{coef}), nil
	}
	f := &countFit{}
	var err error
	if f.analyzed, err = fit("analyzed", func(c counts) int64 { return c.analyzed }); err != nil {
		return nil, err
	}
	if f.hits, err = fit("hits", func(c counts) int64 { return c.hits }); err != nil {
		return nil, err
	}
	if f.cold, err = fit("cold", func(c counts) int64 { return c.cold }); err != nil {
		return nil, err
	}
	if f.repl, err = fit("repl", func(c counts) int64 { return c.repl }); err != nil {
		return nil, err
	}
	return f, nil
}

// at evaluates the fit at x for a reference of the given volume. ok is
// false unless the result is a valid census: every counter integral and
// non-negative, analyzed == volume and hits+cold+repl == analyzed. A
// refusal means the polynomials left the region they describe.
func (f *countFit) at(x, volume int64) (c counts, ok bool) {
	var ok1, ok2, ok3, ok4 bool
	c.analyzed, ok1 = f.analyzed.EvalInt(x)
	c.hits, ok2 = f.hits.EvalInt(x)
	c.cold, ok3 = f.cold.EvalInt(x)
	c.repl, ok4 = f.repl.EvalInt(x)
	if !ok1 || !ok2 || !ok3 || !ok4 || c.analyzed != volume ||
		c.hits < 0 || c.cold < 0 || c.repl < 0 || c.hits+c.cold+c.repl != c.analyzed {
		return counts{}, false
	}
	return c, true
}

// fillClosed stamps rr with closed-form counts: a complete exact census
// that no enumeration produced.
func fillClosed(rr *RefReport, c counts) {
	rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = c.analyzed, c.hits, c.cold, c.repl
	rr.Tier = TierExact
	rr.Complete = true
	rr.ClosedForm = true
}
