package cme

import (
	"strings"
	"testing"

	"cachemodel/internal/linalg"
	"cachemodel/internal/qpoly"
)

// TestClosedEngine pins the shared closed-form engine's refusals directly:
// which censuses may anchor a fit, which fits are refused, and which
// evaluations fail the count identities.
func TestClosedEngine(t *testing.T) {
	census := func(mut func(*RefReport)) *RefReport {
		rr := &RefReport{Volume: 10, Analyzed: 10, Hits: 4, Cold: 3, Repl: 3,
			Tier: TierExact, Complete: true}
		if mut != nil {
			mut(rr)
		}
		return rr
	}
	for name, tc := range map[string]struct {
		rr   *RefReport
		want bool
	}{
		"exact census": {census(nil), true},
		"sampled":      {census(func(r *RefReport) { r.Sampled = true }), false},
		"incomplete":   {census(func(r *RefReport) { r.Complete = false }), false},
		"non-exact":    {census(func(r *RefReport) { r.Tier = TierSampled }), false},
		"partial":      {census(func(r *RefReport) { r.Analyzed = 9 }), false},
	} {
		if got := exactCensus(tc.rr); got != tc.want {
			t.Errorf("exactCensus %s = %v, want %v", name, got, tc.want)
		}
	}

	// linear: analyzed = x, hits = cold = x/2, repl = 0 at even x.
	linear := func(xs ...int64) []countSample {
		var out []countSample
		for _, x := range xs {
			out = append(out, countSample{x: x, c: counts{analyzed: x, hits: x / 2, cold: x / 2}})
		}
		return out
	}
	bad := linear(2, 4, 6, 8)
	bad[3].c.cold++ // the second holdout misses the line
	for name, tc := range map[string]struct {
		deg     int
		samples []countSample
		errSub  string
	}{
		"degree 1, two holdouts": {1, linear(2, 4, 6, 8), ""},
		"degree 0, too few":      {0, linear(2, 4), "needs 3 anchors"},
		"degree 1, too few":      {1, linear(2, 4, 6), "needs 4 anchors"},
		"holdout mismatch":       {1, bad, "cold"},
	} {
		_, err := fitCounts(tc.deg, tc.samples)
		switch {
		case tc.errSub == "" && err != nil:
			t.Errorf("fitCounts %s: %v", name, err)
		case tc.errSub != "" && (err == nil || !strings.Contains(err.Error(), tc.errSub)):
			t.Errorf("fitCounts %s: err %v, want one containing %q", name, err, tc.errSub)
		}
	}

	fit, err := fitCounts(1, linear(2, 4, 6, 8))
	if err != nil {
		t.Fatal(err)
	}
	broken := &countFit{analyzed: constPoly(4), hits: constPoly(1),
		cold: constPoly(1), repl: constPoly(1)}
	for name, tc := range map[string]struct {
		f         *countFit
		x, volume int64
		want      counts
		ok        bool
	}{
		"on the fit":          {fit, 100, 100, counts{analyzed: 100, hits: 50, cold: 50}, true},
		"non-integral":        {fit, 3, 3, counts{}, false},
		"negative counters":   {fit, -2, -2, counts{}, false},
		"analyzed != volume":  {fit, 4, 5, counts{}, false},
		"sum != analyzed":     {broken, 7, 4, counts{}, false},
		"constant fit, valid": {&countFit{analyzed: constPoly(4), hits: constPoly(2), cold: constPoly(2)}, 7, 4, counts{4, 2, 2, 0}, true},
	} {
		got, ok := tc.f.at(tc.x, tc.volume)
		if ok != tc.ok || got != tc.want {
			t.Errorf("at %s = %+v, %v; want %+v, %v", name, got, ok, tc.want, tc.ok)
		}
	}

	rr := &RefReport{Volume: 10, Tier: TierSampled}
	fillClosed(rr, pureColdCounts(10))
	if !exactCensus(rr) || !rr.ClosedForm || rr.Cold != 10 || rr.Hits != 0 || rr.Repl != 0 {
		t.Errorf("fillClosed(pureColdCounts) = %+v", rr)
	}
}

// constPoly is the constant polynomial c.
func constPoly(c int64) qpoly.Poly { return qpoly.New([]linalg.Rat{linalg.RatInt(c)}) }
