package qpoly

import (
	"fmt"
	"sort"

	"cachemodel/internal/linalg"
)

// Sample is one observed value of the function being fitted.
type Sample struct {
	N int64
	V linalg.Rat
}

// FitPoly recovers the unique polynomial of degree ≤ deg through the
// lowest deg+1 samples by Newton's divided differences (exact rational
// arithmetic), then verifies it reproduces every remaining sample.
// Samples must have pairwise distinct N; an error means either a
// duplicate abscissa or a verification mismatch — i.e. the data is not
// polynomial of the claimed degree over the sampled range.
func FitPoly(deg int, samples []Sample) (Poly, error) {
	if deg < 0 {
		return Poly{}, fmt.Errorf("qpoly: negative degree %d", deg)
	}
	if len(samples) < deg+1 {
		return Poly{}, fmt.Errorf("qpoly: need %d samples for degree %d, have %d",
			deg+1, deg, len(samples))
	}
	ss := append([]Sample(nil), samples...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].N < ss[j].N })
	for i := 1; i < len(ss); i++ {
		if ss[i].N == ss[i-1].N {
			return Poly{}, fmt.Errorf("qpoly: duplicate sample abscissa %d", ss[i].N)
		}
	}
	fit := ss[:deg+1]

	// Newton divided differences: dd[j] holds f[x_{j-k}, ..., x_j] as k
	// grows; after pass k, dd[j] for j ≥ k is the order-k difference.
	dd := make([]linalg.Rat, len(fit))
	for i, s := range fit {
		dd[i] = s.V
	}
	for k := 1; k < len(fit); k++ {
		for j := len(fit) - 1; j >= k; j-- {
			num := dd[j].Sub(dd[j-1])
			den := linalg.RatInt(fit[j].N - fit[j-k].N)
			dd[j] = num.Div(den)
		}
	}

	// Expand the Newton form Σ_k dd[k] · Π_{m<k} (x − x_m) into the power
	// basis.
	coef := make([]linalg.Rat, deg+1)
	basis := make([]linalg.Rat, 1, deg+1) // Π so far; starts as the constant 1
	basis[0] = linalg.RatInt(1)
	for k := 0; k <= deg; k++ {
		if !dd[k].IsZero() {
			for d, b := range basis {
				coef[d] = coef[d].Add(dd[k].Mul(b))
			}
		}
		if k < deg {
			// basis ← basis · (x − x_k)
			next := make([]linalg.Rat, len(basis)+1)
			negx := linalg.RatInt(-fit[k].N)
			for d, b := range basis {
				next[d] = next[d].Add(b.Mul(negx))
				next[d+1] = next[d+1].Add(b)
			}
			basis = next
		}
	}

	// Verification: the holdout samples must lie on the fitted polynomial
	// exactly, otherwise the data was not polynomial of this degree.
	p := New(coef)
	for _, s := range ss[deg+1:] {
		if got := p.eval(s.N); got.Cmp(s.V) != 0 {
			return Poly{}, fmt.Errorf("qpoly: degree-%d fit fails verification at n=%d: fitted %s, observed %s",
				deg, s.N, got, s.V)
		}
	}
	return p, nil
}
