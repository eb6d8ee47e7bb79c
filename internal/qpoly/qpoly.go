// Package qpoly holds the exact polynomials of the closed-form tiers: a
// per-reference miss counter as a function of an integer parameter (the
// problem size N or the number of cache sets). Within one residue class
// of the parameter such a counter is a plain polynomial — the classes of
// a quasi-polynomial are fitted one at a time by the caller — so a Poly
// has exact rational coefficients and no period. FitPoly recovers one
// from sampled values by rational interpolation and verifies the
// holdouts; EvalInt evaluates it at the parameter values the tier
// answers.
package qpoly

import (
	"fmt"
	"strings"

	"cachemodel/internal/linalg"
)

// Poly is a polynomial Σ_d coef[d] · n^d with exact rational
// coefficients. The zero value is the zero polynomial. Arithmetic on the
// coefficients panics with *linalg.OverflowError rather than silently
// wrapping.
type Poly struct {
	coef []linalg.Rat // index = degree
}

// New builds a polynomial from its power-basis coefficients (index =
// degree). The slice is copied.
func New(coef []linalg.Rat) Poly { return Poly{coef: append([]linalg.Rat(nil), coef...)} }

// eval returns p(n) as an exact rational, by Horner evaluation.
func (p Poly) eval(n int64) linalg.Rat {
	v := linalg.RatInt(0)
	x := linalg.RatInt(n)
	for d := len(p.coef) - 1; d >= 0; d-- {
		v = v.Mul(x).Add(p.coef[d])
	}
	return v
}

// EvalInt returns p(n) as an int64, reporting whether the value is an
// integer (a count always is; a false return means the polynomial does
// not describe a count at this n).
func (p Poly) EvalInt(n int64) (int64, bool) {
	return p.eval(n).Int()
}

// String renders p in descending powers, e.g. "3/4·n^2 - 2·n + 1".
func (p Poly) String() string {
	var sb strings.Builder
	for d := len(p.coef) - 1; d >= 0; d-- {
		c := p.coef[d]
		if c.IsZero() {
			continue
		}
		switch {
		case sb.Len() == 0 && c.Sign() < 0:
			sb.WriteString("-")
		case sb.Len() > 0 && c.Sign() < 0:
			sb.WriteString(" - ")
		case sb.Len() > 0:
			sb.WriteString(" + ")
		}
		c = c.Abs()
		one := c.Cmp(linalg.RatInt(1)) == 0
		switch {
		case d == 0:
			sb.WriteString(c.String())
		case one && d == 1:
			sb.WriteString("n")
		case one:
			fmt.Fprintf(&sb, "n^%d", d)
		case d == 1:
			fmt.Fprintf(&sb, "%s·n", c)
		default:
			fmt.Fprintf(&sb, "%s·n^%d", c, d)
		}
	}
	if sb.Len() == 0 {
		return "0"
	}
	return sb.String()
}
