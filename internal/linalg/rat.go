// Package linalg provides exact rational arithmetic and the small-scale
// integer linear algebra needed by the reuse analysis: solving affine
// systems M·x = b over the integers, computing particular solutions and
// integer nullspace bases via fraction-free Gaussian elimination.
//
// All matrices involved are tiny (array dimensionality × loop depth, both
// typically ≤ 6), so clarity and exactness are preferred over asymptotic
// performance.
package linalg

import (
	"fmt"
	"math/big"
)

// Rat is an exact rational number with int64 numerator and denominator.
// The zero value is 0/1. Rats are always kept in canonical form: the
// denominator is positive and gcd(num, den) == 1.
type Rat struct {
	num int64
	den int64
}

// NewRat returns the canonical rational num/den. It panics if den == 0.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("linalg: zero denominator")
	}
	r := Rat{num, den}
	r.normalize()
	return r
}

// RatInt returns the rational representation of the integer n.
func RatInt(n int64) Rat { return Rat{n, 1} }

func (r *Rat) normalize() {
	if r.den == 0 {
		panic("linalg: zero denominator")
	}
	if r.den < 0 {
		r.num, r.den = -r.num, -r.den
	}
	if r.num == 0 {
		r.den = 1
		return
	}
	g := GCD(abs64(r.num), r.den)
	r.num /= g
	r.den /= g
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// GCD returns the greatest common divisor of a and b (non-negative result).
// GCD(0, 0) == 0 by convention.
func GCD(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b. LCM(0, x) == 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return abs64(a/GCD(a, b)) * abs64(b)
}

// Num returns the numerator of r in canonical form.
func (r Rat) Num() int64 { return r.num }

// Den returns the (positive) denominator of r in canonical form.
func (r Rat) Den() int64 {
	if r.den == 0 {
		return 1 // zero value
	}
	return r.den
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Int returns r as an int64 and reports whether the conversion is exact.
func (r Rat) Int() (int64, bool) {
	if !r.IsInt() {
		return 0, false
	}
	return r.num, true
}

// OverflowError is the payload of the panic raised when an exact rational
// result does not fit int64 even after reduction to canonical form. It is
// a typed value (not a bare string) so solvers that guard worker panics
// can classify it.
type OverflowError struct {
	Op string // the operation that overflowed, e.g. "add"
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("linalg: rational overflow in %s: result does not fit int64", e.Op)
}

// addChecked returns a+b, reporting whether it fit int64.
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulChecked returns a·b, reporting whether it fit int64.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// MinInt64 has no int64 negation; p/b below would also trap on
	// MinInt64 / -1, so reject the pathological operands up front.
	if a == minI64 || b == minI64 {
		if a == 1 || b == 1 {
			return p, true
		}
		return 0, false
	}
	if p/b != a {
		return 0, false
	}
	return p, true
}

const minI64 = -1 << 63

// ratBig reduces num/den computed in big arithmetic back to a canonical
// Rat, panicking with *OverflowError when the reduced result does not fit.
func ratBig(op string, num, den *big.Int) Rat {
	q := new(big.Rat).SetFrac(num, den) // reduces and fixes the sign
	if !q.Num().IsInt64() || !q.Denom().IsInt64() {
		panic(&OverflowError{Op: op})
	}
	return Rat{q.Num().Int64(), q.Denom().Int64()}
}

// addBig is the slow path of Add: r + s exactly in big arithmetic.
func addBig(op string, r, s Rat) Rat {
	rn, rd := big.NewInt(r.num), big.NewInt(r.Den())
	sn, sd := big.NewInt(s.num), big.NewInt(s.Den())
	num := new(big.Int).Add(new(big.Int).Mul(rn, sd), new(big.Int).Mul(sn, rd))
	return ratBig(op, num, new(big.Int).Mul(rd, sd))
}

// subBig is the slow path of Sub: r − s exactly in big arithmetic. It
// subtracts directly rather than negating s, so s.num == MinInt64 does
// not panic when the difference itself is representable.
func subBig(op string, r, s Rat) Rat {
	rn, rd := big.NewInt(r.num), big.NewInt(r.Den())
	sn, sd := big.NewInt(s.num), big.NewInt(s.Den())
	num := new(big.Int).Sub(new(big.Int).Mul(rn, sd), new(big.Int).Mul(sn, rd))
	return ratBig(op, num, new(big.Int).Mul(rd, sd))
}

// Add returns r + s. The cross products are overflow-checked; when any of
// them exceeds int64 the sum is computed exactly in big arithmetic and
// reduced, and Add panics with *OverflowError only if even the reduced
// result does not fit int64.
func (r Rat) Add(s Rat) Rat {
	a, ok1 := mulChecked(r.num, s.Den())
	b, ok2 := mulChecked(s.num, r.Den())
	num, ok3 := addChecked(a, b)
	den, ok4 := mulChecked(r.Den(), s.Den())
	if ok1 && ok2 && ok3 && ok4 {
		return NewRat(num, den)
	}
	return addBig("add", r, s)
}

// Sub returns r − s, with the same overflow discipline as Add.
func (r Rat) Sub(s Rat) Rat {
	a, ok1 := mulChecked(r.num, s.Den())
	b, ok2 := mulChecked(s.num, r.Den())
	num, ok3 := addChecked(a, -b)
	den, ok4 := mulChecked(r.Den(), s.Den())
	if ok1 && ok2 && ok3 && ok4 && b != minI64 {
		return NewRat(num, den)
	}
	return subBig("sub", r, s)
}

// Mul returns r × s, with the same overflow discipline as Add.
func (r Rat) Mul(s Rat) Rat {
	num, ok1 := mulChecked(r.num, s.num)
	den, ok2 := mulChecked(r.Den(), s.Den())
	if ok1 && ok2 {
		return NewRat(num, den)
	}
	return ratBig("mul",
		new(big.Int).Mul(big.NewInt(r.num), big.NewInt(s.num)),
		new(big.Int).Mul(big.NewInt(r.Den()), big.NewInt(s.Den())))
}

// Div returns r ÷ s, with the same overflow discipline as Add. It panics
// if s == 0.
func (r Rat) Div(s Rat) Rat {
	if s.IsZero() {
		panic("linalg: division by zero")
	}
	num, ok1 := mulChecked(r.num, s.Den())
	den, ok2 := mulChecked(r.Den(), s.num)
	if ok1 && ok2 {
		return NewRat(num, den)
	}
	return ratBig("div",
		new(big.Int).Mul(big.NewInt(r.num), big.NewInt(s.Den())),
		new(big.Int).Mul(big.NewInt(r.Den()), big.NewInt(s.num)))
}

// Neg returns −r. It panics with *OverflowError for the one numerator
// whose negation does not exist in int64.
func (r Rat) Neg() Rat {
	if r.num == minI64 {
		panic(&OverflowError{Op: "neg"})
	}
	return Rat{-r.num, r.Den()}
}

// Cmp compares r and s, returning −1, 0 or +1. The comparison is exact
// for every representable pair: when the cross products overflow int64 it
// falls back to big arithmetic (a comparison always has an answer, so Cmp
// never panics with *OverflowError).
func (r Rat) Cmp(s Rat) int {
	a, ok1 := mulChecked(r.num, s.Den())
	b, ok2 := mulChecked(s.num, r.Den())
	if ok1 && ok2 {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	x := new(big.Int).Mul(big.NewInt(r.num), big.NewInt(s.Den()))
	y := new(big.Int).Mul(big.NewInt(s.num), big.NewInt(r.Den()))
	return x.Cmp(y)
}

// Sign returns the sign of r as −1, 0 or +1.
func (r Rat) Sign() int {
	switch {
	case r.num < 0:
		return -1
	case r.num > 0:
		return 1
	default:
		return 0
	}
}

// Abs returns |r|. It panics with *OverflowError for the one numerator
// whose absolute value does not exist in int64.
func (r Rat) Abs() Rat {
	if r.num < 0 {
		if r.num == minI64 {
			panic(&OverflowError{Op: "abs"})
		}
		return Rat{-r.num, r.Den()}
	}
	return Rat{r.num, r.Den()}
}

// Floor returns the largest integer ≤ r.
func (r Rat) Floor() int64 {
	d := r.Den()
	if r.num >= 0 {
		return r.num / d
	}
	return -((-r.num + d - 1) / d)
}

// Ceil returns the smallest integer ≥ r.
func (r Rat) Ceil() int64 {
	d := r.Den()
	if r.num >= 0 {
		return (r.num + d - 1) / d
	}
	return -(-r.num / d)
}

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	if r.IsInt() {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}
