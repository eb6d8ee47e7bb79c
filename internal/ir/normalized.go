package ir

import (
	"fmt"
	"strings"
)

// Affine is a positional linear expression c0 + Σ Coeff[k]·I_{k+1} over the
// normalised loop indices I_1..I_n. Coeff may be shorter than n (missing
// coefficients are zero).
type Affine struct {
	Const int64
	Coeff []int64
}

// AffineConst returns the constant affine expression c.
func AffineConst(c int64) Affine { return Affine{Const: c} }

// AffineIndex returns the affine expression I_depth (depth is 1-based).
func AffineIndex(depth int) Affine {
	c := make([]int64, depth)
	c[depth-1] = 1
	return Affine{Coeff: c}
}

// Eval evaluates the expression at the index vector idx (idx[k] = I_{k+1}).
func (a Affine) Eval(idx []int64) int64 {
	v := a.Const
	for k, c := range a.Coeff {
		if c != 0 {
			v += c * idx[k]
		}
	}
	return v
}

// At returns the coefficient of I_depth (1-based).
func (a Affine) At(depth int) int64 {
	if depth-1 < len(a.Coeff) {
		return a.Coeff[depth-1]
	}
	return 0
}

// IsConst reports whether a has no index terms.
func (a Affine) IsConst() bool {
	for _, c := range a.Coeff {
		if c != 0 {
			return false
		}
	}
	return true
}

// MaxDepthUsed returns the largest depth with a nonzero coefficient (0 if
// constant).
func (a Affine) MaxDepthUsed() int {
	for k := len(a.Coeff) - 1; k >= 0; k-- {
		if a.Coeff[k] != 0 {
			return k + 1
		}
	}
	return 0
}

// Plus returns a + b.
func (a Affine) Plus(b Affine) Affine {
	n := max(len(a.Coeff), len(b.Coeff))
	out := Affine{Const: a.Const + b.Const, Coeff: make([]int64, n)}
	for k := 0; k < n; k++ {
		out.Coeff[k] = a.At(k+1) + b.At(k+1)
	}
	return out
}

// Sub returns a − b.
func (a Affine) Sub(b Affine) Affine {
	n := max(len(a.Coeff), len(b.Coeff))
	out := Affine{Const: a.Const - b.Const, Coeff: make([]int64, n)}
	for k := 0; k < n; k++ {
		out.Coeff[k] = a.At(k+1) - b.At(k+1)
	}
	return out
}

// AddConst returns a + c.
func (a Affine) AddConst(c int64) Affine {
	out := a
	out.Const += c
	out.Coeff = append([]int64(nil), a.Coeff...)
	return out
}

// Equal reports componentwise equality.
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const {
		return false
	}
	n := max(len(a.Coeff), len(b.Coeff))
	for k := 1; k <= n; k++ {
		if a.At(k) != b.At(k) {
			return false
		}
	}
	return true
}

// String renders a as e.g. "2*I1 - I3 + 4".
func (a Affine) String() string {
	e := Expr{Const: a.Const}
	for k, c := range a.Coeff {
		if c != 0 {
			if e.Terms == nil {
				e.Terms = map[string]int64{}
			}
			e.Terms[fmt.Sprintf("I%d", k+1)] = c
		}
	}
	return e.String()
}

// NConstraint is a normalised guard constraint: Expr ⋈ 0 with ⋈ ∈ {=, ≥}.
type NConstraint struct {
	Expr Affine
	IsEq bool // true: Expr == 0, false: Expr >= 0
}

// Holds evaluates the constraint at idx.
func (c NConstraint) Holds(idx []int64) bool {
	v := c.Expr.Eval(idx)
	if c.IsEq {
		return v == 0
	}
	return v >= 0
}

func (c NConstraint) String() string {
	if c.IsEq {
		return c.Expr.String() + " == 0"
	}
	return c.Expr.String() + " >= 0"
}

// NormalizeCond lowers a named-variable condition into ≥0 / =0 constraints,
// given the mapping from variable name to normalised depth.
func NormalizeCond(c Cond, depthOf map[string]int) []NConstraint {
	l := toAffine(c.LHS, depthOf)
	r := toAffine(c.RHS, depthOf)
	d := l.Sub(r) // LHS - RHS
	switch c.Op {
	case EQ:
		return []NConstraint{{Expr: d, IsEq: true}}
	case LE: // d <= 0  =>  -d >= 0
		return []NConstraint{{Expr: negAffine(d)}}
	case LT: // d < 0  =>  -d - 1 >= 0
		return []NConstraint{{Expr: negAffine(d).AddConst(-1)}}
	case GE:
		return []NConstraint{{Expr: d}}
	case GT:
		return []NConstraint{{Expr: d.AddConst(-1)}}
	}
	panic("ir: unknown comparison operator")
}

func negAffine(a Affine) Affine {
	out := Affine{Const: -a.Const, Coeff: make([]int64, len(a.Coeff))}
	for k, c := range a.Coeff {
		out.Coeff[k] = -c
	}
	return out
}

func toAffine(e Expr, depthOf map[string]int) Affine {
	a := Affine{Const: e.Const}
	for v, c := range e.Terms {
		d, ok := depthOf[v]
		if !ok {
			panic(fmt.Sprintf("ir: non-loop variable %q in affine expression", v))
		}
		for len(a.Coeff) < d {
			a.Coeff = append(a.Coeff, 0)
		}
		a.Coeff[d-1] += c
	}
	return a
}

// NBound is the pair of inclusive affine loop bounds at one depth.
// Lo and Hi may reference indices of strictly shallower depths only.
type NBound struct {
	Lo, Hi Affine
}

// NRef is a reference in the normalised program. Its subscripts are stored
// both per-dimension and as the access-matrix form A(M·I + m) used by the
// reuse analysis.
type NRef struct {
	Array *Array
	Subs  []Affine
	Write bool
	// Stmt is the enclosing normalised statement.
	Stmt *NStmt
	// Seq is the global textual access position of this reference: all
	// references of a normalised program are numbered in program order
	// (leaf nest order, then statement order, then intra-statement access
	// order). At a fixed iteration point of a shared label prefix, a
	// smaller Seq executes first.
	Seq int
	// ID is a stable identifier for reporting.
	ID string

	// Cached linearised address form: address(idx) = addrAff.Eval(idx).
	// Because subscripts are affine and strides are compile-time
	// constants, the byte address is itself affine in the index vector;
	// caching it makes simulation and interference walks allocation-free.
	// The cache is keyed on the array base so a re-layout invalidates it.
	addrAff   Affine
	addrBase  int64
	addrReady bool
}

// AccessMatrix returns the matrix M (rank × n) and offset vector m such
// that the subscripts equal M·I + m.
func (r *NRef) AccessMatrix(n int) (m [][]int64, off []int64) {
	m = make([][]int64, len(r.Subs))
	off = make([]int64, len(r.Subs))
	for d, s := range r.Subs {
		row := make([]int64, n)
		for k := 1; k <= n; k++ {
			row[k-1] = s.At(k)
		}
		m[d] = row
		off[d] = s.Const
	}
	return m, off
}

// SubsAt evaluates all subscripts at the index vector idx.
func (r *NRef) SubsAt(idx []int64) []int64 {
	out := make([]int64, len(r.Subs))
	for d, s := range r.Subs {
		out[d] = s.Eval(idx)
	}
	return out
}

// AddressAt returns the byte address accessed at idx.
func (r *NRef) AddressAt(idx []int64) int64 {
	if !r.addrReady || r.addrBase != r.Array.Base {
		r.buildAddr()
	}
	return r.addrAff.Eval(idx)
}

// AddressAffine returns the cached linearised address expression, so
// address(idx) = AddressAffine().Eval(idx). Walkers that visit millions of
// accesses strength-reduce this affine into incremental adds instead of
// calling AddressAt per access.
func (r *NRef) AddressAffine() Affine {
	if !r.addrReady || r.addrBase != r.Array.Base {
		r.buildAddr()
	}
	return r.addrAff
}

// buildAddr folds base address, element size, strides and subscripts into
// one affine expression over the index vector.
func (r *NRef) buildAddr() {
	a := r.Array
	if a.Base < 0 {
		panic(fmt.Sprintf("ir: array %s not laid out", a.Name))
	}
	aff := Affine{Const: a.Base}
	stride := a.ElemSize
	for d, s := range r.Subs {
		scaled := Affine{Const: (s.Const - 1) * stride, Coeff: make([]int64, len(s.Coeff))}
		for k, c := range s.Coeff {
			scaled.Coeff[k] = c * stride
		}
		aff = aff.Plus(scaled)
		if d < len(a.Dims)-1 {
			if a.Dims[d] <= 0 {
				panic(fmt.Sprintf("ir: array %s: cannot address through unknown dimension %d", a.Name, d+1))
			}
			stride *= a.Dims[d]
		}
	}
	r.addrAff = aff
	r.addrBase = a.Base
	r.addrReady = true
}

func (r *NRef) String() string {
	parts := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		parts[i] = s.String()
	}
	rw := "R"
	if r.Write {
		rw = "W"
	}
	return fmt.Sprintf("%s(%s)[%s]", r.Array.Name, strings.Join(parts, ","), rw)
}

// NStmt is a statement of the normalised program: it lives at depth n in
// the loop nest identified by Label, under the given per-depth bounds, and
// is guarded by the conjunction of Guards.
type NStmt struct {
	Label  []int    // loop label vector (ℓ1..ℓn)
	Bounds []NBound // bounds of the n enclosing loops
	Guards []NConstraint
	Refs   []*NRef
	Name   string // source label, e.g. "S1"
}

// Depth returns n, the normalised nesting depth.
func (s *NStmt) Depth() int { return len(s.Label) }

// GuardHolds reports whether all guards hold at idx.
func (s *NStmt) GuardHolds(idx []int64) bool {
	for _, g := range s.Guards {
		if !g.Holds(idx) {
			return false
		}
	}
	return true
}

// NLoop is a node of the normalised loop tree. Children at depth k+1 are
// numbered 1.. in textual order; the path of child numbers from the root
// is the loop label vector.
type NLoop struct {
	Bound NBound
	Loops []*NLoop // child loops (present when depth < n)
	Stmts []*NStmt // statements (present only at depth n)
}

// NProgram is a fully normalised program: every statement is nested in an
// n-dimensional loop nest; loops at depth k all use index I_k with unit
// step; statements carry their guards.
type NProgram struct {
	Name   string
	Depth  int
	Top    []*NLoop
	Stmts  []*NStmt // all statements in program (textual) order
	Arrays []*Array // all arrays referenced, in first-use order
	// Refs is every reference in global Seq order.
	Refs []*NRef
}

// LabelLess compares two loop label vectors with their index vectors in
// the interleaved (ℓ1, I1, ℓ2, I2, ..., ℓn, In) lexicographic order of §3.2.
// It returns a negative, zero or positive value like bytes.Compare.
func CompareIterations(la []int, ia []int64, lb []int, ib []int64) int {
	n := len(la)
	for k := 0; k < n; k++ {
		if la[k] != lb[k] {
			if la[k] < lb[k] {
				return -1
			}
			return 1
		}
		if ia[k] != ib[k] {
			if ia[k] < ib[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// IterationVector renders the interleaved iteration vector of a statement,
// e.g. "(1, I1, 2, I2)" — the Table 1 presentation.
func (s *NStmt) IterationVector() string {
	parts := make([]string, 0, 2*len(s.Label))
	for k, l := range s.Label {
		parts = append(parts, fmt.Sprintf("%d", l), fmt.Sprintf("I%d", k+1))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
