package linalg

import (
	"fmt"
	"strings"
)

// Vec is a vector of exact rationals.
type Vec []Rat

// IntVec builds a rational vector from integers.
func IntVec(xs ...int64) Vec {
	v := make(Vec, len(xs))
	for i, x := range xs {
		v[i] = RatInt(x)
	}
	return v
}

// ZeroVec returns the zero vector of length n.
func ZeroVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. The vectors must have equal length.
func (v Vec) Add(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Add(w[i])
	}
	return out
}

// Sub returns v − w. The vectors must have equal length.
func (v Vec) Sub(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Sub(w[i])
	}
	return out
}

// Scale returns c·v.
func (v Vec) Scale(c Rat) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Mul(c)
	}
	return out
}

// Neg returns −v.
func (v Vec) Neg() Vec { return v.Scale(RatInt(-1)) }

// Dot returns the inner product v·w.
func (v Vec) Dot(w Vec) Rat {
	mustSameLen(len(v), len(w))
	sum := Rat{}
	for i := range v {
		sum = sum.Add(v[i].Mul(w[i]))
	}
	return sum
}

// IsZero reports whether every component of v is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if !x.IsZero() {
			return false
		}
	}
	return true
}

// IsIntegral reports whether every component of v is an integer.
func (v Vec) IsIntegral() bool {
	for _, x := range v {
		if !x.IsInt() {
			return false
		}
	}
	return true
}

// Ints returns v as int64 components; ok is false if any component is
// not an integer.
func (v Vec) Ints() (out []int64, ok bool) {
	out = make([]int64, len(v))
	for i, x := range v {
		n, isInt := x.Int()
		if !isInt {
			return nil, false
		}
		out[i] = n
	}
	return out, true
}

// Equal reports componentwise equality.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Cmp(w[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders v as "(a, b, c)".
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", a, b))
	}
}

// Mat is a dense rational matrix stored row-major.
type Mat struct {
	Rows, Cols int
	data       []Rat
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, data: make([]Rat, rows*cols)}
}

// IntMat builds a matrix from integer rows. All rows must have equal length.
func IntMat(rows ...[]int64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		for j, x := range r {
			m.Set(i, j, RatInt(x))
		}
	}
	return m
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) Rat { return m.data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v Rat) { m.data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Mat) Row(i int) Vec {
	out := make(Vec, m.Cols)
	copy(out, m.data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Mat) Col(j int) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// MulVec returns m·v.
func (m *Mat) MulVec(v Vec) Vec {
	mustSameLen(m.Cols, len(v))
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := Rat{}
		for j := 0; j < m.Cols; j++ {
			sum = sum.Add(m.At(i, j).Mul(v[j]))
		}
		out[i] = sum
	}
	return out
}

// DropRow returns a copy of m with row i removed.
func (m *Mat) DropRow(i int) *Mat {
	out := NewMat(m.Rows-1, m.Cols)
	r := 0
	for k := 0; k < m.Rows; k++ {
		if k == i {
			continue
		}
		for j := 0; j < m.Cols; j++ {
			out.Set(r, j, m.At(k, j))
		}
		r++
	}
	return out
}

// Equal reports elementwise equality of m and o.
func (m *Mat) Equal(o *Mat) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.data {
		if m.data[i].Cmp(o.data[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the matrix row by row.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString(m.Row(i).String())
		if i < m.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
