package linalg

// Solution describes the full solution set of a linear system A·x = b over
// the rationals: x = Particular + span(Nullspace). For the reuse analysis
// we care about integral points of this affine subspace.
type Solution struct {
	// Particular is one solution of A·x = b (free variables set to zero).
	Particular Vec
	// Nullspace is a basis of solutions of A·x = 0. Each basis vector is
	// scaled to be integral and primitive (gcd of components = 1).
	Nullspace []Vec
}

// rref reduces a to reduced row echelon form in place and returns the pivot
// column of each pivot row.
func rref(a *Mat) (pivots []int) {
	row := 0
	for col := 0; col < a.Cols && row < a.Rows; col++ {
		// Find a pivot in this column.
		pr := -1
		for i := row; i < a.Rows; i++ {
			if !a.At(i, col).IsZero() {
				pr = i
				break
			}
		}
		if pr == -1 {
			continue
		}
		// Swap into position.
		if pr != row {
			for j := 0; j < a.Cols; j++ {
				tmp := a.At(row, j)
				a.Set(row, j, a.At(pr, j))
				a.Set(pr, j, tmp)
			}
		}
		// Normalise the pivot row.
		p := a.At(row, col)
		for j := col; j < a.Cols; j++ {
			a.Set(row, j, a.At(row, j).Div(p))
		}
		// Eliminate the column everywhere else.
		for i := 0; i < a.Rows; i++ {
			if i == row {
				continue
			}
			f := a.At(i, col)
			if f.IsZero() {
				continue
			}
			for j := col; j < a.Cols; j++ {
				a.Set(i, j, a.At(i, j).Sub(f.Mul(a.At(row, j))))
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots
}

// Solve computes the full rational solution set of A·x = b. It returns
// ok=false if the system is inconsistent. A zero-row matrix (no equations)
// yields the all-free solution: particular 0, nullspace = identity basis.
func Solve(a *Mat, b Vec) (Solution, bool) {
	mustSameLen(a.Rows, len(b))
	n := a.Cols
	// Build the augmented matrix [A | b].
	aug := NewMat(a.Rows, n+1)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, a.At(i, j))
		}
		aug.Set(i, n, b[i])
	}
	pivots := rref(aug)
	// Inconsistency: pivot in the augmented column.
	for _, p := range pivots {
		if p == n {
			return Solution{}, false
		}
	}
	isPivot := make([]bool, n)
	pivotRow := make([]int, n) // column -> row holding its pivot
	for r, p := range pivots {
		isPivot[p] = true
		pivotRow[p] = r
	}
	// Particular solution: free variables zero.
	part := ZeroVec(n)
	for j := 0; j < n; j++ {
		if isPivot[j] {
			part[j] = aug.At(pivotRow[j], n)
		}
	}
	// Nullspace basis: one vector per free variable.
	var null []Vec
	for j := 0; j < n; j++ {
		if isPivot[j] {
			continue
		}
		v := ZeroVec(n)
		v[j] = RatInt(1)
		for k := 0; k < n; k++ {
			if isPivot[k] {
				v[k] = aug.At(pivotRow[k], j).Neg()
			}
		}
		null = append(null, primitive(v))
	}
	return Solution{Particular: part, Nullspace: null}, true
}

// primitive scales v to the smallest integral vector with the same
// direction (gcd of components 1, first nonzero component positive).
func primitive(v Vec) Vec {
	// Clear denominators.
	l := int64(1)
	for _, x := range v {
		l = LCM(l, x.Den())
	}
	w := v.Scale(RatInt(l))
	// Divide by the gcd of numerators.
	var g int64
	for _, x := range w {
		g = GCD(g, x.Num())
	}
	if g > 1 {
		w = w.Scale(NewRat(1, g))
	}
	// Canonical sign.
	for _, x := range w {
		if x.Sign() != 0 {
			if x.Sign() < 0 {
				w = w.Neg()
			}
			break
		}
	}
	return w
}

// IntegralParticular searches the affine solution set for an integral point
// by adjusting the particular solution with small rational multiples of the
// nullspace basis. It returns ok=false if no integral point is found within
// the search bound. For the unimodular-ish access matrices of regular loop
// programs the particular solution is almost always already integral.
func IntegralParticular(s Solution) (Vec, bool) {
	if s.Particular.IsIntegral() {
		return s.Particular, true
	}
	// Small bounded search over combinations of nullspace scalings with
	// denominators matching the particular solution's components.
	const bound = 8
	cur := s.Particular
	for _, nv := range s.Nullspace {
		if cur.IsIntegral() {
			break
		}
		improved := false
		for t := int64(-bound); t <= bound && !improved; t++ {
			if t == 0 {
				continue
			}
			// Allow fractional steps t/den for denominators up to 4.
			for den := int64(1); den <= 4; den++ {
				cand := cur.Add(nv.Scale(NewRat(t, den)))
				if fracCount(cand) < fracCount(cur) {
					cur = cand
					improved = true
					break
				}
			}
		}
	}
	if cur.IsIntegral() {
		return cur, true
	}
	return nil, false
}

func fracCount(v Vec) int {
	n := 0
	for _, x := range v {
		if !x.IsInt() {
			n++
		}
	}
	return n
}

// Nullspace returns an integral primitive basis of {x : A·x = 0}.
func Nullspace(a *Mat) []Vec {
	sol, ok := Solve(a, ZeroVec(a.Rows))
	if !ok {
		return nil // homogeneous systems are always consistent
	}
	return sol.Nullspace
}

// Rank returns the rank of a.
func Rank(a *Mat) int {
	c := a.Clone()
	return len(rref(c))
}
