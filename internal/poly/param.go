package poly

import "cachemodel/internal/ir"

// This file lifts iteration spaces to bounds and guards that are affine in
// one symbolic parameter n (the problem size). A ParamSpace is counted by
// instantiating it at a concrete n (At) — the closed-form size tier
// counts |RIS| exactly at every size it answers.

// ParamAffine is an affine form over the loop indices plus a symbolic
// parameter: value(idx, n) = Base(idx) + N·n.
type ParamAffine struct {
	Base ir.Affine
	N    int64
}

// At instantiates the form at parameter value n.
func (pa ParamAffine) At(n int64) ir.Affine { return pa.Base.AddConst(pa.N * n) }

// IsParam reports whether the form actually depends on the parameter.
func (pa ParamAffine) IsParam() bool { return pa.N != 0 }

// ParamBound is a loop-bound pair affine in the parameter.
type ParamBound struct {
	Lo, Hi ParamAffine
}

// ParamConstraint is Expr ≥ 0 (or == 0 when IsEq) with Expr affine in the
// parameter.
type ParamConstraint struct {
	Expr ParamAffine
	IsEq bool
}

// At instantiates the constraint at parameter value n.
func (pc ParamConstraint) At(n int64) ir.NConstraint {
	return ir.NConstraint{Expr: pc.Expr.At(n), IsEq: pc.IsEq}
}

// ParamSpace is an iteration space whose bounds and guards are affine in
// one symbolic parameter.
type ParamSpace struct {
	Depth  int
	Bounds []ParamBound
	Guards []ParamConstraint
}

// NewParamSpace builds a ParamSpace (depth = len(bounds)).
func NewParamSpace(bounds []ParamBound, guards []ParamConstraint) *ParamSpace {
	return &ParamSpace{Depth: len(bounds), Bounds: bounds, Guards: guards}
}

// At instantiates the space at parameter value n.
func (ps *ParamSpace) At(n int64) *Space {
	bounds := make([]ir.NBound, len(ps.Bounds))
	for i, b := range ps.Bounds {
		bounds[i] = ir.NBound{Lo: b.Lo.At(n), Hi: b.Hi.At(n)}
	}
	guards := make([]ir.NConstraint, len(ps.Guards))
	for i, g := range ps.Guards {
		guards[i] = g.At(n)
	}
	return New(bounds, guards)
}
