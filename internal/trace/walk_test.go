package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"cachemodel/internal/ir"
)

// allAccesses is the window that passes every access.
var allAccesses = Window{Period: 1, Width: 1}

// walkRec is one visited access of a filtered walk.
type walkRec struct {
	ref  *ir.NRef
	addr int64
	pos  int64
}

// scanWindow is the oracle of a filtered walk: the generic walker visits
// every access of the interval, and the window is applied after the fact.
// It returns the in-window accesses with their positions and the
// interval's access count.
func scanWindow(np *ir.NProgram, a, b Time, win Window, rev bool) ([]walkRec, int64) {
	var out []walkRec
	var pos int64
	visit := func(r *ir.NRef, idx []int64) bool {
		pos++
		if addr := r.AddressAt(idx); floorMod(addr-win.Lo, win.Period) < win.Width {
			out = append(out, walkRec{r, addr, pos})
		}
		return true
	}
	if rev {
		VisitBetweenReverse(np, a, b, visit)
	} else {
		VisitBetween(np, a, b, visit)
	}
	return out, pos
}

// checkWalk compares one filtered walk against scanWindow. stopAt ≥ 0
// stops the walk at that in-window visit (when there is one), which must
// then return the stopping access's position.
func checkWalk(t testing.TB, name string, np *ir.NProgram, w *Walker, a, b Time, win Window, rev bool, stopAt int) {
	t.Helper()
	want, total := scanWindow(np, a, b, win, rev)
	if stopAt >= len(want) {
		stopAt = -1
	}
	if stopAt >= 0 {
		total = want[stopAt].pos
		want = want[:stopAt+1]
	}
	var got []walkRec
	visit := func(r *ir.NRef, addr, pos int64) bool {
		got = append(got, walkRec{r, addr, pos})
		return len(got)-1 != stopAt
	}
	var ret int64
	if rev {
		ret = w.BetweenReverse(a, b, win, visit)
	} else {
		ret = w.Between(a, b, win, visit)
	}
	where := fmt.Sprintf("%s rev=%v win=%+v (%v..%v) stop=%d", name, rev, win, a, b, stopAt)
	if ret != total {
		t.Fatalf("%s: walk returned %d, want %d", where, ret, total)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: walk visited %d accesses, want %d:\n got %v\nwant %v", where, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: visit %d: got %s@%d pos %d, want %s@%d pos %d", where, i,
				got[i].ref.ID, got[i].addr, got[i].pos, want[i].ref.ID, want[i].addr, want[i].pos)
		}
	}
}

// randomNest builds a laid-out normalised program of depth 1–4: one or
// two loops per level with short, possibly empty, affine bounds; one to
// three statements per leaf with up to two guards (equality included);
// and one to three references per statement, each through its own 1-D
// array, so inner strides are zero, negative, small or large at will and
// addresses may be negative.
func randomNest(rng *rand.Rand) *ir.NProgram {
	n := 1 + rng.Intn(4)
	np := &ir.NProgram{Name: "fuzz", Depth: n}
	small := func(k int) int64 { return int64(rng.Intn(2*k+1) - k) }
	affine := func(depth int, k int) ir.Affine {
		a := ir.Affine{Const: small(4), Coeff: make([]int64, n)}
		for d := 0; d < depth; d++ {
			if rng.Intn(2) == 0 {
				a.Coeff[d] = small(k)
			}
		}
		return a
	}
	var build func(depth int, label []int, bounds []ir.NBound) *ir.NLoop
	build = func(depth int, label []int, bounds []ir.NBound) *ir.NLoop {
		// Bounds reference strictly shallower indices only.
		lo := affine(depth-1, 1)
		hi := lo
		hi.Coeff = append([]int64(nil), lo.Coeff...)
		hi.Const += int64(rng.Intn(6) - 1)
		nl := &ir.NLoop{Bound: ir.NBound{Lo: lo, Hi: hi}}
		bounds = append(bounds[:len(bounds):len(bounds)], nl.Bound)
		if depth == n {
			for s := 1 + rng.Intn(3); s > 0; s-- {
				st := &ir.NStmt{Label: append([]int(nil), label...), Bounds: bounds,
					Name: fmt.Sprintf("S%d", len(np.Stmts)+1)}
				for g := rng.Intn(3); g > 0; g-- {
					st.Guards = append(st.Guards, ir.NConstraint{Expr: affine(n, 2), IsEq: rng.Intn(4) == 0})
				}
				for r := 1 + rng.Intn(3); r > 0; r-- {
					arr := &ir.Array{Name: fmt.Sprintf("A%d", len(np.Refs)), ElemSize: 1 + int64(rng.Intn(24)),
						Dims: []int64{0}, Base: int64(rng.Intn(4096))}
					sub := affine(n, 3)
					if rng.Intn(4) == 0 {
						sub.Coeff[n-1] = small(60) // inner stride beyond the period
					}
					ref := &ir.NRef{Array: arr, Subs: []ir.Affine{sub}, Write: rng.Intn(2) == 0,
						Stmt: st, Seq: len(np.Refs), ID: fmt.Sprintf("%s.r%d", st.Name, len(st.Refs))}
					st.Refs = append(st.Refs, ref)
					np.Refs = append(np.Refs, ref)
				}
				nl.Stmts = append(nl.Stmts, st)
				np.Stmts = append(np.Stmts, st)
			}
			return nl
		}
		for c := 1 + rng.Intn(2); c > 0; c-- {
			nl.Loops = append(nl.Loops, build(depth+1, append(label, len(nl.Loops)+1), bounds))
		}
		return nl
	}
	for c := 1 + rng.Intn(2); c > 0; c-- {
		np.Top = append(np.Top, build(1, []int{len(np.Top) + 1}, nil))
	}
	return np
}

// rowNest builds a laid-out normalised two-level nest for the walker's
// row driver: an outer loop of up to 48 rows over one or two sibling leaf
// loops of up to 24 values whose bounds are constant or triangular in
// the outer index (so some rows are empty), statements with equality and
// inequality guards over both indices, and references whose inner stride
// is zero, within a window's width or beyond it, in either direction, and
// whose outer stride is small or large, so that under one window some
// rows wrap the period and others do not.
func rowNest(rng *rand.Rand) *ir.NProgram {
	np := &ir.NProgram{Name: "rows", Depth: 2}
	small := func(k int) int64 { return int64(rng.Intn(2*k+1) - k) }
	stride := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return small(3)
		case 1:
			return small(40)
		}
		return small(400)
	}
	outer := &ir.NLoop{Bound: ir.NBound{Lo: ir.Affine{Const: small(3), Coeff: []int64{0, 0}},
		Hi: ir.Affine{Const: int64(8 + rng.Intn(40)), Coeff: []int64{0, 0}}}}
	for c := 1 + rng.Intn(2); c > 0; c-- {
		lo := ir.Affine{Const: small(4), Coeff: []int64{0, 0}}
		hi := ir.Affine{Const: int64(rng.Intn(24)), Coeff: []int64{0, 0}}
		switch rng.Intn(4) {
		case 0: // lower triangle
			hi.Coeff[0] = 1
		case 1: // upper triangle
			lo.Coeff[0] = 1
			hi.Const += 24
		case 2: // shrinking rows, empty past the diagonal
			hi.Coeff[0] = -1
		}
		label := []int{1, len(outer.Loops) + 1}
		leaf := &ir.NLoop{Bound: ir.NBound{Lo: lo, Hi: hi}}
		bounds := []ir.NBound{outer.Bound, leaf.Bound}
		for s := 1 + rng.Intn(3); s > 0; s-- {
			st := &ir.NStmt{Label: label, Bounds: bounds, Name: fmt.Sprintf("S%d", len(np.Stmts)+1)}
			for g := rng.Intn(3); g > 0; g-- {
				expr := ir.Affine{Const: small(20), Coeff: []int64{small(2), small(2)}}
				st.Guards = append(st.Guards, ir.NConstraint{Expr: expr, IsEq: rng.Intn(4) == 0})
			}
			for r := 1 + rng.Intn(3); r > 0; r-- {
				arr := &ir.Array{Name: fmt.Sprintf("A%d", len(np.Refs)), ElemSize: 1 + int64(rng.Intn(16)),
					Dims: []int64{0}, Base: int64(rng.Intn(1 << 16))}
				sub := ir.Affine{Const: small(50), Coeff: []int64{stride(), stride()}}
				ref := &ir.NRef{Array: arr, Subs: []ir.Affine{sub}, Write: rng.Intn(2) == 0,
					Stmt: st, Seq: len(np.Refs), ID: fmt.Sprintf("%s.r%d", st.Name, len(st.Refs))}
				st.Refs = append(st.Refs, ref)
				np.Refs = append(np.Refs, ref)
			}
			leaf.Stmts = append(leaf.Stmts, st)
			np.Stmts = append(np.Stmts, st)
		}
		outer.Loops = append(outer.Loops, leaf)
	}
	np.Top = []*ir.NLoop{outer}
	return np
}

// FuzzSetWalkVsScan: on random nests, windows and time pairs, the
// set-filtered walk visits exactly the in-window accesses the generic
// walker produces, in the same order, with the same positions and the
// same total; an early stop returns the stop position. Each input checks
// a random nest of depth 1–4 and a two-level rowNest, whose long row runs
// exercise the row driver's jumps and skipped-row counts.
func FuzzSetWalkVsScan(f *testing.F) {
	f.Add(int64(1), uint32(96), uint32(32), int64(64))
	f.Add(int64(2), uint32(64), uint32(32), int64(0))
	f.Add(int64(3), uint32(20), uint32(7), int64(-13))
	f.Add(int64(4), uint32(1), uint32(1), int64(0))
	f.Add(int64(5), uint32(1<<31+37), uint32(24), int64(5))
	f.Add(int64(6), uint32(256), uint32(32), int64(-200)) // masked period, negative Lo
	f.Add(int64(7), uint32(8192), uint32(32), int64(96))  // masked period, rows rarely wrap
	f.Add(int64(8), uint32(1000), uint32(8), int64(-3))   // % period, strides beyond the width
	f.Fuzz(func(t *testing.T, seed int64, period, width uint32, lo int64) {
		rng := rand.New(rand.NewSource(seed))
		p := int64(period)
		if p < 1 || p > 1<<33 {
			p = 1 + p%997
		}
		win := Window{Period: p, Lo: lo % (4 * p), Width: 1 + int64(width)%p}
		fuzzWalks(t, rng, randomNest(rng), win)
		fuzzWalks(t, rng, rowNest(rng), win)
	})
}

// fuzzWalks checks walks between random access pairs of np, both ways,
// to the end and stopped early.
func fuzzWalks(t *testing.T, rng *rand.Rand, np *ir.NProgram, win Window) {
	acc := collect(np)
	if len(acc) == 0 || len(acc) > 20000 {
		return
	}
	w := NewWalker(np)
	for trial := 0; trial < 8; trial++ {
		x, y := rng.Intn(len(acc)), rng.Intn(len(acc))
		if trial > 0 && x > y {
			x, y = y, x
		}
		a := Time{Label: acc[x].ref.Stmt.Label, Idx: acc[x].idx, Seq: acc[x].ref.Seq}
		b := Time{Label: acc[y].ref.Stmt.Label, Idx: acc[y].idx, Seq: acc[y].ref.Seq}
		for _, rev := range []bool{false, true} {
			checkWalk(t, np.Name, np, w, a, b, win, rev, -1)
			checkWalk(t, np.Name, np, w, a, b, win, rev, rng.Intn(4))
		}
	}
}

// walkRecs runs one filtered walk and returns its visits and its result.
func walkRecs(w *Walker, a, b Time, win Window, rev bool) ([]walkRec, int64) {
	var got []walkRec
	visit := func(r *ir.NRef, addr, pos int64) bool {
		got = append(got, walkRec{r, addr, pos})
		return true
	}
	if rev {
		return got, w.BetweenReverse(a, b, win, visit)
	}
	return got, w.Between(a, b, win, visit)
}

// TestWalkerReusedAcrossWindows: one Walker serves walks whose windows
// alternate between a power-of-two period (reduced by mask), a
// non-power-of-two period (floorMod) and a negative Lo, as a fused walk's
// period changes with its pending set counts. Every walk must equal a
// fresh Walker's and the one-by-one oracle's, so a step residue cached
// for the previous period cannot leak into the next walk.
func TestWalkerReusedAcrossWindows(t *testing.T) {
	wins := []Window{
		{Period: 64, Lo: 32, Width: 32},
		{Period: 96, Lo: 24, Width: 24},
		{Period: 256, Lo: -200, Width: 32},
		{Period: 20, Lo: -7, Width: 4},
		{Period: 1, Lo: 0, Width: 1},
	}
	walked := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		np := randomNest(rng)
		acc := collect(np)
		if len(acc) < 2 || len(acc) > 20000 {
			continue
		}
		w := NewWalker(np)
		for trial := 0; trial < 6; trial++ {
			x, y := rng.Intn(len(acc)), rng.Intn(len(acc))
			if x > y {
				x, y = y, x
			}
			a := Time{Label: acc[x].ref.Stmt.Label, Idx: acc[x].idx, Seq: acc[x].ref.Seq}
			b := Time{Label: acc[y].ref.Stmt.Label, Idx: acc[y].idx, Seq: acc[y].ref.Seq}
			for k := range wins {
				win := wins[(k+trial)%len(wins)]
				for _, rev := range []bool{false, true} {
					name := fmt.Sprintf("seed %d", seed)
					checkWalk(t, name, np, w, a, b, win, rev, -1)
					got, gotN := walkRecs(w, a, b, win, rev)
					want, wantN := walkRecs(NewWalker(np), a, b, win, rev)
					if gotN != wantN || len(got) != len(want) {
						t.Fatalf("%s rev=%v win=%+v: reused walker %d visits/%d, fresh %d/%d",
							name, rev, win, len(got), gotN, len(want), wantN)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s rev=%v win=%+v: visit %d differs: reused %v, fresh %v",
								name, rev, win, i, got[i], want[i])
						}
					}
					walked++
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no nest produced a walk")
	}
}

// BenchmarkFirstIn times the two searches firstIn chooses between on
// Applu's 32KB/32B direct-mapped window (period 32768, width 32): stepping
// the residue, whose cost grows with the limit, and minMulIn, whose cost
// does not. Their crossover sets stepLimit.
func BenchmarkFirstIn(b *testing.B) {
	const p, width = 32768, 32
	rng := rand.New(rand.NewSource(1))
	type in struct{ t, step int64 }
	ins := make([]in, 1024)
	for i := range ins {
		ins[i] = in{width + rng.Int63n(p-width), 1 + rng.Int63n(p-1)}
	}
	var sink int64
	for _, limit := range []int64{32, 64, 128} {
		b.Run(fmt.Sprintf("step/limit=%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := ins[i%len(ins)]
				sink += stepIn(x.t, x.step, p, width, limit)
			}
		})
		b.Run(fmt.Sprintf("euclid/limit=%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := ins[i%len(ins)]
				sink += minMulIn(x.step, p, p-x.t, p-x.t+width-1, limit)
			}
		})
	}
	if sink == 1 {
		b.Log(sink)
	}
}

// TestFirstInMatchesStepping: the solved first in-window step equals the
// first one found by stepping the residue, for every residue and stride
// of small periods and windows.
func TestFirstInMatchesStepping(t *testing.T) {
	for p := int64(1); p <= 40; p++ {
		for width := int64(1); width <= p; width++ {
			for step := int64(0); step < p; step++ {
				for r := int64(0); r < p; r++ {
					want := int64(-1)
					for k, x := int64(0), r; k <= 2*p; k++ {
						if x < width {
							want = k
							break
						}
						x = (x + step) % p
					}
					for _, limit := range []int64{2 * p, want, want - 1} {
						exp := want
						if want > limit {
							exp = -1
						}
						if limit < 0 {
							continue
						}
						if got := firstIn(r, step, p, width, limit); got != exp {
							t.Fatalf("firstIn(t=%d, step=%d, p=%d, width=%d, limit=%d) = %d, want %d", r, step, p, width, limit, got, exp)
						}
					}
				}
			}
		}
	}
}
