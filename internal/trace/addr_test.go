package trace

import (
	"math/rand"
	"testing"

	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

// guardedNest builds a 3-deep nest with a guard and a triangular bound, so
// the strength-reduced walkers face non-rectangular row shapes.
func guardedNest(n int64) *ir.NProgram {
	b := ir.NewSub("g")
	A := b.Real8("A", n, n)
	B := b.Real8("B", n*n)
	i, j, k := ir.Var("I"), ir.Var("J"), ir.Var("K")
	b.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), i). // J <= I
		Do("K", ir.Con(1), ir.Con(n)).
		IfCond(ir.Cond{LHS: k, Op: ir.GE, RHS: j}).
		Assign("S1", ir.R(A, k, i), ir.R(B, j.Scale(2).Plus(k))).
		End().
		Assign("S2", ir.R(B, i.Plus(k)), ir.R(A, k, j)).
		End().End().End()
	np, err := normalize.Normalize(b.Build())
	if err != nil {
		panic(err)
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		panic(err)
	}
	return np
}

// TestExecuteAddrMatchesExecute: the prepared executor must visit the same
// accesses in the same order as the generic one, with matching addresses.
func TestExecuteAddrMatchesExecute(t *testing.T) {
	for name, np := range map[string]*ir.NProgram{"twoNests": twoNests(6), "guarded": guardedNest(5)} {
		type rec struct {
			ref  *ir.NRef
			addr int64
		}
		var want []rec
		Execute(np, func(r *ir.NRef, idx []int64) bool {
			want = append(want, rec{r, r.AddressAt(idx)})
			return true
		})
		var got []rec
		ExecuteAddr(np, func(r *ir.NRef, _ []int64, addr int64) bool {
			got = append(got, rec{r, addr})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: ExecuteAddr visited %d accesses, Execute %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: access %d: got %v want %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestWalkerMatchesVisitBetween: for random access-time pairs, the
// prepared Walker must visit exactly the in-window accesses (addresses and
// positions) the generic interval walkers produce, in both directions,
// unfiltered and under line-wide windows of power-of-two and other
// periods.
func TestWalkerMatchesVisitBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wins := []Window{allAccesses, {Period: 64, Lo: 32, Width: 32}, {Period: 96, Lo: 64, Width: 32},
		{Period: 72, Lo: -24, Width: 24}, {Period: 8, Lo: 0, Width: 8}}
	for name, np := range map[string]*ir.NProgram{"twoNests": twoNests(5), "guarded": guardedNest(4)} {
		acc := collect(np)
		times := make([]Time, len(acc))
		for i, a := range acc {
			times[i] = Time{Label: a.ref.Stmt.Label, Idx: a.idx, Seq: a.ref.Seq}
		}
		w := NewWalker(np)
		for trial := 0; trial < 60; trial++ {
			x, y := rng.Intn(len(times)), rng.Intn(len(times))
			if x > y {
				x, y = y, x
			}
			for _, win := range wins {
				for _, rev := range []bool{false, true} {
					checkWalk(t, name, np, w, times[x], times[y], win, rev, -1)
				}
			}
		}
	}
}

// TestWalkerEarlyStop: returning false stops the walk exactly there, and
// the walk returns the stopping access's position.
func TestWalkerEarlyStop(t *testing.T) {
	np := twoNests(5)
	acc := collect(np)
	a := Time{Label: acc[0].ref.Stmt.Label, Idx: acc[0].idx, Seq: acc[0].ref.Seq}
	b := Time{Label: acc[len(acc)-1].ref.Stmt.Label, Idx: acc[len(acc)-1].idx, Seq: acc[len(acc)-1].ref.Seq}
	w := NewWalker(np)
	for _, rev := range []bool{false, true} {
		n := 0
		var last int64
		visit := func(_ *ir.NRef, _, pos int64) bool { n++; last = pos; return n < 4 }
		var got int64
		if rev {
			got = w.BetweenReverse(a, b, allAccesses, visit)
		} else {
			got = w.Between(a, b, allAccesses, visit)
		}
		if n != 4 || got != 4 || last != 4 {
			t.Fatalf("rev=%v: early stop visited %d accesses and returned %d (last position %d), want 4", rev, n, got, last)
		}
	}
}
