package trace

import "cachemodel/internal/ir"

// The generic interval walkers below are the tests' oracle for Walker:
// they visit every access of an interval, one by one, with no row plans,
// no window and no arithmetic positions.

// VisitBetween visits every access with time strictly between a and b, in
// execution order. Return false from visit to stop early.
func VisitBetween(np *ir.NProgram, a, b Time, visit func(r *ir.NRef, idx []int64) bool) {
	if Compare(a, b) >= 0 {
		return
	}
	idx := make([]int64, np.Depth)
	w := &rangeWalker{np: np, a: a, b: b, visit: visit}
	for p, nl := range np.Top {
		lt, ht := true, true
		pos := p + 1
		if lt && pos < a.Label[0] {
			continue
		}
		if ht && pos > b.Label[0] {
			break
		}
		lt = lt && pos == a.Label[0]
		ht = ht && pos == b.Label[0]
		if !w.walk(nl, 1, idx, lt, ht) {
			return
		}
	}
}

type rangeWalker struct {
	np    *ir.NProgram
	a, b  Time
	visit func(*ir.NRef, []int64) bool
}

// walk enumerates the subtree at the given depth. lt (ht) indicates that
// the label/index prefix chosen so far equals a's (b's) prefix exactly, so
// the corresponding boundary still constrains deeper choices.
func (w *rangeWalker) walk(nl *ir.NLoop, depth int, idx []int64, lt, ht bool) bool {
	n := w.np.Depth
	lo := nl.Bound.Lo.Eval(idx)
	hi := nl.Bound.Hi.Eval(idx)
	from, to := lo, hi
	if lt && w.a.Idx[depth-1] > from {
		from = w.a.Idx[depth-1]
	}
	if ht && w.b.Idx[depth-1] < to {
		to = w.b.Idx[depth-1]
	}
	for v := from; v <= to; v++ {
		idx[depth-1] = v
		vlt := lt && v == w.a.Idx[depth-1]
		vht := ht && v == w.b.Idx[depth-1]
		if depth == n {
			for _, st := range nl.Stmts {
				if !st.GuardHolds(idx) {
					continue
				}
				for _, r := range st.Refs {
					if vlt && r.Seq <= w.a.Seq {
						continue
					}
					if vht && r.Seq >= w.b.Seq {
						continue
					}
					if !w.visit(r, idx) {
						return false
					}
				}
			}
			continue
		}
		for p, c := range nl.Loops {
			pos := p + 1
			if vlt && pos < w.a.Label[depth] {
				continue
			}
			if vht && pos > w.b.Label[depth] {
				break
			}
			clt := vlt && pos == w.a.Label[depth]
			cht := vht && pos == w.b.Label[depth]
			if !w.walk(c, depth+1, idx, clt, cht) {
				return false
			}
		}
	}
	return true
}

// VisitBetweenReverse visits every access with time strictly between a
// and b in REVERSE execution order (most recent first). The replacement
// equations scan backwards from the consumer so that the first touch of
// the reused line encountered is the line's most recent fetch, after
// which no older contention matters — giving exact LRU with early exit.
func VisitBetweenReverse(np *ir.NProgram, a, b Time, visit func(r *ir.NRef, idx []int64) bool) {
	if Compare(a, b) >= 0 {
		return
	}
	idx := make([]int64, np.Depth)
	w := &rangeWalker{np: np, a: a, b: b, visit: visit}
	for p := len(np.Top) - 1; p >= 0; p-- {
		lt, ht := true, true
		pos := p + 1
		if lt && pos < a.Label[0] {
			break
		}
		if ht && pos > b.Label[0] {
			continue
		}
		lt = lt && pos == a.Label[0]
		ht = ht && pos == b.Label[0]
		if !w.walkRev(np.Top[p], 1, idx, lt, ht) {
			return
		}
	}
}

// walkRev is the descending mirror of walk.
func (w *rangeWalker) walkRev(nl *ir.NLoop, depth int, idx []int64, lt, ht bool) bool {
	n := w.np.Depth
	lo := nl.Bound.Lo.Eval(idx)
	hi := nl.Bound.Hi.Eval(idx)
	from, to := lo, hi
	if lt && w.a.Idx[depth-1] > from {
		from = w.a.Idx[depth-1]
	}
	if ht && w.b.Idx[depth-1] < to {
		to = w.b.Idx[depth-1]
	}
	for v := to; v >= from; v-- {
		idx[depth-1] = v
		vlt := lt && v == w.a.Idx[depth-1]
		vht := ht && v == w.b.Idx[depth-1]
		if depth == n {
			for si := len(nl.Stmts) - 1; si >= 0; si-- {
				st := nl.Stmts[si]
				if !st.GuardHolds(idx) {
					continue
				}
				for ri := len(st.Refs) - 1; ri >= 0; ri-- {
					r := st.Refs[ri]
					if vlt && r.Seq <= w.a.Seq {
						continue
					}
					if vht && r.Seq >= w.b.Seq {
						continue
					}
					if !w.visit(r, idx) {
						return false
					}
				}
			}
			continue
		}
		for p := len(nl.Loops) - 1; p >= 0; p-- {
			pos := p + 1
			if vlt && pos < w.a.Label[depth] {
				break
			}
			if vht && pos > w.b.Label[depth] {
				continue
			}
			clt := vlt && pos == w.a.Label[depth]
			cht := vht && pos == w.b.Label[depth]
			if !w.walkRev(nl.Loops[p], depth+1, idx, clt, cht) {
				return false
			}
		}
	}
	return true
}
