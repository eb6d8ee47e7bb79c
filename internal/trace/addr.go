// Strength-reduced execution and set-filtered interval walkers. Both
// flatten each reference's address affine once, hoist the depth-prefix of
// the address and of every guard out of the innermost loop, and reuse one
// scratch index vector, so an access of the inner loop costs a single
// multiply-add. The interval walker goes further: it solves, per leaf
// row, which accesses fall in the caller's address window, and, along the
// loop that drives the leaf rows, which rows can hold one (see Walker).
package trace

import (
	"math"
	"math/bits"
	"slices"

	"cachemodel/internal/ir"
)

// refPlan is the flattened per-reference address affine: addr(idx) =
// Const + Σ Coeff[k]·idx[k]. Inner is the innermost coefficient, split out
// so leaf rows evaluate addr = rowBase + Inner·v; the prefix Σ_{k<n−1}
// Coeff[k]·idx[k] is shared by every affine of the leaf loop with the same
// prefix coefficients (its class, see loopPlan.pre).
type refPlan struct {
	konst int64
	cls   int   // prefix class in the leaf loop
	inner int64 // coeff[np.Depth-1]
	seq   int   // ref.Seq
	outer int64 // coeff[np.Depth-2], the row-driving index's (0 at depth 1)
	ref   *ir.NRef
	// The Walker's residue change per innermost value walked, forward
	// (inner mod stepP) and reverse (−inner mod stepP), and per outer
	// value walked (±outer mod stepP), cached for the window period stepP
	// (0 = not yet computed).
	stepP, stepFwd, stepRev, outFwd, outRev int64
	// Row-driver scratch (Walker.interior): the shifted residue offset and
	// circular window width of the run's row test at its anchor row (jWide
	// < 0: no row has accesses), and the next row that may contend (noHit:
	// none).
	jOff, jWide, rowNext int64
}

// guardPlan mirrors one guard constraint with its innermost coefficient
// split out: the guard holds at the leaf iff rowBase + Inner·v ⋈ 0.
type guardPlan struct {
	konst int64
	cls   int
	inner int64
	isEq  bool
}

// stmtPlan is the per-statement leaf plan.
type stmtPlan struct {
	stmt   *ir.NStmt
	guards []guardPlan
	refs   []refPlan
	// dot aliases the leaf loop's prefix values of the current row, so a
	// reference's row base is konst + dot[cls]; guardBase holds the
	// guards' row bases.
	dot       []int64
	guardBase []int64
	// seqLo and seqHi bound the references' Seq, so a's and b's rows
	// skip a statement wholly before a or after b at once.
	seqLo, seqHi int
	// Walker span scratch: the statement's live innermost range [lo, hi]
	// and each reference's next in-window value (noHit when none).
	lo, hi int64
	next   []int64
}

// rowEnter hoists the depth-prefix of every guard and address affine of
// the leaf loop for the current idx prefix (idx[n-1] is about to sweep):
// one dot product per prefix class, then the guards' row bases. It also
// saves the prefix values as the row driver's anchor (dot0).
func (lp *loopPlan) rowEnter(idx []int64) {
	for c, co := range lp.pre {
		var v int64
		for k, x := range co {
			if x != 0 {
				v += x * idx[k]
			}
		}
		lp.dot[c], lp.dot0[c] = v, v
	}
	lp.guardsEnter()
}

// rowAt moves the prefix values to the row dx outer values past the row
// driver's anchor row.
func (lp *loopPlan) rowAt(dx int64) {
	for c, x := range lp.dot0 {
		lp.dot[c] = x + lp.outC[c]*dx
	}
	lp.guardsEnter()
}

// guardsEnter sets the guards' row bases from the prefix values.
func (lp *loopPlan) guardsEnter() {
	for _, sp := range lp.stmts {
		for i := range sp.guards {
			sp.guardBase[i] = sp.guards[i].konst + sp.dot[sp.guards[i].cls]
		}
	}
}

// base returns reference i's row base: its address at innermost value 0.
func (sp *stmtPlan) base(i int) int64 {
	return sp.refs[i].konst + sp.dot[sp.refs[i].cls]
}

// live sets [lo, hi] to the innermost values in [m1, m2] at which every
// guard holds. A guard is affine in v, so each bounds v on one side, or
// pins it (equality), or holds everywhere or nowhere (no v term).
func (sp *stmtPlan) live(m1, m2 int64) {
	lo, hi := m1, m2
	for i := range sp.guards {
		g := &sp.guards[i]
		base, c := sp.guardBase[i], g.inner
		switch {
		case c == 0:
			if base < 0 || g.isEq && base != 0 {
				lo, hi = 1, 0
			}
		case g.isEq:
			if base%c != 0 {
				lo, hi = 1, 0
			} else {
				lo, hi = max(lo, -base/c), min(hi, -base/c)
			}
		case c > 0: // base + c·v ≥ 0 ⇔ v ≥ ⌈−base/c⌉
			lo = max(lo, ceilDiv(-base, c))
		default: // ⇔ v ≤ ⌊base/−c⌋
			hi = min(hi, floorDiv(base, -c))
		}
	}
	sp.lo, sp.hi = lo, hi
}

// guardsHold evaluates all guards at innermost value v from the hoisted
// prefixes.
func (sp *stmtPlan) guardsHold(v int64) bool {
	for i := range sp.guards {
		g := &sp.guards[i]
		val := sp.guardBase[i] + g.inner*v
		if g.isEq {
			if val != 0 {
				return false
			}
		} else if val < 0 {
			return false
		}
	}
	return true
}

// newStmtPlan flattens the statement's guards and references; class
// interns an affine's prefix coefficients in the leaf loop.
func newStmtPlan(st *ir.NStmt, n int, class func(a ir.Affine) int) *stmtPlan {
	sp := &stmtPlan{stmt: st, seqLo: math.MaxInt, seqHi: math.MinInt}
	outer := func(a ir.Affine) int64 {
		if n > 1 {
			return a.At(n - 1)
		}
		return 0
	}
	for _, g := range st.Guards {
		sp.guards = append(sp.guards, guardPlan{konst: g.Expr.Const, cls: class(g.Expr),
			inner: g.Expr.At(n), isEq: g.IsEq})
	}
	for _, r := range st.Refs {
		aff := r.AddressAffine()
		sp.refs = append(sp.refs, refPlan{ref: r, konst: aff.Const, cls: class(aff),
			inner: aff.At(n), seq: r.Seq, outer: outer(aff)})
		sp.seqLo, sp.seqHi = min(sp.seqLo, r.Seq), max(sp.seqHi, r.Seq)
	}
	sp.guardBase = make([]int64, len(sp.guards))
	sp.next = make([]int64, len(sp.refs))
	return sp
}

// loopPlan is one loop of the prepared tree: its bounds and its child
// loops, or at the leaf depth its statements' plans. Walks descend the
// plan tree instead of looking plans up per row, and never allocate.
type loopPlan struct {
	bound ir.NBound
	kids  []*loopPlan
	stmts []*stmtPlan
	// A leaf loop's bounds move by loC and hiC per value of the index
	// that drives its rows (idx[np.Depth-2]); lo0 and hi0 are the bounds
	// at the row driver's anchor row. nrefs counts the references of all
	// its statements, guarded whether any statement has guards.
	loC, hiC, lo0, hi0 int64
	nrefs              int64
	guarded            bool
	// pre holds the distinct prefix coefficient vectors (idx[0..n-2]) of
	// the leaf loop's affines, outC their row-driving coefficients, dot
	// their values at the current row and dot0 at the anchor row.
	pre             [][]int64
	outC, dot, dot0 []int64
}

// planTree prepares the loop tree of np. Building it is cheap (linear in
// program text) relative to any walk, and one tree is reusable across
// runs by a single goroutine.
func planTree(np *ir.NProgram) []*loopPlan {
	var rec func(nl *ir.NLoop) *loopPlan
	rec = func(nl *ir.NLoop) *loopPlan {
		lp := &loopPlan{bound: nl.Bound}
		if np.Depth > 1 {
			lp.loC, lp.hiC = nl.Bound.Lo.At(np.Depth-1), nl.Bound.Hi.At(np.Depth-1)
		}
		class := func(a ir.Affine) int {
			co := make([]int64, np.Depth-1)
			for k := range co {
				co[k] = a.At(k + 1)
			}
			for c, x := range lp.pre {
				if slices.Equal(x, co) {
					return c
				}
			}
			lp.pre = append(lp.pre, co)
			return len(lp.pre) - 1
		}
		for _, st := range nl.Stmts {
			lp.stmts = append(lp.stmts, newStmtPlan(st, np.Depth, class))
			lp.nrefs += int64(len(st.Refs))
			lp.guarded = lp.guarded || len(st.Guards) > 0
		}
		lp.dot = make([]int64, len(lp.pre))
		lp.dot0 = make([]int64, len(lp.pre))
		lp.outC = make([]int64, len(lp.pre))
		for c, co := range lp.pre {
			if np.Depth > 1 {
				lp.outC[c] = co[np.Depth-2]
			}
		}
		for _, sp := range lp.stmts {
			sp.dot = lp.dot
		}
		for _, c := range nl.Loops {
			lp.kids = append(lp.kids, rec(c))
		}
		return lp
	}
	top := make([]*loopPlan, len(np.Top))
	for i, nl := range np.Top {
		top[i] = rec(nl)
	}
	return top
}

// ExecuteAddr visits every reference access in execution order like
// Execute, additionally passing the precomputed byte address. Arrays must
// be laid out. The idx slice is reused; copy it if retained.
func ExecuteAddr(np *ir.NProgram, visit func(r *ir.NRef, idx []int64, addr int64) bool) {
	idx := make([]int64, np.Depth)
	for _, lp := range planTree(np) {
		if !execAddr(lp, 1, idx, visit) {
			return
		}
	}
}

func execAddr(lp *loopPlan, depth int, idx []int64, visit func(*ir.NRef, []int64, int64) bool) bool {
	n := len(idx)
	lo := lp.bound.Lo.Eval(idx)
	hi := lp.bound.Hi.Eval(idx)
	if depth == n {
		// Leaf row: hoist guard and address prefixes, then sweep the
		// innermost index with one multiply-add per access.
		if lo > hi {
			return true
		}
		lp.rowEnter(idx)
		for v := lo; v <= hi; v++ {
			idx[n-1] = v
			for _, sp := range lp.stmts {
				if !sp.guardsHold(v) {
					continue
				}
				for i := range sp.refs {
					r := &sp.refs[i]
					if !visit(r.ref, idx, sp.base(i)+r.inner*v) {
						return false
					}
				}
			}
		}
		return true
	}
	for v := lo; v <= hi; v++ {
		idx[depth-1] = v
		for _, c := range lp.kids {
			if !execAddr(c, depth+1, idx, visit) {
				return false
			}
		}
	}
	return true
}

// Window selects the accesses a filtered walk hands to its visitor: those
// whose byte address addr satisfies (addr − Lo) mod Period < Width. The
// replacement equations pass Period = LineBytes·g and the line-wide window
// of the consumer's line mod g, where g divides every candidate's set
// count, so the visitor sees every access that can map to the consumer's
// set. Period ≥ 1 and 1 ≤ Width ≤ Period.
type Window struct {
	Period, Lo, Width int64
}

// Visitor receives one in-window access of a filtered walk: its
// reference, byte address and 1-based position among all accesses of the
// interval in walk order. Return false to stop the walk.
type Visitor func(r *ir.NRef, addr, pos int64) bool

// Walker is a prepared, allocation-free interval walker for one program:
// the replacement equations call Between/BetweenReverse millions of times,
// so the walker owns its scratch index vector and per-statement plans
// instead of rebuilding them per walk. A Walker is not safe for concurrent
// use; give each worker goroutine its own (NewWalker is cheap).
//
// A walk is set-filtered at two levels. Inside a leaf row only the
// accesses in the window are produced: each reference's next in-window
// value of the innermost index is solved from its address residue and
// stride (firstIn), the references are merged in walk order, and
// positions are counted arithmetically, so a row costs O(references) plus
// O(1) per in-window access instead of O(accesses). Along the loop that
// drives the leaf rows (depth np.Depth-1), each reference's row residue
// moves by its outer stride, so one firstIn per reference jumps to the
// next row in which it can touch the window; rows no reference can
// contend in are never entered, and their accesses are counted from
// their bounds.
type Walker struct {
	top   []*loopPlan
	idx   []int64
	a, b  Time
	win   Window
	mask  int64 // win.Period-1 when the period is a power of two, else -1
	rev   bool
	visit Visitor
	pos   int64 // accesses of the interval passed so far
	v0    int64 // the row driver's anchor row (interior)
	hot   int64 // the interior row the run's jumps reached, else noHit
	rows  int64 // leaf rows entered by the walk in progress or the last one
}

// NewWalker prepares a walker for the program. Arrays must be laid out.
func NewWalker(np *ir.NProgram) *Walker {
	return &Walker{top: planTree(np), idx: make([]int64, np.Depth)}
}

// Between walks the accesses with time strictly between a and b in
// execution order and calls visit for those in the window, with their
// positions among all accesses of the interval. It returns the position
// at which visit stopped the walk, or else the interval's access count.
func (w *Walker) Between(a, b Time, win Window, visit Visitor) int64 {
	return w.run(a, b, win, false, visit)
}

// BetweenReverse is Between in reverse execution order (most recent
// first); positions count from b backwards.
func (w *Walker) BetweenReverse(a, b Time, win Window, visit Visitor) int64 {
	return w.run(a, b, win, true, visit)
}

// Rows returns the leaf rows the last walk entered: rows in which some
// reference passed the row test and was searched, as opposed to rows
// skipped and counted from their bounds, or whose accesses were only
// counted and checked one by one at a's or b's own innermost value.
func (w *Walker) Rows() int64 { return w.rows }

func (w *Walker) run(a, b Time, win Window, rev bool, visit Visitor) int64 {
	w.rows = 0
	if Compare(a, b) >= 0 {
		return 0
	}
	w.a, w.b, w.win, w.rev, w.visit, w.pos, w.hot = a, b, win, rev, visit, 0, noHit
	w.mask = -1
	if win.Period&(win.Period-1) == 0 {
		w.mask = win.Period - 1
	}
	w.loops(w.top, 0, true, true)
	w.visit = nil
	return w.pos
}

// loops walks the sibling loops at label depth k (0-based). lt (ht)
// indicates that the label/index prefix chosen so far equals a's (b's)
// prefix exactly, so the corresponding boundary still constrains deeper
// choices.
func (w *Walker) loops(ls []*loopPlan, k int, lt, ht bool) bool {
	first, last := 1, len(ls)
	if lt && w.a.Label[k] > first {
		first = w.a.Label[k]
	}
	if ht && w.b.Label[k] < last {
		last = w.b.Label[k]
	}
	for j := first; j <= last; j++ {
		p := j
		if w.rev {
			p = first + last - j
		}
		if !w.walk(ls[p-1], k+1, lt && p == w.a.Label[k], ht && p == w.b.Label[k]) {
			return false
		}
	}
	return true
}

func (w *Walker) walk(lp *loopPlan, depth int, lt, ht bool) bool {
	idx := w.idx
	from := lp.bound.Lo.Eval(idx)
	to := lp.bound.Hi.Eval(idx)
	if lt && w.a.Idx[depth-1] > from {
		from = w.a.Idx[depth-1]
	}
	if ht && w.b.Idx[depth-1] < to {
		to = w.b.Idx[depth-1]
	}
	if from > to {
		return true
	}
	switch depth {
	case len(idx):
		return w.row(lp, from, to, lt, ht)
	case len(idx) - 1:
		return w.drive(lp, from, to, lt, ht)
	}
	for j := from; j <= to; j++ {
		v := j
		if w.rev {
			v = from + to - j
		}
		idx[depth-1] = v
		if !w.loops(lp.kids, depth, lt && v == w.a.Idx[depth-1], ht && v == w.b.Idx[depth-1]) {
			return false
		}
	}
	return true
}

// drive walks the rows of lp, the loop whose children are the leaf loops,
// over its values [from, to]. The values equal to a's or b's index at
// this depth, below which the Seq and deeper index bounds apply, go
// through the generic recursion; everything between them is one interior
// run of unconstrained rows.
func (w *Walker) drive(lp *loopPlan, from, to int64, lt, ht bool) bool {
	d := len(w.idx) - 2
	aEnd := lt && from == w.a.Idx[d]
	bEnd := ht && to == w.b.Idx[d]
	one := from == to
	m1, m2 := from, to
	if aEnd {
		m1++
	}
	if bEnd {
		m2--
	}
	if w.rev {
		if bEnd && !w.edge(lp, to, lt, ht) {
			return false
		}
		if m1 <= m2 && !w.interior(lp, m1, m2) {
			return false
		}
		if aEnd && !(bEnd && one) {
			return w.edge(lp, from, lt, ht)
		}
		return true
	}
	if aEnd && !w.edge(lp, from, lt, ht) {
		return false
	}
	if m1 <= m2 && !w.interior(lp, m1, m2) {
		return false
	}
	if bEnd && !(aEnd && one) {
		return w.edge(lp, to, lt, ht)
	}
	return true
}

// edge walks the leaf loops of lp at its value v, a or b's own row.
func (w *Walker) edge(lp *loopPlan, v int64, lt, ht bool) bool {
	d := len(w.idx) - 2
	w.idx[d] = v
	return w.loops(lp.kids, d+1, lt && v == w.a.Idx[d], ht && v == w.b.Idx[d])
}

// interior walks the rows of lp at its values [m1, m2], every leaf loop in
// full. The bounds, guard bases and reference row bases of the leaf loops
// are affine in the row, so they are taken once at the anchor row m1 and
// moved by their outer coefficients. Each reference's rowNext is the next
// row, in walk order, whose accesses can touch the window (aim, jump); the
// rows before the earliest rowNext are skipped and counted (rowsTotal),
// and only that row is walked (hotRow), searching only the references
// whose jump landed there. When some reference's run test covers the
// whole period, every row would be reached anyway: the rows are then
// walked one by one, each reference tested per row.
func (w *Walker) interior(lp *loopPlan, m1, m2 int64) bool {
	d := len(w.idx) - 2
	w.idx[d], w.v0 = m1, m1
	wraps := false
	for _, k := range lp.kids {
		k.lo0, k.hi0 = k.bound.Lo.Eval(w.idx), k.bound.Hi.Eval(w.idx)
		// Every row's innermost values lie in [umin, umax]: both bounds
		// are affine in the row, so their extremes are at the run's ends.
		umin := min(k.lo0, k.lo0+k.loC*(m2-m1))
		umax := max(k.hi0, k.hi0+k.hiC*(m2-m1))
		k.rowEnter(w.idx)
		for _, sp := range k.stmts {
			for i := range sp.refs {
				wraps = !w.aim(sp, i, umin, umax) || wraps
			}
		}
	}
	v, last, dir := m1, m2, int64(1)
	if w.rev {
		v, last, dir = m2, m1, -1
	}
	if wraps {
		for ; ; v += dir {
			if !w.hotRow(lp, v) {
				return false
			}
			if v == last {
				return true
			}
		}
	}
	for _, k := range lp.kids {
		for _, sp := range k.stmts {
			for i := range sp.refs {
				r := &sp.refs[i]
				r.rowNext = w.jump(r, v, last)
			}
		}
	}
	for {
		hot := w.nextRow(lp)
		if hot == noHit {
			w.pos += w.rowsTotal(lp, min(v, last), max(v, last))
			return true
		}
		if hot != v {
			w.pos += w.rowsTotal(lp, min(v, hot-dir), max(v, hot-dir))
		}
		w.hot = hot
		ok := w.hotRow(lp, hot)
		w.hot = noHit
		if !ok {
			return false
		}
		if hot == last {
			return true
		}
		v = hot + dir
		for _, k := range lp.kids {
			for _, sp := range k.stmts {
				for i := range sp.refs {
					if r := &sp.refs[i]; r.rowNext == hot {
						r.rowNext = w.jump(r, v, last)
					}
				}
			}
		}
	}
}

// aim prepares reference r's row test for the interior run whose rows
// keep their innermost values inside [umin, umax]. Walked in residue
// order, the run's accesses of r from one row are residues t, t+s, …,
// t+s·K (mod p), with s the smaller of r's forward and reverse inner
// steps, t the residue at the matching end (umin forward, umax reverse)
// and K = umax−umin. One of them lies in [0, width) only if t lies in the
// circular window [p − s·K, width), i.e. (t + s·K) mod p < width + s·K:
// exact when s ≤ width, a sound superset otherwise. When width + s·K ≥ p
// the window covers the circle, every row may contend, and aim reports
// false.
func (w *Walker) aim(sp *stmtPlan, i int, umin, umax int64) bool {
	r := &sp.refs[i]
	if umin > umax {
		r.jWide = -1 // every row of the run is empty
		return true
	}
	w.steps(r)
	s, anchor := r.stepFwd, umin
	if r.stepRev < s {
		s, anchor = r.stepRev, umax
	}
	spread, ok := w.spread(s, umax-umin)
	if !ok {
		return false
	}
	r.jOff = sp.base(i) + r.inner*anchor - w.win.Lo + spread
	r.jWide = w.win.Width + spread
	return true
}

// jump returns the first row from v towards last, in walk order, in which
// reference r passes its run's row test (noHit if none). The test's
// residue moves by r's outer stride per row, so the row is solved by
// firstIn, not searched.
func (w *Walker) jump(r *refPlan, v, last int64) int64 {
	if r.jWide < 0 {
		return noHit
	}
	limit, step := last-v, r.outFwd
	if w.rev {
		limit, step = v-last, r.outRev
	}
	k := firstIn(w.mod(r.jOff+r.outer*(v-w.v0)), step, w.win.Period, r.jWide, limit)
	switch {
	case k < 0:
		return noHit
	case w.rev:
		return v - k
	default:
		return v + k
	}
}

// nextRow returns the earliest rowNext of lp's references in walk order.
func (w *Walker) nextRow(lp *loopPlan) int64 {
	best := int64(noHit)
	for _, k := range lp.kids {
		for _, sp := range k.stmts {
			for i := range sp.refs {
				v := sp.refs[i].rowNext
				if v != noHit && (best == noHit || w.rev && v > best || !w.rev && v < best) {
					best = v
				}
			}
		}
	}
	return best
}

// hotRow walks the leaf rows of lp at interior row v in full (span),
// every leaf loop from its bounds at v.
func (w *Walker) hotRow(lp *loopPlan, v int64) bool {
	dx := v - w.v0
	for j := range lp.kids {
		k := lp.kids[w.order(j, len(lp.kids))]
		if from, to := k.lo0+k.loC*dx, k.hi0+k.hiC*dx; from <= to {
			k.rowAt(dx)
			if !w.span(k.stmts, from, to) {
				return false
			}
		}
	}
	return true
}

// rowsTotal returns the accesses of the leaf rows of lp at interior rows
// [x1, x2]. A leaf loop without guards has references × trip count per
// row, an arithmetic series in the row; a guarded one is counted row by
// row from its guard bases.
func (w *Walker) rowsTotal(lp *loopPlan, x1, x2 int64) int64 {
	var total int64
	for _, k := range lp.kids {
		if !k.guarded {
			total += k.nrefs * sumPositive(k.hi0-k.lo0+1, k.hiC-k.loC, x1-w.v0, x2-w.v0)
			continue
		}
		for dx := x1 - w.v0; dx <= x2-w.v0; dx++ {
			from, to := k.lo0+k.loC*dx, k.hi0+k.hiC*dx
			if from > to {
				continue
			}
			k.rowAt(dx)
			for _, sp := range k.stmts {
				sp.live(from, to)
				if sp.lo <= sp.hi {
					total += int64(len(sp.refs)) * (sp.hi - sp.lo + 1)
				}
			}
		}
	}
	return total
}

// sumPositive returns Σ max(0, c + s·d) over d in [d1, d2].
func sumPositive(c, s, d1, d2 int64) int64 {
	switch {
	case s > 0: // c + s·d > 0 ⇔ d > −c/s
		d1 = max(d1, floorDiv(-c, s)+1)
	case s < 0: // ⇔ d < c/−s
		d2 = min(d2, ceilDiv(c, -s)-1)
	case c <= 0:
		return 0
	}
	if d1 > d2 {
		return 0
	}
	return (d2 - d1 + 1) * (2*c + s*(d1+d2)) / 2
}

// row walks one leaf row over innermost values [from, to]. The values
// equal to a's or b's innermost index, where the Seq bounds apply, go
// access by access; everything between them is one span.
func (w *Walker) row(lp *loopPlan, from, to int64, lt, ht bool) bool {
	n := len(w.idx)
	lp.rowEnter(w.idx)
	plans := lp.stmts
	aEnd := lt && from == w.a.Idx[n-1]
	bEnd := ht && to == w.b.Idx[n-1]
	one := from == to
	m1, m2 := from, to
	if aEnd {
		m1++
	}
	if bEnd {
		m2--
	}
	if w.rev {
		if bEnd && !w.point(plans, to, aEnd && one, true) {
			return false
		}
		if m1 <= m2 && !w.span(plans, m1, m2) {
			return false
		}
		if aEnd && !(bEnd && one) {
			return w.point(plans, from, true, false)
		}
		return true
	}
	if aEnd && !w.point(plans, from, true, bEnd && one) {
		return false
	}
	if m1 <= m2 && !w.span(plans, m1, m2) {
		return false
	}
	if bEnd && !(aEnd && one) {
		return w.point(plans, to, false, true)
	}
	return true
}

// point walks the accesses at innermost value v one by one: vlt (vht)
// drops those at or before a (at or after b).
func (w *Walker) point(plans []*stmtPlan, v int64, vlt, vht bool) bool {
	aSeq, bSeq := w.a.Seq, w.b.Seq
	if !vlt {
		aSeq = math.MinInt
	}
	if !vht {
		bSeq = math.MaxInt
	}
	lo, width := w.win.Lo, w.win.Width
	for k := range plans {
		sp := plans[w.order(k, len(plans))]
		if sp.seqHi <= aSeq || sp.seqLo >= bSeq || !sp.guardsHold(v) {
			continue
		}
		for j := range sp.refs {
			r := &sp.refs[w.order(j, len(sp.refs))]
			if r.seq <= aSeq || r.seq >= bSeq {
				continue
			}
			w.pos++
			addr := r.konst + sp.dot[r.cls] + r.inner*v
			if w.mod(addr-lo) < width && !w.visit(r.ref, addr, w.pos) {
				return false
			}
		}
	}
	return true
}

// order maps the k-th element of a walk over n to its textual index.
func (w *Walker) order(k, n int) int {
	if w.rev {
		return n - 1 - k
	}
	return k
}

// span walks every access at innermost values [m1, m2] but visits only
// the in-window ones. A guard is affine in v, so each statement is live
// on one interval; a reference whose live accesses miss the window
// (rowHits), or, in an interior row the run's jumps reached (w.hot),
// whose jump did not land there, is not searched; the others' next
// in-window v is solved, not searched, and the references are merged in
// walk order. The row counts as entered when some reference is searched.
func (w *Walker) span(plans []*stmtPlan, m1, m2 int64) bool {
	var total int64
	entered := false
	for _, sp := range plans {
		sp.live(m1, m2)
		if sp.lo > sp.hi {
			continue
		}
		total += int64(len(sp.refs)) * (sp.hi - sp.lo + 1)
		start := sp.lo
		if w.rev {
			start = sp.hi
		}
		for i := range sp.refs {
			sp.next[i] = noHit
			if (w.hot == noHit || sp.refs[i].rowNext == w.hot) && w.rowHits(sp, i) {
				entered = true
				sp.next[i] = w.seek(sp, i, start)
			}
		}
	}
	if entered {
		w.rows++
	}
	return w.merge(plans, total)
}

// rowHits reports whether reference i touches the window at the
// statement's live innermost values [sp.lo, sp.hi] of the current row.
// As in aim, the accesses are residues t, t+s, …, t+s·K from the row's
// matching end. When width + s·K < p they pass p at most once: none is in
// the window unless t is, or the first one past p lands below p + width,
// which it always does when s ≤ width. A row that wraps the period is
// reported as touching it.
func (w *Walker) rowHits(sp *stmtPlan, i int) bool {
	r := &sp.refs[i]
	w.steps(r)
	s, anchor := r.stepFwd, sp.lo
	if r.stepRev < s {
		s, anchor = r.stepRev, sp.hi
	}
	spread, ok := w.spread(s, sp.hi-sp.lo)
	if !ok {
		return true
	}
	p, width := w.win.Period, w.win.Width
	t := w.mod(sp.base(i) + r.inner*anchor - w.win.Lo)
	switch {
	case t < width:
		return true
	case t+spread < p:
		return false
	case s <= width:
		return true
	}
	return t+s*((p-t+s-1)/s)-p < width
}

// spread returns s·k and whether width + s·k stays below the period, i.e.
// whether the circular window of a row test leaves part of the circle
// out; s, k ≥ 0.
func (w *Walker) spread(s, k int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(s), uint64(k))
	if hi != 0 || lo >= uint64(w.win.Period-w.win.Width) {
		return 0, false
	}
	return int64(lo), true
}

// merge visits the pending in-window accesses of a span whose references'
// next values are set, in walk order, and then moves the position past
// the span's total accesses.
func (w *Walker) merge(plans []*stmtPlan, total int64) bool {
	base := w.pos
	for {
		v, ok := w.earliest(plans)
		if !ok {
			break
		}
		for k := range plans {
			s := w.order(k, len(plans))
			sp := plans[s]
			if v < sp.lo || v > sp.hi {
				continue
			}
			for j := range sp.refs {
				i := w.order(j, len(sp.refs))
				if sp.next[i] != v {
					continue
				}
				r := &sp.refs[i]
				addr := sp.base(i) + r.inner*v
				pos := base + w.rank(plans, v, s, i) + 1
				if !w.visit(r.ref, addr, pos) {
					w.pos = pos
					return false
				}
				next := v + 1
				if w.rev {
					next = v - 1
				}
				sp.next[i] = w.seek(sp, i, next)
			}
		}
	}
	w.pos = base + total
	return true
}

// noHit marks a reference with no further in-window access in the span.
const noHit = math.MinInt64

// seek returns the first innermost value at or after v, in walk order and
// inside the statement's live range, at which reference i's access is in
// the window (noHit if none).
func (w *Walker) seek(sp *stmtPlan, i int, v int64) int64 {
	limit := sp.hi - v
	if w.rev {
		limit = v - sp.lo
	}
	if limit < 0 {
		return noHit
	}
	r := &sp.refs[i]
	w.steps(r)
	step := r.stepFwd
	if w.rev {
		step = r.stepRev
	}
	t := w.mod(sp.base(i) + r.inner*v - w.win.Lo)
	k := firstIn(t, step, w.win.Period, w.win.Width, limit)
	switch {
	case k < 0:
		return noHit
	case w.rev:
		return v - k
	default:
		return v + k
	}
}

// steps refreshes reference r's cached residue steps for the window
// period.
func (w *Walker) steps(r *refPlan) {
	if p := w.win.Period; r.stepP != p {
		r.stepP, r.stepFwd, r.stepRev = p, w.mod(r.inner), w.mod(-r.inner)
		r.outFwd, r.outRev = w.mod(r.outer), w.mod(-r.outer)
	}
}

// mod returns x mod the window period in [0, Period): a mask for
// power-of-two periods (two's complement makes it a floor residue for
// negative x too), floorMod otherwise.
func (w *Walker) mod(x int64) int64 {
	if w.mask >= 0 {
		return x & w.mask
	}
	return floorMod(x, w.win.Period)
}

// earliest returns the innermost value of the next pending in-window
// access in walk order.
func (w *Walker) earliest(plans []*stmtPlan) (int64, bool) {
	best, ok := int64(0), false
	for _, sp := range plans {
		if sp.lo > sp.hi {
			continue
		}
		for _, v := range sp.next {
			if v == noHit {
				continue
			}
			if !ok || (w.rev && v > best) || (!w.rev && v < best) {
				best, ok = v, true
			}
		}
	}
	return best, ok
}

// rank returns the 0-based position, among the span's accesses in walk
// order, of reference i of statement s at innermost value v: the accesses
// at the values already passed, plus those at v that come first.
func (w *Walker) rank(plans []*stmtPlan, v int64, s, i int) int64 {
	var k int64
	for t, sp := range plans {
		if sp.lo > sp.hi {
			continue
		}
		nr := int64(len(sp.refs))
		lo, hi := sp.lo, min(sp.hi, v-1)
		if w.rev {
			lo, hi = max(sp.lo, v+1), sp.hi
		}
		if hi >= lo {
			k += nr * (hi - lo + 1)
		}
		if v >= sp.lo && v <= sp.hi && (!w.rev && t < s || w.rev && t > s) {
			k += nr
		}
	}
	return k + int64(w.order(i, len(plans[s].refs)))
}

// firstIn returns the least k in [0, limit] with (t + step·k) mod p < width,
// or -1 when there is none; 0 ≤ t, step < p.
func firstIn(t, step, p, width, limit int64) int64 {
	if t < width {
		return 0
	}
	if step == 0 {
		return -1
	}
	var k int64
	switch {
	case p-step <= width:
		// Downward steps of at most width cannot jump over the window.
		k = ceilDiv(t-width+1, p-step)
	case p > 1<<31 || limit <= stepLimit:
		// minMulIn's products could overflow, or the search is too short
		// to repay its divisions: step the residue instead.
		return stepIn(t, step, p, width, limit)
	default:
		// (t + step·k) mod p < width ⇔ (step·k) mod p ∈ [p−t, p−t+width−1],
		// a range inside [1, p−1] because width ≤ t < p.
		k = minMulIn(step, p, p-t, p-t+width-1, limit)
	}
	if k > limit {
		return -1
	}
	return k
}

// stepLimit is the longest search firstIn steps rather than solves. On
// Applu's 32KB/32B direct-mapped window, stepping 64 residues is faster
// than one minMulIn and stepping 128 is slower (BenchmarkFirstIn).
const stepLimit = 64

// stepIn is firstIn by stepping the residue: the least k in [1, limit]
// with (t + step·k) mod p < width, or -1; 0 ≤ t, step < p.
func stepIn(t, step, p, width, limit int64) int64 {
	for k := int64(1); k <= limit; k++ {
		if t += step; t >= p {
			t -= p
		}
		if t < width {
			return k
		}
	}
	return -1
}

// minMulIn returns the least x ≥ 0 with lo ≤ (a·x) mod m ≤ hi, or -1 when
// there is none or it exceeds limit; 0 ≤ a < m and 0 < lo ≤ hi < m. It is
// Euclid's recursion: when no multiple of a lands in [lo, hi], a·x = m·y +
// s with s ∈ [lo, hi] needs (m·y) mod a in the mirrored range, a smaller
// instance over (m mod a, a), and the least such y gives the least x.
func minMulIn(a, m, lo, hi, limit int64) int64 {
	if a == 0 {
		return -1
	}
	x := (lo + a - 1) / a
	if x > limit {
		return -1 // every solution is at least x
	}
	if a*x <= hi {
		return x
	}
	y := minMulIn(m%a, a, a-hi%a, a-lo%a, math.MaxInt64)
	if y < 0 {
		return -1
	}
	return (lo + m*y + a - 1) / a
}

// floorMod returns the residue of x mod p in [0, p).
func floorMod(x, p int64) int64 {
	r := x % p
	if r < 0 {
		r += p
	}
	return r
}

// floorDiv returns ⌊x/d⌋ for d > 0.
func floorDiv(x, d int64) int64 {
	q := x / d
	if x%d != 0 && x < 0 {
		q--
	}
	return q
}

// ceilDiv returns ⌈x/d⌉ for d > 0.
func ceilDiv(x, d int64) int64 { return -floorDiv(-x, d) }
