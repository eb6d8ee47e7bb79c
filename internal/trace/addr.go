// Strength-reduced execution and set-filtered interval walkers. Both
// flatten each reference's address affine once, hoist the depth-prefix of
// the address and of every guard out of the innermost loop, and reuse one
// scratch index vector, so an access of the inner loop costs a single
// multiply-add. The interval walker goes further and solves, per leaf
// row, which accesses fall in the caller's address window (see Walker).
package trace

import (
	"math"

	"cachemodel/internal/ir"
)

// refPlan is the flattened per-reference address affine: addr(idx) =
// Const + Σ Coeff[k]·idx[k]. Inner is the innermost coefficient, split out
// so leaf rows evaluate addr = rowBase + Inner·v.
type refPlan struct {
	ref   *ir.NRef
	konst int64
	coeff []int64 // full-length (np.Depth) coefficient vector
	inner int64   // coeff[np.Depth-1]
	// The Walker's residue change per innermost value walked, forward
	// (inner mod stepP) and reverse (−inner mod stepP), cached for the
	// window period stepP (0 = not yet computed).
	stepP, stepFwd, stepRev int64
}

// guardPlan mirrors one guard constraint with its innermost coefficient
// split out: the guard holds at the leaf iff rowBase + Inner·v ⋈ 0.
type guardPlan struct {
	konst int64
	coeff []int64
	inner int64
	isEq  bool
}

// stmtPlan is the per-statement leaf plan.
type stmtPlan struct {
	stmt   *ir.NStmt
	guards []guardPlan
	refs   []refPlan
	// scratch row bases, rewritten on every leaf-row entry.
	guardBase []int64
	refBase   []int64
	// Walker span scratch: the statement's live innermost range [lo, hi]
	// and each reference's next in-window value (noHit when none).
	lo, hi int64
	next   []int64
}

// rowEnter hoists the depth-prefix of every guard and address affine for
// the current idx prefix (idx[n-1] is about to sweep).
func (sp *stmtPlan) rowEnter(idx []int64, n int) {
	for i := range sp.guards {
		g := &sp.guards[i]
		v := g.konst
		for k := 0; k < n-1; k++ {
			if c := g.coeff[k]; c != 0 {
				v += c * idx[k]
			}
		}
		sp.guardBase[i] = v
	}
	for i := range sp.refs {
		r := &sp.refs[i]
		v := r.konst
		for k := 0; k < n-1; k++ {
			if c := r.coeff[k]; c != 0 {
				v += c * idx[k]
			}
		}
		sp.refBase[i] = v
	}
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

func newStmtPlan(st *ir.NStmt, n int) *stmtPlan {
	sp := &stmtPlan{stmt: st}
	for _, g := range st.Guards {
		gp := guardPlan{konst: g.Expr.Const, coeff: make([]int64, n), isEq: g.IsEq}
		for k := 1; k <= n; k++ {
			gp.coeff[k-1] = g.Expr.At(k)
		}
		gp.inner = gp.coeff[n-1]
		sp.guards = append(sp.guards, gp)
	}
	for _, r := range st.Refs {
		aff := r.AddressAffine()
		rp := refPlan{ref: r, konst: aff.Const, coeff: make([]int64, n)}
		for k := 1; k <= n; k++ {
			rp.coeff[k-1] = aff.At(k)
		}
		rp.inner = rp.coeff[n-1]
		sp.refs = append(sp.refs, rp)
	}
	sp.guardBase = make([]int64, len(sp.guards))
	sp.refBase = make([]int64, len(sp.refs))
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
}

// planTree prepares the loop tree of np. Building it is cheap (linear in
// program text) relative to any walk, and one tree is reusable across
// runs by a single goroutine.
func planTree(np *ir.NProgram) []*loopPlan {
	var rec func(nl *ir.NLoop) *loopPlan
	rec = func(nl *ir.NLoop) *loopPlan {
		lp := &loopPlan{bound: nl.Bound}
		for _, st := range nl.Stmts {
			lp.stmts = append(lp.stmts, newStmtPlan(st, np.Depth))
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
		for _, sp := range lp.stmts {
			sp.rowEnter(idx, n)
		}
		for v := lo; v <= hi; v++ {
			idx[n-1] = v
			for _, sp := range lp.stmts {
				if !sp.guardsHold(v) {
					continue
				}
				for i := range sp.refs {
					r := &sp.refs[i]
					if !visit(r.ref, idx, sp.refBase[i]+r.inner*v) {
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
// A walk is set-filtered: the outer loops are enumerated row by row, but
// inside a leaf row only the accesses in the window are produced. Each
// reference's next in-window value of the innermost index is solved from
// its address residue and stride (firstIn), the references are merged in
// walk order, and positions are counted arithmetically, so a row costs
// O(references) plus O(1) per in-window access instead of O(accesses).
type Walker struct {
	top   []*loopPlan
	idx   []int64
	a, b  Time
	win   Window
	mask  int64 // win.Period-1 when the period is a power of two, else -1
	rev   bool
	visit Visitor
	pos   int64 // accesses of the interval passed so far
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

func (w *Walker) run(a, b Time, win Window, rev bool, visit Visitor) int64 {
	if Compare(a, b) >= 0 {
		return 0
	}
	w.a, w.b, w.win, w.rev, w.visit, w.pos = a, b, win, rev, visit, 0
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
	if depth == len(idx) {
		return w.row(lp.stmts, from, to, lt, ht)
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

// row walks one leaf row over innermost values [from, to]. The values
// equal to a's or b's innermost index, where the Seq bounds apply, go
// access by access; everything between them is one span.
func (w *Walker) row(plans []*stmtPlan, from, to int64, lt, ht bool) bool {
	n := len(w.idx)
	for _, sp := range plans {
		sp.rowEnter(w.idx, n)
	}
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
	for k := range plans {
		sp := plans[w.order(k, len(plans))]
		if !sp.guardsHold(v) {
			continue
		}
		for j := range sp.refs {
			i := w.order(j, len(sp.refs))
			r := &sp.refs[i]
			if vlt && r.ref.Seq <= w.a.Seq || vht && r.ref.Seq >= w.b.Seq {
				continue
			}
			w.pos++
			addr := sp.refBase[i] + r.inner*v
			if w.mod(addr-w.win.Lo) < w.win.Width && !w.visit(r.ref, addr, w.pos) {
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
// on one interval; each reference's next in-window v is solved, not
// searched, and the references are merged in walk order.
func (w *Walker) span(plans []*stmtPlan, m1, m2 int64) bool {
	base := w.pos
	var total int64
	for _, sp := range plans {
		sp.live(m1, m2)
		if sp.lo > sp.hi {
			continue
		}
		total += int64(len(sp.refs)) * (sp.hi - sp.lo + 1)
		for i := range sp.refs {
			start := sp.lo
			if w.rev {
				start = sp.hi
			}
			sp.next[i] = w.seek(sp, i, start)
		}
	}
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
				addr := sp.refBase[i] + r.inner*v
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
	p := w.win.Period
	if r.stepP != p {
		r.stepP, r.stepFwd, r.stepRev = p, w.mod(r.inner), w.mod(-r.inner)
	}
	step := r.stepFwd
	if w.rev {
		step = r.stepRev
	}
	t := w.mod(sp.refBase[i] + r.inner*v - w.win.Lo)
	k := firstIn(t, step, p, w.win.Width, limit)
	switch {
	case k < 0:
		return noHit
	case w.rev:
		return v - k
	default:
		return v + k
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
	case p > 1<<31:
		// minMulIn's products could overflow: step the residue instead.
		for k = 1; k <= limit; k++ {
			if t += step; t >= p {
				t -= p
			}
			if t < width {
				return k
			}
		}
		return -1
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
