package cme

import (
	"math/bits"
	"slices"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
	"cachemodel/internal/trace"
)

// fusedClassifier is the one per-point classifier of the package: it
// classifies one access for every candidate of a fuse group in a single
// pass. A solo solve (FindMisses, EstimateMisses, Classify) is a group of
// one. Soundness of the fusion rests on two facts that hold within a
// group (same program, same layout, same line size):
//
//  1. The memory line of every access, and therefore every cold equation
//     — "the producer exists and touches the same line" — is identical
//     across candidates. Since classification resolves an access by its
//     FIRST reuse vector with a satisfied cold equation (the replacement
//     walk then decides hit vs miss, never falls through), all candidates
//     are decided by the same vector at every point. Non-uniform reuse,
//     consulted only after every vector fell through, names the same
//     producer element for every candidate too.
//  2. The interval walked by that vector's replacement equation visits
//     the same access sequence for every candidate; only the per-access
//     filter (set membership, line % NumSets_c) and the eviction
//     threshold (Assoc_c) differ. One traversal can therefore maintain a
//     distinct-line scratch per candidate and record, per candidate, the
//     position at which its own walk would have stopped — reproducing
//     verdict AND logical scan count bit-identically.
//
// Each worker owns one fusedClassifier per fuse group (no locking).
type fusedClassifier struct {
	p        *Prepared
	g        *fuseGroup
	w        *trace.Walker
	states   []*fcState // parallel to g.cands
	paperLRU bool
	pend     []*fcState    // scratch: states needing a walk at this point
	walk     []fcWalkEntry // scratch: undecided candidates inside the current walk
	act      []*fcState    // scratch: states active for the current tile
	lbuf     []int         // reusable producer-point buffers
	pbuf     []int64

	// The walk in progress, read by visitAccess: the reused line, the
	// paper-LRU flag and the count of accesses visited. visit is the
	// method value fc.visitAccess, bound once so a walk allocates nothing.
	wLine   int64
	wPaper  bool
	wVisits int64
	visit   trace.Visitor

	// lineShift strength-reduces addr/lineBytes to a shift for the
	// (ubiquitous) power-of-two line sizes; -1 keeps the division.
	lineShift int
	// ref is the reference of the last classified point (nil before the
	// first); the states' memos hold only its vectors' verdicts, infos is
	// its memo table row, vecs its reuse vectors and pspaces, parallel to
	// vecs, each vector's producer iteration space.
	ref     *ir.NRef
	infos   []memoInfo
	vecs    []*reuse.Vector
	pspaces []*poly.Space

	// Local metric accumulators (flushed at release, never per point).
	hCands    *obs.LocalHistogram // candidates per fused traversal
	nWalks    int64
	nMemoHits int64
	nSteps    int64
	nVisits   int64
	nRows     int64
	nMemoOff  int64
}

// fcState is one candidate's slice of the fused walk: its geometry, its
// pooled distinct-line scratch, its verdict memo, and the per-point
// transient fields of the walk in progress.
type fcState struct {
	numSets int64
	setMask int64 // numSets-1 when numSets is a power of two, else -1
	assoc   int
	scratch *walkScratch
	// memo carries, per position in the current reference's vector list,
	// the vector's arena plus its hit-rate-gate state (see vecMemo and
	// memoDisableAfter); nil under Options.NoMemo and on an attributing
	// classifier, non-nil (possibly empty) otherwise.
	memo []*vecMemo

	walkDone bool
	evicted  bool
	scanned  int64
	key      string   // memo key to store after the walk ("" = none)
	vm       *vecMemo // arena the pending key stores into

	// culprits, non-nil on an attributing classifier, arms attribution:
	// the walk appends the reference behind each new contending line.
	culprits []*ir.NRef
}

// fcWalkEntry is the per-access working set of one undecided candidate,
// copied out of its fcState so the walk's visitor scans a compact
// contiguous array instead of chasing state pointers.
type fcWalkEntry struct {
	setMask int64
	numSets int64
	assoc   int
	scratch *walkScratch
	st      *fcState
}

func newFusedClassifier(g *fuseGroup, w *trace.Walker, p *Prepared) *fusedClassifier {
	fc := &fusedClassifier{p: p, g: g, w: w, paperLRU: p.opt.PaperLRU,
		states: make([]*fcState, len(g.cands)), lineShift: -1,
		hCands: mFusedCandidates.NewLocal()}
	fc.visit = fc.visitAccess
	if g.lineBytes&(g.lineBytes-1) == 0 {
		fc.lineShift = bits.TrailingZeros64(uint64(g.lineBytes))
	}
	for i, cs := range g.cands {
		a := cs.a
		st := &fcState{numSets: a.numSets, setMask: a.setMask,
			assoc: a.cfg.Assoc, scratch: newWalkScratch(a.cfg.Assoc)}
		if !a.opt.NoMemo {
			st.memo = []*vecMemo{}
		}
		fc.states[i] = st
	}
	return fc
}

// release recycles the per-candidate scratches and flushes the locally
// accumulated metrics.
func (fc *fusedClassifier) release() {
	for _, s := range fc.states {
		if s.scratch != nil {
			s.scratch.release()
			s.scratch = nil
		}
	}
	fc.hCands.Flush()
	mWalks.Add(fc.nWalks)
	mWalkMemoHits.Add(fc.nMemoHits)
	mWalkSteps.Add(fc.nSteps)
	mWalkVisits.Add(fc.nVisits)
	mWalkRows.Add(fc.nRows)
	mWalkMemoDisabled.Add(fc.nMemoOff)
	fc.nWalks, fc.nMemoHits, fc.nSteps, fc.nVisits, fc.nRows, fc.nMemoOff = 0, 0, 0, 0, 0, 0
}

// classify decides one access of a one-candidate classifier and reports
// the logical scan work of the deciding walk. An attributing classifier
// leaves its culprits in states[0].culprits (the producer, on a hit).
func (fc *fusedClassifier) classify(r *ir.NRef, idx []int64) (Outcome, int64) {
	st := fc.states[0]
	fc.act = append(fc.act[:0], st)
	st.culprits = st.culprits[:0]
	var part [1]RefReport
	scanned, producer := fc.classifyFused(r, idx, part[:])
	switch {
	case part[0].Cold != 0:
		return ColdMiss, scanned
	case part[0].Repl != 0:
		return ReplacementMiss, scanned
	}
	if st.culprits != nil {
		st.culprits = append(st.culprits[:0], producer)
	}
	return Hit, scanned
}

// runTile classifies every point of reference ri inside the tile for the
// candidates listed in active (positions into g.cands), accumulating each
// candidate's counts into the parallel parts slice, through the symbolic
// runner (symRunFused). A non-nil probe is checked per enumerated point
// with the fused totals — len(active) points and the summed logical scan
// work — and charged per replicated region. Its error stops the tile,
// leaving parts with the counts up to and including the tripping point.
func (fc *fusedClassifier) runTile(ri int, t poly.Tile, active []int, parts []RefReport, pb *budget.Probe) error {
	r := fc.p.np.Refs[ri]
	fc.act = fc.act[:0]
	for _, pos := range active {
		fc.act = append(fc.act, fc.states[pos])
	}
	var sym *refSym
	if !fc.p.opt.NoSymbolic {
		sym = fc.p.symInfo(fc.g.ls)[r]
	}
	sp := fc.p.spaces[r.Stmt]
	s := &symRunFused{fc: fc, r: r, sym: sym, sp: sp, t: t, parts: parts, pb: pb,
		idx:    make([]int64, sp.Depth),
		cuts:   make([][]int64, sp.Depth),
		deltas: make([][]symDelta, sp.Depth),
	}
	var before int64
	for i := range parts {
		before += parts[i].Analyzed
	}
	if !s.countCold() {
		s.run(0)
	}
	var after int64
	for i := range parts {
		after += parts[i].Analyzed
	}
	rep := s.nRep * int64(len(parts))
	mTilesSolved.Inc()
	mPointsClassed.Add(after - before)
	mPointsSymbolic.Add(rep)
	mPointsEnumerated.Add(after - before - rep)
	return s.err
}

// arm resets a state's per-point walk fields.
func (s *fcState) arm() {
	s.walkDone, s.evicted, s.scanned, s.key, s.vm = false, false, 0, "", nil
}

// enterRef points the states' memos at reference r's vector list. Tiles
// and samples reach a classifier in reference-major order, and memo arenas
// are per reuse vector, i.e. per consuming reference: the previous
// reference's verdicts can never hit again, so free them rather than hold
// every reference's arena to the end of the solve.
func (fc *fusedClassifier) enterRef(r *ir.NRef) {
	vecs := fc.g.ls.vecs[r]
	n := len(vecs)
	for _, s := range fc.states {
		if s.memo != nil {
			s.memo = slices.Grow(s.memo[:0], n)[:n]
			clear(s.memo)
		}
	}
	fc.pspaces = fc.pspaces[:0]
	for _, v := range vecs {
		fc.pspaces = append(fc.pspaces, fc.p.spaces[v.Producer.Stmt])
	}
	fc.ref, fc.infos, fc.vecs = r, fc.g.ls.memo[r], vecs
}

// classifyFused classifies one access for all active candidates at once
// (§4.2): the cold equation, then the replacement equation, along the
// reference's reuse vectors in order, then any non-uniform reuse. It
// returns the summed logical scan work of the point across the active
// candidates (memo replays included; cold misses scan nothing) and the
// producer reference of the deciding reuse (nil for a cold miss).
func (fc *fusedClassifier) classifyFused(r *ir.NRef, idx []int64, parts []RefReport) (int64, *ir.NRef) {
	g := fc.g
	addr := r.AddressAt(idx)
	var line int64
	if fc.lineShift >= 0 {
		line = addr >> fc.lineShift
	} else {
		line = cache.LineOf(addr, g.lineBytes)
	}
	consumer := trace.Time{Label: r.Stmt.Label, Idx: idx, Seq: r.Seq}
	if r != fc.ref {
		fc.enterRef(r)
	}

	for vi, v := range fc.vecs {
		plabel, pidx := v.ProducerPointBuf(idx, &fc.lbuf, &fc.pbuf)
		// Cold equation — shared across the group: the producer access
		// must exist and touch the same memory line.
		if !fc.pspaces[vi].Contains(pidx) {
			continue
		}
		paddr := v.Producer.AddressAt(pidx)
		if fc.lineShift >= 0 {
			paddr >>= fc.lineShift
		} else {
			paddr = cache.LineOf(paddr, g.lineBytes)
		}
		if paddr != line {
			continue
		}
		producer := trace.Time{Label: plabel, Idx: pidx, Seq: v.Producer.Seq}
		info := fc.infos[vi]
		fc.pend = fc.pend[:0]
		for _, s := range fc.act {
			s.arm()
			if s.memo != nil && info.invMask != 0 {
				vm := s.memo[vi]
				if vm == nil {
					vm = &vecMemo{entries: map[string]memoEntry{}}
					s.memo[vi] = vm
				}
				if !vm.off {
					key := s.scratch.memoKey(info, idx, addr-line*g.lineBytes)
					if e, ok := vm.entries[string(key)]; ok {
						s.evicted, s.scanned, s.walkDone = e.evicted, e.scanned, true
						fc.nMemoHits++
						vm.miss = 0
					} else {
						s.key = string(key)
						s.vm = vm
					}
				}
			}
			if !s.walkDone {
				fc.pend = append(fc.pend, s)
			}
		}
		if len(fc.pend) > 0 {
			fc.hCands.Observe(int64(len(fc.pend)))
			fc.nVisits += fc.fusedWalk(producer, consumer, line, fc.paperLRU)
			fc.nWalks += int64(len(fc.pend))
			for _, s := range fc.pend {
				fc.nSteps += s.scanned
				if s.key != "" {
					s.vm.entries[s.key] = memoEntry{scanned: s.scanned, evicted: s.evicted}
					if s.vm.miss++; s.vm.miss >= memoDisableAfter {
						// Hit-rate gate: free the vector's arena and stop
						// probing it.
						s.vm.entries = nil
						s.vm.off = true
						fc.nMemoOff++
					}
				}
			}
		}
		return fc.tally(parts), v.Producer
	}
	// Every static reuse vector fell through: non-uniformly generated
	// reuse (§8 future work) may still supply the most recent toucher of
	// the element. Its walk always models exact LRU.
	if fc.p.dyn != nil {
		if producer, pref := fc.dynamicProducer(r, idx, consumer); pref != nil {
			for _, s := range fc.act {
				s.arm()
			}
			fc.pend = append(fc.pend[:0], fc.act...)
			fc.fusedWalk(producer, consumer, line, false)
			return fc.tally(parts), pref
		}
	}
	// No reuse solves the cold equation: a cold miss everywhere.
	for k := range fc.act {
		parts[k].Analyzed++
		parts[k].Cold++
	}
	return 0, nil
}

// tally accounts the decided walk of every active candidate into parts
// and returns the summed scan work.
func (fc *fusedClassifier) tally(parts []RefReport) int64 {
	var scanned int64
	for k, s := range fc.act {
		parts[k].Analyzed++
		scanned += s.scanned
		if s.evicted {
			parts[k].Repl++
		} else {
			parts[k].Hits++
		}
	}
	return scanned
}

// dynamicProducer finds the latest access before the consumer that
// touches the same element through one of the reference's non-uniform
// reuse pairs, and its reference (nil when there is none). The same
// element means the same memory line, so the cold equation holds whenever
// a producer exists.
func (fc *fusedClassifier) dynamicProducer(r *ir.NRef, idx []int64, consumer trace.Time) (trace.Time, *ir.NRef) {
	var best trace.Time
	var bref *ir.NRef
	for _, d := range fc.p.dyn[r] {
		q, ok := d.ProducerPoint(idx)
		if !ok || !fc.p.spaces[d.Producer.Stmt].Contains(q) {
			continue
		}
		pt := trace.Time{Label: d.Producer.Stmt.Label, Idx: q, Seq: d.Producer.Seq}
		if trace.Compare(pt, consumer) >= 0 {
			continue
		}
		if bref == nil || trace.Compare(pt, best) > 0 {
			best, bref = pt, d.Producer
		}
	}
	return best, bref
}

// fusedWalk runs one shared interval traversal deciding the replacement
// equation for every pending candidate, and returns the number of
// accesses the traversal visited. Each candidate keeps its own
// distinct-line set, eviction threshold and stopping position; the
// traversal ends as soon as every candidate is decided (or, under exact
// LRU, when the reused line itself is touched — which decides everyone at
// once, exactly as each candidate's own walk would have stopped there).
// paperLRU selects the paper's verbatim equations: a forward scan that
// never stops at the reused line.
//
// The walk is set-filtered. Candidate c counts an access only when its
// line al satisfies al ≡ line (mod NumSets_c), so with g the gcd of the
// pending set counts every contending access has al ≡ line (mod g), i.e.
// its address mod LineBytes·g lies in the line-wide window at
// (line mod g)·LineBytes. The walker solves for those accesses per leaf
// row and skips the rest, handing each visit its position among all the
// interval's accesses, so scan counts stay logical.
func (fc *fusedClassifier) fusedWalk(producer, consumer trace.Time, line int64, paperLRU bool) int64 {
	// walk is the compacted undecided set: candidates are swap-removed the
	// moment they decide, so the per-access inner loop costs Σ_c (own walk
	// length), not |group| × (longest walk) — a decided small cache stops
	// charging the walk immediately, exactly as its own walk would have
	// stopped. Entries are values, not state pointers, so the loop scans a
	// contiguous array. (fc.pend stays intact for the caller's memo stores.)
	walk := fc.walk[:0]
	var g int64
	for _, s := range fc.pend {
		s.scratch.reset()
		walk = append(walk, fcWalkEntry{setMask: s.setMask,
			numSets: s.numSets, assoc: s.assoc, scratch: s.scratch, st: s})
		g = trace.Gcd(s.numSets, g)
	}
	fc.walk, fc.wLine, fc.wPaper, fc.wVisits = walk, line, paperLRU, 0
	set := line % g
	if set < 0 {
		set += g
	}
	lb := fc.g.lineBytes
	win := trace.Window{Period: lb * g, Lo: set * lb, Width: lb}
	var total int64
	if paperLRU {
		total = fc.w.Between(producer, consumer, win, fc.visit)
	} else {
		total = fc.w.BetweenReverse(producer, consumer, win, fc.visit)
	}
	fc.nRows += fc.w.Rows()
	// Interval exhausted with candidates still undecided: their walks
	// scanned the whole interval and found no eviction.
	for _, w := range fc.walk {
		w.st.scanned, w.st.walkDone = total, true
	}
	fc.walk = fc.walk[:0]
	return fc.wVisits
}

// visitAccess is the walk's visitor (cached as fc.visit, so a walk
// allocates nothing): it applies one in-window access of reference r at
// position pos to every undecided candidate and reports whether any
// remain. A touch of the reused line never contends: under exact LRU,
// which scans backwards from the consumer, it is the line's most recent
// fetch and stops every walk at the same position; the paper's equations
// verbatim scan forwards and let k distinct set contentions anywhere in
// the interval evict. Set membership is "NumSets divides al-line", which
// is sign-safe for negative lines, strength-reduced to a mask for
// power-of-two set counts. An attributing candidate blames r for each new
// contending line.
func (fc *fusedClassifier) visitAccess(r *ir.NRef, addr, pos int64) bool {
	fc.wVisits++
	var al int64
	if fc.lineShift >= 0 {
		al = addr >> fc.lineShift
	} else {
		al = cache.LineOf(addr, fc.g.lineBytes)
	}
	line := fc.wLine
	walk := fc.walk
	if al == line {
		if fc.wPaper {
			return true
		}
		for _, w := range walk {
			w.st.scanned, w.st.walkDone = pos, true
		}
		fc.walk = walk[:0]
		return false
	}
	x := al ^ line
	for i := 0; i < len(walk); {
		w := &walk[i]
		var in bool
		if w.setMask >= 0 {
			in = x&w.setMask == 0
		} else {
			in = (al-line)%w.numSets == 0
		}
		if !in {
			i++
			continue
		}
		n, fresh := w.scratch.add(al)
		if fresh && w.st.culprits != nil {
			w.st.culprits = append(w.st.culprits, r)
		}
		if n >= w.assoc {
			w.st.evicted, w.st.scanned, w.st.walkDone = true, pos, true
			walk[i] = walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			continue
		}
		i++
	}
	fc.walk = walk
	return len(walk) > 0
}
