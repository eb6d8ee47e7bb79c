package cme

import (
	"encoding/binary"
	"sync"

	"cachemodel/internal/ir"
	"cachemodel/internal/reuse"
)

// memoInfo is the per-reuse-vector memoization precomputation: invMask has
// bit d set when the replacement-walk verdict is invariant under
// translating the consumer iteration along depth d (see the soundness
// conditions in vectorMemoInfo). A vector with a zero mask gains nothing
// from the memo and is classified directly.
type memoInfo struct {
	invMask uint64
	// needRes: at least one invariant depth has a shared nonzero address
	// coefficient, so translations shift every address by a common delta
	// and the key must capture the consumer address residue modulo
	// LineBytes to pin that delta to a whole number of lines.
	needRes bool
}

// memoEntry caches one replacement-walk verdict together with the scan
// work the walk performed. Scanned is replayed into the budget accounting
// on every memo hit, so budgeted runs consume the budget identically with
// and without memoization (MaxScan meters logical scan work).
type memoEntry struct {
	scanned int64
	evicted bool
}

// depthTraits are the program-wide per-depth invariance predicates the
// memo table and the symbolic region solver both build on. coeff[d] holds
// the shared address coefficient at depth d, valid when shared[d] (zero
// when zero[d]). They depend only on bounds, guards and address
// coefficients — never on array bases — so one set serves every geometry
// and layout. Per depth d:
//
//   - rect[d]: no loop bound and no guard anywhere in the program
//     mentions I_{d+1}, so the interval walked between two access times
//     whose depth-d components both move by t is a pure translate (its
//     recursion shape and boundary flags are unchanged);
//   - zero[d]: no reference's linearised address uses I_{d+1} at all, so
//     a translation along d leaves every visited address untouched (the
//     time loop of a stepped program is the canonical case);
//   - shared[d]: every reference's linearised address has the same
//     coefficient at depth d, so translating along d shifts every address
//     in the interval (and the consumer's and producer's) by one common
//     delta, leaving all address differences intact.
type depthTraits struct {
	rect   []bool
	zero   []bool
	shared []bool
	coeff  []int64
}

// programTraits derives the per-depth predicates of a program.
func programTraits(np *ir.NProgram) *depthTraits {
	n := np.Depth
	t := &depthTraits{
		rect:   make([]bool, n),
		zero:   make([]bool, n),
		shared: make([]bool, n),
		coeff:  make([]int64, n),
	}
	for d := 0; d < n; d++ {
		t.rect[d] = true
		for _, s := range np.Stmts {
			for _, b := range s.Bounds {
				if b.Lo.At(d+1) != 0 || b.Hi.At(d+1) != 0 {
					t.rect[d] = false
				}
			}
			for _, g := range s.Guards {
				if g.Expr.At(d+1) != 0 {
					t.rect[d] = false
				}
			}
			if !t.rect[d] {
				break
			}
		}
		t.shared[d] = true
		if len(np.Refs) > 0 {
			c0 := np.Refs[0].AddressAffine().At(d + 1)
			for _, r := range np.Refs[1:] {
				if r.AddressAffine().At(d+1) != c0 {
					t.shared[d] = false
					break
				}
			}
			if t.shared[d] {
				t.coeff[d] = c0
			}
			t.zero[d] = t.shared[d] && c0 == 0
		}
	}
	return t
}

// memoTable derives the per-vector memoization eligibility for a program
// and its reuse vectors: per reference, one memoInfo per vector, parallel
// to the reference's vector list. The masks depend only on the program
// structure (bounds, guards, address coefficients — not array bases) and
// on the vectors themselves, so one table serves every cache geometry and
// every inter-array layout that shares the vectors' line size.
func memoTable(np *ir.NProgram, vecs map[*ir.NRef][]*reuse.Vector) map[*ir.NRef][]memoInfo {
	out := make(map[*ir.NRef][]memoInfo, len(vecs))
	var t *depthTraits
	if n := np.Depth; n > 0 && n <= 64 {
		t = programTraits(np)
	}
	for r, vs := range vecs {
		infos := make([]memoInfo, len(vs)) // zero masks: never memoized
		if t != nil {
			for i, v := range vs {
				infos[i] = vectorMemoInfo(v, t.rect, t.zero, t.shared)
			}
		}
		out[r] = infos
	}
	return out
}

// vectorMemoInfo computes the invariant-depth mask of one reuse vector:
// the depths d such that translating the consumer point by t·e_d (which
// also translates the producer, at fixed displacement) provably leaves the
// replacement walk's verdict and scan count unchanged.
//
// Soundness: let p be the vector's pivot — the first depth where the
// interleaved (label, index) displacement is nonzero.
//
//   - d < p: producer and consumer agree on label and index at d, so the
//     walk is pinned to the consumer's I_{d+1} — every visited point X has
//     X[d] = idx[d]. Under rectAt[d], the pinned recursion shape is the
//     same at idx[d]+t; every visited address gains the common delta
//     c_d·t when sharedAt[d] holds (zero when zeroAt[d]).
//   - d == p with LabelDiff[p] == 0: the walk spans depth-d values
//     [idx[d]-δ, idx[d]]. Translating both endpoints by t maps the walk
//     set by the order-preserving bijection X ↦ X + t·e_d (interleaved
//     comparisons are translation-invariant in one index; rectAt[d] keeps
//     every translated point valid because the endpoints are valid and no
//     bound or guard mentions I_{d+1}). All addresses gain the common
//     delta c_d·t under sharedAt[d].
//   - d == p with LabelDiff[p] != 0: points in strictly-intermediate label
//     branches sweep their full depth-d range and do NOT translate, so
//     the walk is invariant only when addresses ignore I_{d+1} entirely
//     (zeroAt[d]); then the two walks visit identical address sequences.
//   - d > p: intermediate subtrees under a one-sided boundary flag change
//     length under translation; never invariant.
//
// When every delta is zero (zeroAt on all masked depths) the verdict is
// literally the same computation. Otherwise the common delta shifts every
// address, and the memo key pins the delta to a whole number of lines by
// including the consumer address residue mod LineBytes. The walk reads
// only line differences: a shift of m lines preserves line identity,
// every set congruence (mod any NumSets, by mask or by %), distinctness,
// window membership and the stop position — hence the verdict — and the
// scan count rides along by the bijection (DESIGN §Memoized interference
// scans, "Whole-line shifts", which §Period decomposition reuses).
// Cold-equation checks stay outside the memo and run fresh at every point.
func vectorMemoInfo(v *reuse.Vector, rect, zero, shared []bool) memoInfo {
	pivot := len(v.LabelDiff)
	for k := range v.LabelDiff {
		if v.LabelDiff[k] != 0 || v.IdxDiff[k] != 0 {
			pivot = k
			break
		}
	}
	labelAtPivot := pivot < len(v.LabelDiff) && v.LabelDiff[pivot] != 0
	var mask uint64
	needRes := false
	for d := 0; d <= pivot && d < len(rect); d++ {
		if !rect[d] {
			continue
		}
		switch {
		case zero[d]:
			mask |= 1 << d
		case shared[d] && (d < pivot || !labelAtPivot):
			mask |= 1 << d
			needRes = true
		}
	}
	return memoInfo{invMask: mask, needRes: needRes}
}

// walkScratch is the per-walk distinct-line scratch: a linear scan slice
// for small associativity and an open-addressed probe table beyond
// distinctLinear ways, plus the memo key buffer. The buffers are recycled
// through scratchPool across classifiers and their per-candidate states,
// so a sweep spawning workers × candidates states reuses a bounded set of
// tables instead of re-allocating and re-zeroing them per solve.
type walkScratch struct {
	linear   bool
	distinct []int64
	slots    []int64
	stamps   []uint32
	epoch    uint32
	mask     int
	keyBuf   []byte
}

// distinctLinear is the associativity up to which the linear distinct scan
// beats the hash probe (the whole slice fits in two cache lines).
const distinctLinear = 8

var scratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// newWalkScratch takes a scratch from the pool and sizes it for a k-way
// walk. A recycled table larger than needed is kept as-is (probing a
// larger table is correct and its stamps stay valid); a smaller one is
// regrown with fresh stamps.
func newWalkScratch(assoc int) *walkScratch {
	s := scratchPool.Get().(*walkScratch)
	s.linear = assoc <= distinctLinear
	if !s.linear {
		size := 1
		for size < 4*assoc {
			size <<= 1
		}
		if len(s.slots) < size {
			s.slots = make([]int64, size)
			s.stamps = make([]uint32, size)
			s.epoch = 0
		}
		s.mask = len(s.slots) - 1
	}
	return s
}

// release returns the scratch to the pool.
func (s *walkScratch) release() { scratchPool.Put(s) }

// reset clears the distinct-line set for a new walk.
func (s *walkScratch) reset() {
	s.distinct = s.distinct[:0]
	if !s.linear {
		s.epoch++
		if s.epoch == 0 { // stamp wrap: flush the table once per 2^32 walks
			for i := range s.stamps {
				s.stamps[i] = 0
			}
			s.epoch = 1
		}
	}
}

// add inserts a contending line and reports the distinct count and
// whether the line is new to the walk.
func (s *walkScratch) add(line int64) (int, bool) {
	if s.linear {
		for _, d := range s.distinct {
			if d == line {
				return len(s.distinct), false
			}
		}
		s.distinct = append(s.distinct, line)
		return len(s.distinct), true
	}
	h := int(uint64(line) * 0x9E3779B97F4A7C15 >> 32)
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		if s.stamps[i] != s.epoch {
			s.stamps[i] = s.epoch
			s.slots[i] = line
			s.distinct = append(s.distinct, line) // count only
			return len(s.distinct), true
		}
		if s.slots[i] == line {
			return len(s.distinct), false
		}
	}
}

// memoKey appends the verdict-memo key for a vector to the scratch's key
// buffer: the consumer indices at every non-invariant depth, plus (when
// the invariant depths carry nonzero shared coefficients) off, the
// consumer address residue mod LineBytes. The returned slice aliases the
// buffer; it is only ever used for an immediate map operation.
func (s *walkScratch) memoKey(info memoInfo, idx []int64, off int64) []byte {
	buf := s.keyBuf[:0]
	var tmp [8]byte
	for d, v := range idx {
		if info.invMask&(1<<d) != 0 {
			continue
		}
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	if info.needRes {
		binary.LittleEndian.PutUint64(tmp[:], uint64(off))
		buf = append(buf, tmp[:]...)
	}
	s.keyBuf = buf
	return buf
}

// vecMemo is one reuse vector's verdict arena plus its hit-rate-gate
// state: miss counts consecutive probe misses, and off marks an arena the
// gate dropped. Folding the gate into the value the arena lookup already
// returns keeps the memoized hot path at the same map-operation count it
// always paid — a hit costs one extra struct-field write, a gated-off
// vector costs one field read instead of a key build.
type vecMemo struct {
	entries map[string]memoEntry
	miss    int
	off     bool
}

// memoDisableAfter is the hit-rate gate on replacement-walk memoization:
// after this many consecutive walks of one reuse vector without a single
// memo hit, the vector stops paying the key-build/probe/store tax and its
// arena is freed. Disabling is invisible in the results — a verdict
// recomputed by a walk is the one the memo would have replayed, with the
// identical logical scan count, so counts and budget accounting stay
// bit-identical to the always-memo path (and to -nomemo, which never
// builds the arena at all).
const memoDisableAfter = 512
