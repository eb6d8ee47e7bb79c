// Package reuse implements the paper's central contribution (§3.4–3.5): a
// characterisation of data reuse across multiple loop nests. It groups
// references into uniformly generated sets (generalised to the whole
// normalised program), and derives temporal and spatial reuse vectors of
// the interleaved form
//
//	r = (ℓ1c−ℓ1p, x1, ℓ2c−ℓ2p, x2, ..., ℓnc−ℓnp, xn)
//
// including the second-kind spatial vectors that capture reuse across two
// adjacent array columns (Fig. 3).
//
// Reuse vectors are candidates: the miss equations (internal/cme) verify
// memory-line equality at every iteration point, so an over-generated
// candidate never causes incorrect classification, while a missing one can
// only overestimate misses (the paper's MMT case).
package reuse

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/obs"
)

// mVectorsGenerated counts reuse vectors produced by Generate (after
// dedup), flushed once per generation pass.
var mVectorsGenerated = obs.Default.Counter("reuse_vectors_generated_total")

// countVectors flushes the generated-vector total into the obs registry.
func countVectors(out map[*ir.NRef][]*Vector) {
	var n int64
	for _, vecs := range out {
		n += int64(len(vecs))
	}
	mVectorsGenerated.Add(n)
}

// Vector is a reuse vector from Producer to Consumer: the consumer at
// iteration i may reuse the memory line the producer touched at i − IdxDiff
// in the nest labelled Consumer.Stmt.Label − LabelDiff.
type Vector struct {
	Producer  *ir.NRef
	Consumer  *ir.NRef
	LabelDiff []int   // ℓc − ℓp, componentwise
	IdxDiff   []int64 // x
	Spatial   bool    // derived from equation (2) or the cross-column rule
	Cross     bool    // second-kind spatial vector spanning two columns
}

// Self reports whether the vector is self reuse (producer == consumer).
func (v *Vector) Self() bool { return v.Producer == v.Consumer }

// Interleaved returns the 2n-dimensional interleaved vector of §3.5.
func (v *Vector) Interleaved() []int64 {
	out := make([]int64, 0, 2*len(v.LabelDiff))
	for k := range v.LabelDiff {
		out = append(out, int64(v.LabelDiff[k]), v.IdxDiff[k])
	}
	return out
}

// Compare orders vectors by the interleaved lexicographic order; ascending
// order is most-recent-producer-first. It reads the label and index parts
// in place, in interleaved order.
func Compare(a, b *Vector) int {
	for k := range a.LabelDiff {
		if c := cmp.Compare(a.LabelDiff[k], b.LabelDiff[k]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.IdxDiff[k], b.IdxDiff[k]); c != 0 {
			return c
		}
	}
	return 0
}

// nonNegative reports whether the interleaved vector is ⪰ 0; for the zero
// vector the producer must precede the consumer textually.
func (v *Vector) nonNegative() bool {
	return nonNegative(v.LabelDiff, v.IdxDiff, v.Producer.Seq, v.Consumer.Seq)
}

// nonNegative is Vector.nonNegative over the vector's parts, so a
// candidate is tested before a Vector is built for it.
func nonNegative(labelDiff []int, idxDiff []int64, pseq, cseq int) bool {
	for k, l := range labelDiff {
		if l != 0 {
			return l > 0
		}
		if x := idxDiff[k]; x != 0 {
			return x > 0
		}
	}
	return pseq < cseq
}

// listOrder is the order of a reference's vector list: interleaved order,
// and at equal displacement the textually later (more recent) producer
// first.
func listOrder(a, b *Vector) int {
	if c := Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(b.Producer.Seq, a.Producer.Seq)
}

// ProducerPoint maps a consumer iteration to the producer iteration the
// vector points at (label vector, index vector).
func (v *Vector) ProducerPoint(idx []int64) (label []int, pidx []int64) {
	cl := v.Consumer.Stmt.Label
	label = make([]int, len(cl))
	pidx = make([]int64, len(idx))
	for k := range cl {
		label[k] = cl[k] - v.LabelDiff[k]
		pidx[k] = idx[k] - v.IdxDiff[k]
	}
	return label, pidx
}

// ProducerPointBuf is ProducerPoint writing into caller-owned buffers
// (grown as needed through the pointers), sparing the two per-call
// allocations in solver hot loops. The returned slices alias the buffers
// and are only valid until the next call with the same buffers.
func (v *Vector) ProducerPointBuf(idx []int64, lbuf *[]int, pbuf *[]int64) (label []int, pidx []int64) {
	cl := v.Consumer.Stmt.Label
	if cap(*lbuf) < len(cl) {
		*lbuf = make([]int, len(cl))
	}
	if cap(*pbuf) < len(idx) {
		*pbuf = make([]int64, len(idx))
	}
	label = (*lbuf)[:len(cl)]
	pidx = (*pbuf)[:len(idx)]
	for k := len(cl); k < len(pidx); k++ {
		pidx[k] = 0 // ProducerPoint leaves dimensions beyond the label zeroed
	}
	for k := range cl {
		label[k] = cl[k] - v.LabelDiff[k]
		pidx[k] = idx[k] - v.IdxDiff[k]
	}
	return label, pidx
}

func (v *Vector) String() string {
	kind := byte('T')
	if v.Spatial {
		kind = 'S'
	}
	if v.Cross {
		kind = 'X'
	}
	b := append(make([]byte, 0, 64), kind, '(')
	for k := range v.LabelDiff {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v.LabelDiff[k]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, v.IdxDiff[k], 10)
	}
	b = append(b, ") "...)
	b = append(b, v.Consumer.ID...)
	b = append(b, "<-"...)
	b = append(b, v.Producer.ID...)
	return string(b)
}

// Options tunes candidate generation.
type Options struct {
	// KernelSpan is the coefficient range explored along nullspace basis
	// directions when enumerating candidate solutions (default 1).
	KernelSpan int
	// MaxPerPair caps the number of vectors generated per (producer,
	// consumer) pair (default 128).
	MaxPerPair int
	// NoSpatial disables spatial vectors (ablation knob).
	NoSpatial bool
	// NoCrossColumn disables the second-kind spatial vectors (ablation).
	NoCrossColumn bool
	// NoGroup disables group reuse, keeping only self reuse (ablation).
	NoGroup bool
	// NonUniform additionally resolves reuse between non-uniformly
	// generated references with uniquely solvable producer iterations
	// (the paper's §8 future work; see GenerateDynamic). Off by default:
	// the paper's method exploits only uniformly generated reuse.
	NonUniform bool
}

func (o Options) withDefaults() Options {
	if o.KernelSpan == 0 {
		o.KernelSpan = 1
	}
	if o.MaxPerPair == 0 {
		o.MaxPerPair = 128
	}
	return o
}

// Generate derives, for every reference of the program, its sorted list of
// reuse vectors under the given cache configuration.
func Generate(np *ir.NProgram, cfg cache.Config, opt Options) map[*ir.NRef][]*Vector {
	opt = opt.withDefaults()
	sets := UniformSets(np)
	// genSet derives the sorted vector lists of one uniformly generated
	// set. Sets are independent, so they generate in parallel below; each
	// invocation owns a private generator (and displacement memo — the
	// candidate sets depend only on (M, offset difference), which repeats
	// heavily inside large sets such as Applu's 5×5 unrolled blocks).
	genSet := func(set *UniformSet) map[*ir.NRef][]*Vector {
		g := newGenerator(np, cfg, opt, set)
		part := make(map[*ir.NRef][]*Vector, len(set.Refs))
		for ci, rc := range set.Refs {
			g.acc = g.acc[:0]
			for pi, rp := range set.Refs {
				if opt.NoGroup && rp != rc {
					continue
				}
				g.pair(rp, rc, g.offs[pi], g.offs[ci])
			}
			part[rc] = g.list()
		}
		return part
	}

	out := map[*ir.NRef][]*Vector{}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sets) {
		workers = len(sets)
	}
	if workers <= 1 {
		for _, set := range sets {
			for r, vecs := range genSet(set) {
				out[r] = vecs
			}
		}
		countVectors(out)
		return out
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sets) {
					return
				}
				part := genSet(sets[i])
				mu.Lock()
				for r, vecs := range part {
					out[r] = vecs
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	countVectors(out)
	return out
}

// UniformSet is a set of uniformly generated references: same array and
// same access matrix M over the normalised index space (§3.4).
type UniformSet struct {
	Array *ir.Array
	Refs  []*ir.NRef
}

// UniformSets partitions the program's references into uniformly generated
// sets, in first-occurrence order.
func UniformSets(np *ir.NProgram) []*UniformSet {
	var sets []*UniformSet
	byKey := map[string]*UniformSet{}
	var key []byte
	for _, r := range np.Refs {
		key = uniformKey(key[:0], np.Depth, r)
		s := byKey[string(key)]
		if s == nil {
			s = &UniformSet{Array: r.Array}
			byKey[string(key)] = s
			sets = append(sets, s)
		}
		s.Refs = append(s.Refs, r)
	}
	return sets
}

// uniformKey appends the binary set key of r to buf: the array name and
// every row of the access matrix over depth n.
func uniformKey(buf []byte, n int, r *ir.NRef) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Array.Name)))
	buf = append(buf, r.Array.Name...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Subs)))
	for _, sub := range r.Subs {
		for k := 1; k <= n; k++ {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sub.At(k)))
		}
	}
	return buf
}

// generator derives the vectors of one uniformly generated set. Every
// reference of the set shares the access matrix M, so M and its derived
// systems are built once per set, and each reference's offset vector once.
type generator struct {
	np   *ir.NProgram
	cfg  cache.Config
	opt  Options
	m    *linalg.Mat // the set's access matrix
	rank int         // rows of m
	offs [][]int64   // offset vector of each of the set's references
	// memo maps a binary displacement key to its candidate vectors.
	memo map[string][][]int64

	// Scratch reused across pairs and consumers.
	key  []byte
	bT   []int64
	b    []int64
	ld   []int
	acc  []Vector  // accepted vectors of the consumer in progress
	ptrs []*Vector // acc in list order
}

func newGenerator(np *ir.NProgram, cfg cache.Config, opt Options, set *UniformSet) *generator {
	n := np.Depth
	rows, _ := set.Refs[0].AccessMatrix(n)
	g := &generator{np: np, cfg: cfg, opt: opt, m: linalg.IntMat(rows...), rank: len(rows),
		offs: make([][]int64, len(set.Refs)), memo: map[string][][]int64{},
		bT: make([]int64, len(rows)), b: make([]int64, len(rows)), ld: make([]int, n)}
	for i, r := range set.Refs {
		_, g.offs[i] = r.AccessMatrix(n)
	}
	return g
}

// lookup returns the memoised candidates of the system tagged tag with
// right-hand side b, and whether they were present. A hit allocates
// nothing.
func (g *generator) lookup(tag byte, b []int64) ([][]int64, bool) {
	g.key = append(g.key[:0], tag)
	for _, x := range b {
		g.key = binary.LittleEndian.AppendUint64(g.key, uint64(x))
	}
	got, ok := g.memo[string(g.key)]
	return got, ok
}

// store memoises the candidates yielded by gen under the key of the last
// lookup.
func (g *generator) store(gen func(yield func([]int64))) [][]int64 {
	var out [][]int64
	gen(func(r []int64) { out = append(out, append([]int64(nil), r...)) })
	g.memo[string(g.key)] = out
	return out
}

// solutions returns the candidates of M·r = b, the enumerated integral
// solutions around a particular one. Temporal and cross-column vectors
// solve the same system, so they share its memo entries.
func (g *generator) solutions(b []int64) [][]int64 {
	if got, ok := g.lookup('M', b); ok {
		return got
	}
	return g.store(func(yield func([]int64)) {
		if sol, ok := linalg.Solve(g.m, linalg.IntVec(b...)); ok {
			if p, ok := linalg.IntegralParticular(sol); ok {
				g.enumerate(p, sol.Nullspace, yield)
			}
		}
	})
}

// pair appends to g.acc every candidate vector from producer rp (offset
// vector mp) to consumer rc (offset vector mc) that is ⪰ 0, at most
// MaxPerPair of them.
func (g *generator) pair(rp, rc *ir.NRef, mp, mc []int64) {
	n := g.np.Depth
	for k := 0; k < n; k++ {
		g.ld[k] = rc.Stmt.Label[k] - rp.Stmt.Label[k]
	}
	var labelDiff []int // the pair's shared copy of g.ld, made on first use
	accepted := 0
	add := func(idx []int64, spatial, cross bool) {
		if accepted >= g.opt.MaxPerPair || !nonNegative(g.ld, idx, rp.Seq, rc.Seq) {
			return
		}
		if labelDiff == nil {
			labelDiff = append([]int(nil), g.ld...)
		}
		g.acc = append(g.acc, Vector{Producer: rp, Consumer: rc, LabelDiff: labelDiff, IdxDiff: idx, Spatial: spatial, Cross: cross})
		accepted++
	}

	// Temporal: M·r = mp − mc   (equation (1)).
	bT := g.bT
	for d := 0; d < g.rank; d++ {
		bT[d] = mp[d] - mc[d]
	}
	for _, r := range g.solutions(bT) {
		add(r, false, false)
	}
	if g.opt.NoSpatial {
		return
	}

	lineElems := g.cfg.LineElems(rp.Array.ElemSize)
	if lineElems > 1 && g.rank >= 1 {
		// Spatial within a column: M'·r = m'p − m'c with the first-subscript
		// displacement within a line (equation (2)). The memo key is the
		// whole of bT: bT[1:] is the system, bT[0] the line offset.
		spatial, ok := g.lookup('S', bT)
		if !ok {
			spatial = g.store(func(yield func([]int64)) {
				Mp := linalg.NewMat(0, n)
				if g.rank > 1 {
					Mp = g.m.DropRow(0)
				}
				if sol, ok := linalg.Solve(Mp, linalg.IntVec(bT[1:]...)); ok {
					if p, ok := linalg.IntegralParticular(sol); ok {
						g.enumerateSpatial(p, sol.Nullspace, g.m.Row(0), bT[0], lineElems, yield)
					}
				}
			})
		}
		for _, r := range spatial {
			add(r, true, false)
		}
		// Spatial across adjacent columns (second kind, Fig. 3): the last
		// element(s) of column c and the first of column c+1 share a line.
		// Target subscript displacement (consumer − producer):
		// Δ = (1 − d1 + e, 1, 0, ..., 0) and its mirror, e ∈ 0..L_s−2.
		if !g.opt.NoCrossColumn && g.rank >= 2 && rp.Array.Dims[0] > 0 {
			d1 := rp.Array.Dims[0]
			for e := int64(0); e < lineElems-1; e++ {
				for _, sign := range [2]int64{1, -1} {
					b := g.b
					copy(b, bT)
					b[0] += sign * (1 - d1 + e)
					b[1] += sign
					for _, r := range g.solutions(b) {
						add(r, true, true)
					}
				}
			}
		}
	}
}

// list returns the consumer's accepted vectors in list order, each
// (producer, displacement) once: a stable sort keeps the first-generated
// of equal vectors, and one adjacent pass drops the rest. The vectors are
// copied into one exactly sized backing array.
func (g *generator) list() []*Vector {
	if len(g.acc) == 0 {
		return nil
	}
	g.ptrs = g.ptrs[:0]
	for i := range g.acc {
		g.ptrs = append(g.ptrs, &g.acc[i])
	}
	slices.SortStableFunc(g.ptrs, listOrder)
	g.ptrs = slices.CompactFunc(g.ptrs, func(a, b *Vector) bool {
		return a.Producer == b.Producer && Compare(a, b) == 0
	})
	backing := make([]Vector, len(g.ptrs))
	out := make([]*Vector, len(g.ptrs))
	for i, v := range g.ptrs {
		backing[i] = *v
		out[i] = &backing[i]
	}
	return out
}

// enumerate yields integral points p + Σ t_i·k_i with |t_i| ≤ KernelSpan.
func (g *generator) enumerate(p linalg.Vec, kernel []linalg.Vec, yield func([]int64)) {
	span := int64(g.opt.KernelSpan)
	var rec func(cur linalg.Vec, k int)
	rec = func(cur linalg.Vec, k int) {
		if k == len(kernel) {
			if ints, ok := cur.Ints(); ok {
				yield(ints)
			}
			return
		}
		for t := -span; t <= span; t++ {
			rec(cur.Add(kernel[k].Scale(linalg.RatInt(t))), k+1)
		}
	}
	rec(p, 0)
}

// enumerateSpatial enumerates solutions of the spatial system, expanding
// the kernel directions that move the first subscript so the displacement
// sweeps the whole line, and filtering to 0 < |M1·r + off| < lineElems
// (off = mc1 − mp1; a zero displacement is temporal, not spatial).
func (g *generator) enumerateSpatial(p linalg.Vec, kernel []linalg.Vec, m1 linalg.Vec, mpMinusMc1, lineElems int64, yield func([]int64)) {
	off := -mpMinusMc1 // displacement = M1·r + mc1 − mp1
	span := int64(g.opt.KernelSpan)
	var rec func(cur linalg.Vec, k int)
	count := 0
	rec = func(cur linalg.Vec, k int) {
		if count > 4*g.opt.MaxPerPair {
			return
		}
		if k == len(kernel) {
			d := m1.Dot(cur)
			di, ok := d.Int()
			if !ok {
				return
			}
			disp := di + off
			if disp == 0 || disp <= -lineElems || disp >= lineElems {
				return
			}
			if ints, ok := cur.Ints(); ok {
				count++
				yield(ints)
			}
			return
		}
		kspan := span
		// A kernel direction that moves the first subscript must sweep the
		// whole line span.
		if !m1.Dot(kernel[k]).IsZero() {
			c := m1.Dot(kernel[k]).Abs()
			if ci, ok := c.Int(); ok && ci > 0 {
				kspan = (lineElems-1)/ci + 1
			}
		}
		for t := -kspan; t <= kspan; t++ {
			rec(cur.Add(kernel[k].Scale(linalg.RatInt(t))), k+1)
		}
	}
	rec(p, 0)
}
