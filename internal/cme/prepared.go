package cme

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
)

// Prepared is the geometry-invariant stage of the analysis pipeline: the
// normalised program together with everything that does not depend on the
// cache configuration or the inter-array layout — the per-statement
// iteration polyhedra (with volumes and bounding boxes materialised), the
// dynamic reuse pairs, and, lazily per line size, the reuse vectors and
// the memoization-eligibility table. One Prepared program serves any
// number of (cache.Config, layout) candidates: Analyzer stamps a cheap
// geometry-dependent view on top of the shared immutable state, and
// SolveBatch evaluates whole candidate sweeps against it.
//
// What is provably Config-independent (and therefore lives here):
//
//   - poly.Space per statement: built from bounds and guards only;
//   - reuse vectors: reuse.Generate consults the configuration solely
//     through LineElems, i.e. the line size — so vectors are shared per
//     LineBytes across every capacity and associativity (and across every
//     layout, since they are derived from subscripts, not addresses);
//   - the memo table: vectorMemoInfo reads loop bounds, guards and address
//     coefficients — never array bases — so it too is per-LineBytes.
//
// Array base addresses are the one piece of global mutable state
// (ir.Array.Base); Prepared captures a snapshot of the bases it was built
// under so SolveBatch can restore them after applying candidate layouts.
//
// SolveBatch is safe for concurrent use on one Prepared. A batch whose
// candidates all keep the baseline layout writes no array base and holds
// the layout lock shared; a batch that applies a candidate layout holds it
// exclusively, so concurrent batches never see each other's bases.
type Prepared struct {
	np     *ir.NProgram
	opt    Options
	spaces map[*ir.NStmt]*poly.Space
	dyn    map[*ir.NRef][]*reuse.DynamicPair
	digest [sha256.Size]byte

	layoutMu sync.RWMutex // shared by baseline batches, exclusive while bases move

	mu      sync.Mutex
	byLine  map[int64]*lineShared
	vectors atomic.Int64 // reuse vectors held across byLine, read without mu
}

// lineShared is the per-line-size slice of the geometry-invariant state.
type lineShared struct {
	lineBytes int64
	vecs      map[*ir.NRef][]*reuse.Vector
	memo      map[*ir.NRef][]memoInfo // per reference, parallel to vecs[r]

	symOnce sync.Once
	sym     map[*ir.NRef]*refSym // built on first use by Prepared.symInfo
}

// Prepare builds the geometry-invariant stage once. The program must be
// laid out (array bases assigned); the layout in effect at Prepare time is
// the batch solver's baseline, restored after every candidate sweep.
func Prepare(np *ir.NProgram, opt Options) (*Prepared, error) {
	for _, arr := range np.Arrays {
		if arr.Base < 0 {
			return nil, fmt.Errorf("cme: array %s has no base address; run layout first", arr.Name)
		}
	}
	p := &Prepared{np: np, opt: opt,
		spaces: map[*ir.NStmt]*poly.Space{},
		byLine: map[int64]*lineShared{},
	}
	for _, s := range np.Stmts {
		sp := poly.FromStmt(s)
		sp.Volume() // materialise the lazy caches so workers only read
		sp.BoundingBox()
		p.spaces[s] = sp
	}
	if opt.Reuse.NonUniform {
		p.dyn = reuse.GenerateDynamic(np)
	}
	p.digest = programDigest(np, opt)
	// Solver workers only read the linearised addresses; build them once
	// here, so a baseline batch never writes them.
	p.warmAddresses()
	return p, nil
}

// lineState returns (building on first use) the reuse vectors and memo
// table for one line size; symInfo adds the symbolic-region eligibility.
func (p *Prepared) lineState(lineBytes int64) *lineShared {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ls, ok := p.byLine[lineBytes]; ok {
		return ls
	}
	// Any valid configuration with this line size yields the same vectors;
	// reuse.Generate reads it only through LineElems. (Options.Vectors is
	// not consulted here: caller-supplied vectors describe one line size,
	// and only New, which knows it, seeds the table with them.)
	cfg := cache.Config{SizeBytes: lineBytes, LineBytes: lineBytes, Assoc: 1}
	return p.addLine(lineBytes, reuse.Generate(p.np, cfg, p.opt.Reuse))
}

// addLine files one line size's reuse vectors with their memo table (p.mu
// held, or p not yet shared) and counts them. The symbolic-region
// eligibility, which reads the same inputs, is built on first use
// (symInfo).
func (p *Prepared) addLine(lineBytes int64, vecs map[*ir.NRef][]*reuse.Vector) *lineShared {
	ls := &lineShared{lineBytes: lineBytes, vecs: vecs, memo: memoTable(p.np, vecs)}
	p.byLine[lineBytes] = ls
	n := 0
	for _, vs := range vecs {
		n += len(vs)
	}
	p.vectors.Add(int64(n))
	return ls
}

// VectorCount is the number of reuse vectors p holds, summed over the
// line sizes solved so far. It never waits on p's locks, so a store of
// prepared programs can weigh its entries while they are being solved.
func (p *Prepared) VectorCount() int64 { return p.vectors.Load() }

// symInfo returns the symbolic-region eligibility of one line size's
// references, building it on first use. Only exact solves read it — the
// tile runner, the batch tiler and geometry planning.
func (p *Prepared) symInfo(ls *lineShared) map[*ir.NRef]*refSym {
	ls.symOnce.Do(func() {
		ls.sym = buildSymInfo(p.np, p.spaces, ls.vecs, ls.memo, p.dyn, ls.lineBytes)
	})
	return ls.sym
}

// Analyzer stamps a geometry-dependent view of the Prepared program for
// one cache configuration. The returned Analyzer shares the Prepared
// spaces, vectors and memo table immutably; building it costs no
// re-normalisation, no reuse generation and no polyhedron work.
func (p *Prepared) Analyzer(cfg cache.Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{p: p, np: p.np, cfg: cfg, opt: p.opt, ls: p.lineState(cfg.LineBytes)}
	a.numSets = cfg.NumSets()
	// Addresses in the model are non-negative (layout validates bases), so
	// a power-of-two set count lets the per-access set filter strength-
	// reduce the modulo to a mask.
	a.setMask = -1
	if a.numSets&(a.numSets-1) == 0 {
		a.setMask = a.numSets - 1
	}
	// Solver workers only read the linearised addresses. Prepare and every
	// layout change build them, so this only reads them unless the bases
	// were moved behind the Prepared's back.
	p.warmAddresses()
	return a, nil
}

// Program returns the underlying normalised program.
func (p *Prepared) Program() *ir.NProgram { return p.np }

// Digest returns the content digest of the prepared program: program
// structure (bounds, guards, subscripts, array shapes), reference order
// and the analysis options that shape results. Array bases are excluded —
// the layout is a per-candidate input and enters the result-cache key
// separately — so the digest is stable across re-layouts of one program.
func (p *Prepared) Digest() []byte {
	d := p.digest
	return d[:]
}

// programDigest hashes everything about (np, opt) that determines
// analysis results except cache geometry and array bases.
func programDigest(np *ir.NProgram, opt Options) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wa := func(a ir.Affine) {
		wi(a.Const)
		wi(int64(len(a.Coeff)))
		for _, c := range a.Coeff {
			wi(c)
		}
	}
	wi(int64(np.Depth))
	wi(int64(len(np.Stmts)))
	for _, s := range np.Stmts {
		for _, l := range s.Label {
			wi(int64(l))
		}
		wi(int64(len(s.Bounds)))
		for _, b := range s.Bounds {
			wa(b.Lo)
			wa(b.Hi)
		}
		wi(int64(len(s.Guards)))
		for _, g := range s.Guards {
			wa(g.Expr)
			if g.IsEq {
				wi(1)
			} else {
				wi(0)
			}
		}
	}
	wi(int64(len(np.Arrays)))
	for _, a := range np.Arrays {
		h.Write([]byte(a.Name))
		wi(a.ElemSize)
		for _, d := range a.Dims {
			wi(d)
		}
	}
	wi(int64(len(np.Refs)))
	for _, r := range np.Refs {
		wi(int64(r.Seq))
		h.Write([]byte(r.Array.Name))
		if r.Write {
			wi(1)
		} else {
			wi(0)
		}
		wi(int64(len(r.Subs)))
		for _, s := range r.Subs {
			wa(s)
		}
	}
	// Analysis options that change classification results.
	ro := opt.Reuse
	wi(int64(ro.KernelSpan))
	wi(int64(ro.MaxPerPair))
	flag := func(b bool) {
		if b {
			wi(1)
		} else {
			wi(0)
		}
	}
	flag(ro.NoSpatial)
	flag(ro.NoCrossColumn)
	flag(ro.NoGroup)
	flag(ro.NonUniform)
	flag(opt.PaperLRU)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
