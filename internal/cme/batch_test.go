package cme

import (
	"context"
	"errors"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
)

// prepBatch normalises and baseline-lays-out a subroutine, then builds the
// geometry-invariant Prepared stage.
func prepBatch(t testing.TB, sub *ir.Subroutine, opt Options) (*ir.NProgram, *Prepared) {
	t.Helper()
	np, err := normalize.Normalize(sub)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		t.Fatalf("layout: %v", err)
	}
	p, err := Prepare(np, opt)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return np, p
}

// soloReport runs the classic per-candidate pipeline from scratch on a fresh
// build of the same subroutine: normalize, candidate layout, New, and either
// FindMisses or EstimateMisses. This is the golden reference SolveBatch must
// match bit-for-bit.
func soloReport(t testing.TB, build func() *ir.Subroutine, cfg cache.Config, lo *layout.Options, opt Options, plan *sampling.Plan) *Report {
	t.Helper()
	np, err := normalize.Normalize(build())
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	use := layout.Options{}
	if lo != nil {
		use = *lo
	}
	if err := layout.AssignProgram(np, use); err != nil {
		t.Fatalf("layout: %v", err)
	}
	a, err := New(np, cfg, opt)
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	if plan == nil {
		return a.FindMisses()
	}
	rep, err := a.EstimateMisses(*plan)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	return rep
}

// sameCounts asserts two reports agree bit-for-bit on every per-reference
// aggregate the solvers produce.
func sameCounts(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil report", label)
	}
	if len(got.Refs) != len(want.Refs) {
		t.Fatalf("%s: %d refs, want %d", label, len(got.Refs), len(want.Refs))
	}
	for i, g := range got.Refs {
		w := want.Refs[i]
		if g.Volume != w.Volume || g.Analyzed != w.Analyzed ||
			g.Hits != w.Hits || g.Cold != w.Cold || g.Repl != w.Repl ||
			g.Sampled != w.Sampled || !g.Complete {
			t.Errorf("%s ref %d (%s): got vol=%d n=%d hit=%d cold=%d repl=%d sampled=%v complete=%v; want vol=%d n=%d hit=%d cold=%d repl=%d sampled=%v",
				label, i, w.Ref.ID,
				g.Volume, g.Analyzed, g.Hits, g.Cold, g.Repl, g.Sampled, g.Complete,
				w.Volume, w.Analyzed, w.Hits, w.Cold, w.Repl, w.Sampled)
		}
	}
}

// batchPrograms are the golden-sweep subjects: straight-line reuse,
// cross-nest group reuse, and a transposed walk.
var batchPrograms = []struct {
	name  string
	build func() *ir.Subroutine
}{
	{"stencil", func() *ir.Subroutine { return stencil1D(64) }},
	{"copyread", func() *ir.Subroutine { return copyThenRead(48) }},
	{"transpose", func() *ir.Subroutine { return transpose2D(12) }},
}

// sweepCandidates builds the golden design space: every tiny geometry (two
// distinct line sizes, so the fused solver forms several fuse groups) under
// three layouts (baseline plus two paddings of A).
func sweepCandidates() []Candidate {
	// Pad both arrays: whichever is placed first, its pad shifts the other,
	// so every program sees three genuinely distinct layouts.
	pads := []*layout.Options{
		nil,
		{PadOf: map[string]int64{"A": 8, "B": 8}},
		{PadOf: map[string]int64{"A": 64, "B": 64}},
	}
	var cands []Candidate
	for _, cfg := range tinyConfigs() {
		for pi, lo := range pads {
			cands = append(cands, Candidate{
				Label:  cfg.String() + "/pad" + string(rune('0'+pi)),
				Config: cfg,
				Layout: lo,
			})
		}
	}
	return cands
}

// TestSolveBatchGoldenExact is the golden sweep: SolveBatch over four
// geometries times three paddings must be bit-identical to running the full
// classic pipeline independently per candidate, at any worker count.
func TestSolveBatchGoldenExact(t *testing.T) {
	for _, prog := range batchPrograms {
		np, p := prepBatch(t, prog.build(), Options{})
		base := make([]int64, len(np.Arrays))
		for i, a := range np.Arrays {
			base[i] = a.Base
		}
		cands := sweepCandidates()
		for _, workers := range []int{1, 4} {
			reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: SolveBatch: %v", prog.name, err)
			}
			for i, c := range cands {
				want := soloReport(t, prog.build, c.Config, c.Layout, Options{}, nil)
				sameCounts(t, prog.name+"/"+c.Label, reps[i], want)
			}
		}
		// The batch must leave the baseline layout in place.
		for i, a := range np.Arrays {
			if a.Base != base[i] {
				t.Errorf("%s: array %s base %d after batch, want baseline %d", prog.name, a.Name, a.Base, base[i])
			}
		}
	}
}

// TestSolveBatchGoldenPaperLRU repeats the golden sweep under the paper's
// verbatim replacement equations, whose fused walk takes the other branch.
func TestSolveBatchGoldenPaperLRU(t *testing.T) {
	opt := Options{PaperLRU: true}
	_, p := prepBatch(t, copyThenRead(48), opt)
	cands := sweepCandidates()
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, c := range cands {
		want := soloReport(t, func() *ir.Subroutine { return copyThenRead(48) }, c.Config, c.Layout, opt, nil)
		sameCounts(t, "paperlru/"+c.Label, reps[i], want)
	}
}

// TestSolveBatchGoldenNonUniform covers dynamic reuse: with NonUniform
// enabled the fused walk also decides the non-uniform producers, and must
// still match solo FindMisses exactly.
func TestSolveBatchGoldenNonUniform(t *testing.T) {
	opt := Options{Reuse: reuse.Options{NonUniform: true}}
	_, p := prepBatch(t, transpose2D(12), opt)
	cands := sweepCandidates()
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, c := range cands {
		want := soloReport(t, func() *ir.Subroutine { return transpose2D(12) }, c.Config, c.Layout, opt, nil)
		sameCounts(t, "nonuniform/"+c.Label, reps[i], want)
	}
}

// TestSolveBatchGoldenSampled checks the sampled tier: batch estimates under
// a fixed seed must be distribution-identical — in fact bit-identical, since
// the per-reference RNG streams are geometry-independent — to solo
// EstimateMisses.
func TestSolveBatchGoldenSampled(t *testing.T) {
	plan := sampling.Plan{C: 0.95, W: 0.05}
	_, p := prepBatch(t, stencil1D(512), Options{})
	cands := sweepCandidates()
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Plan: &plan, Workers: 4})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	sampledRefs := 0
	for i, c := range cands {
		want := soloReport(t, func() *ir.Subroutine { return stencil1D(512) }, c.Config, c.Layout, Options{}, &plan)
		sameCounts(t, "sampled/"+c.Label, reps[i], want)
		for _, rr := range reps[i].Refs {
			if rr.Sampled {
				sampledRefs++
			}
		}
	}
	if sampledRefs == 0 {
		t.Fatalf("no reference actually sampled; enlarge the program so the test exercises the sampled tier")
	}
}

// TestSolveBatchResultCache proves the content-addressed cache: a second
// identical sweep is served entirely from the cache, bit-identically.
func TestSolveBatchResultCache(t *testing.T) {
	np, p := prepBatch(t, copyThenRead(48), Options{})
	cands := sweepCandidates()
	rc := NewResultCache(0)
	opt := BatchOptions{Cache: rc, Workers: 2}

	first, err := p.SolveBatch(context.Background(), cands, opt)
	if err != nil {
		t.Fatalf("first SolveBatch: %v", err)
	}
	s1 := rc.Stats()
	wantMiss := int64(len(cands) * len(np.Refs))
	if s1.Hits != 0 || s1.Misses != wantMiss {
		t.Fatalf("first sweep stats = %+v, want 0 hits / %d misses", s1, wantMiss)
	}
	if s1.Entries != int(wantMiss) {
		t.Fatalf("first sweep stored %d entries, want %d", s1.Entries, wantMiss)
	}

	second, err := p.SolveBatch(context.Background(), cands, opt)
	if err != nil {
		t.Fatalf("second SolveBatch: %v", err)
	}
	s2 := rc.Stats()
	if s2.Hits != wantMiss || s2.Misses != wantMiss {
		t.Fatalf("second sweep stats = %+v, want %d hits / %d misses (all served from cache)", s2, wantMiss, wantMiss)
	}
	for i := range cands {
		sameCounts(t, "cached/"+cands[i].Label, second[i], first[i])
	}
}

// TestSolveBatchDuplicates: identical candidates inside one call solve once
// and copy; the cache observes only one set of misses per distinct candidate.
func TestSolveBatchDuplicates(t *testing.T) {
	np, p := prepBatch(t, stencil1D(64), Options{})
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	cands := []Candidate{
		{Label: "a", Config: cfg},
		{Label: "b", Config: cfg},
		{Label: "c", Config: cfg},
	}
	rc := NewResultCache(0)
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Cache: rc, Workers: 2})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if got, want := rc.Stats().Misses, int64(len(np.Refs)); got != want {
		t.Errorf("duplicates were solved separately: %d cache misses, want %d", got, want)
	}
	sameCounts(t, "dup b", reps[1], reps[0])
	sameCounts(t, "dup c", reps[2], reps[0])
}

// TestSolveBatchCacheRoundTrip: Save/Load moves results across cache
// instances (the optional on-disk store).
func TestSolveBatchCacheRoundTrip(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := sweepCandidates()[:4]
	rc := NewResultCache(0)
	first, err := p.SolveBatch(context.Background(), cands, BatchOptions{Cache: rc, Workers: 2})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	path := t.TempDir() + "/results.json"
	if err := rc.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	rc2 := NewResultCache(0)
	if err := rc2.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Cache: rc2, Workers: 2})
	if err != nil {
		t.Fatalf("SolveBatch after load: %v", err)
	}
	if s := rc2.Stats(); s.Misses != 0 {
		t.Errorf("reloaded cache missed %d times, want 0", s.Misses)
	}
	for i := range cands {
		sameCounts(t, "roundtrip/"+cands[i].Label, reps[i], first[i])
	}
}

// TestResultCacheLRU: the cache honours its capacity bound and counts
// evictions.
func TestResultCacheLRU(t *testing.T) {
	rc := NewResultCache(2)
	rc.put(tk("a"), cachedRef{Hits: 1})
	rc.put(tk("b"), cachedRef{Hits: 2})
	rc.put(tk("c"), cachedRef{Hits: 3}) // evicts a
	if _, ok := rc.get(tk("a")); ok {
		t.Error("oldest entry survived past capacity")
	}
	if v, ok := rc.get(tk("b")); !ok || v.Hits != 2 {
		t.Error("entry b lost")
	}
	rc.put(tk("d"), cachedRef{Hits: 4}) // evicts c (b was just touched)
	if _, ok := rc.get(tk("c")); ok {
		t.Error("LRU order ignores recency of use")
	}
	s := rc.Stats()
	if s.Evictions != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 evictions, 2 entries", s)
	}
}

// TestSolveBatchCanceled: a cancelled context surfaces cerr.ErrCanceled.
func TestSolveBatchCanceled(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.SolveBatch(ctx, sweepCandidates(), BatchOptions{Workers: 2})
	if !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("err = %v, want cerr.ErrCanceled", err)
	}
}

// TestPreparedDigestStability: the digest must ignore layout (bases) but
// react to program structure and result-shaping options.
func TestPreparedDigestStability(t *testing.T) {
	np1, err := normalize.Normalize(stencil1D(64))
	if err != nil {
		t.Fatal(err)
	}
	d0 := programDigest(np1, Options{})
	if err := layout.AssignProgram(np1, layout.Options{PadOf: map[string]int64{"A": 64}}); err != nil {
		t.Fatal(err)
	}
	if d1 := programDigest(np1, Options{}); d1 != d0 {
		t.Error("digest changed with layout; it must be layout-invariant")
	}
	if d2 := programDigest(np1, Options{PaperLRU: true}); d2 == d0 {
		t.Error("digest ignored PaperLRU")
	}
	np2, err := normalize.Normalize(stencil1D(65))
	if err != nil {
		t.Fatal(err)
	}
	if d3 := programDigest(np2, Options{}); d3 == d0 {
		t.Error("digest ignored program structure")
	}
}
