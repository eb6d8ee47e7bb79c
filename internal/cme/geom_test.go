package cme

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/ir"
)

// geomColumnCands builds a cache-size column: count candidates at a fixed
// line size and associativity, sizes from, from+step, ...
func geomColumnCands(from, step int64, count int, lineBytes int64, assoc int) []Candidate {
	cands := make([]Candidate, count)
	for i := range cands {
		cfg := cache.Config{SizeBytes: from + int64(i)*step, LineBytes: lineBytes, Assoc: assoc}
		cands[i] = Candidate{Label: cfg.String(), Config: cfg}
	}
	return cands
}

// geomVsFused solves the same candidates with the geometry-parametric
// tier on and off and asserts bit-identical per-ref counts; it returns
// the geom-tier reports for provenance checks.
func geomVsFused(t *testing.T, label string, p *Prepared, cands []Candidate, workers int) []*Report {
	t.Helper()
	geom, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatalf("%s: geom SolveBatch: %v", label, err)
	}
	fused, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: workers, NoGeom: true})
	if err != nil {
		t.Fatalf("%s: fused SolveBatch: %v", label, err)
	}
	for i := range cands {
		sameCounts(t, fmt.Sprintf("%s/%s", label, cands[i].Label), geom[i], fused[i])
	}
	return geom
}

// TestGeomStableColumnClosedForm: a column entirely above the footprint
// span must solve one anchor and answer the rest in closed form,
// bit-identical to the enumerating solver.
func TestGeomStableColumnClosedForm(t *testing.T) {
	// stencil1D(64): A and B are 64 reals = 512 B each, ~33 lines of 32 B
	// total footprint. Sizes 2048..6656 step 512 → 64..208 sets, all
	// stable.
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := geomColumnCands(2048, 512, 10, 32, 1)
	reps := geomVsFused(t, "stable", p, cands, 2)

	anchors, closed := 0, 0
	for i, rep := range reps {
		g := rep.Geom
		if g == nil {
			t.Fatalf("candidate %s: no geom provenance", cands[i].Label)
		}
		if g.Axis != AxisSets || g.Param != cands[i].Config.NumSets() {
			t.Errorf("candidate %s: provenance on axis %q at %d", cands[i].Label, g.Axis, g.Param)
		}
		if strings.HasPrefix(g.Why, "unstable") {
			t.Errorf("candidate %s: not certified stable (%s)", cands[i].Label, g.Why)
		}
		if g.Anchor {
			anchors++
		} else if g.Closed() {
			closed++
		}
		if g.FallthroughRefs != 0 {
			t.Errorf("candidate %s: %d fall-throughs inside the stable region", cands[i].Label, g.FallthroughRefs)
		}
	}
	// One stable class: its first member anchors, the rest copy it.
	if anchors != 1 || !reps[0].Geom.Anchor {
		t.Errorf("anchors = %d (first member anchor %v), want 1, the first", anchors, reps[0].Geom.Anchor)
	}
	if closed != len(cands)-1 {
		t.Errorf("closed-form members = %d, want %d", closed, len(cands)-1)
	}
}

// TestGeomGridOneAnchorPerLineSize: a grid of two line sizes ×
// associativities {1, 2, 4} × three capacities, every member stable,
// forms one class per line size: exactly one anchor each, at any
// associativity, and every other member closed form, bit-identical to the
// enumerating solver. A one-candidate batch has nothing to share and
// carries no provenance.
func TestGeomGridOneAnchorPerLineSize(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	var cands []Candidate
	for _, size := range []int64{16 << 10, 24 << 10, 32 << 10} {
		for _, lb := range []int64{32, 64} {
			for _, assoc := range []int{1, 2, 4} {
				cfg := cache.Config{SizeBytes: size, LineBytes: lb, Assoc: assoc}
				cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
			}
		}
	}
	reps := geomVsFused(t, "grid", p, cands, 2)
	anchors := map[int64]int{}
	for i, rep := range reps {
		g, lb := rep.Geom, cands[i].Config.LineBytes
		switch {
		case g == nil:
			t.Errorf("candidate %s: no geom provenance", cands[i].Label)
		case g.Anchor:
			anchors[lb]++
		case !g.Closed():
			t.Errorf("candidate %s: not closed form: %+v", cands[i].Label, g)
		}
	}
	for _, lb := range []int64{32, 64} {
		if anchors[lb] != 1 {
			t.Errorf("line %d: %d anchors, want 1", lb, anchors[lb])
		}
	}

	solo, err := p.SolveBatch(context.Background(), cands[:1], BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("solo SolveBatch: %v", err)
	}
	if solo[0].Geom != nil {
		t.Errorf("one-candidate batch carries geom provenance %+v", solo[0].Geom)
	}
}

// TestGeomNegativeAddressSpan: the footprint span floors negative
// addresses the way the fused walk does. NEGT's A(I-3) reaches 24 bytes
// below address 0, so its 32-byte lines run from -1 to 31: a span of 32
// lines, not the 31 a truncating division reports. The 32-set
// direct-mapped member has replacement misses, so certifying it stable
// would copy wrong counts into the members above it.
func TestGeomNegativeAddressSpan(t *testing.T) {
	_, p := prepBatch(t, negt(64, 3, 2), Options{})
	span := p.footprintSpanLines(32)
	if span != 32 {
		t.Fatalf("footprint span = %d lines, want 32", span)
	}
	var cands []Candidate
	for sets := span; sets <= span+8; sets++ {
		cfg := cache.Config{SizeBytes: sets * 32, LineBytes: 32, Assoc: 1}
		cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
	}
	reps := geomVsFused(t, "negt", p, cands, 2)
	if !strings.HasPrefix(reps[0].Geom.Why, "unstable") {
		t.Errorf("%s: %+v, want unstable", cands[0].Label, reps[0].Geom)
	}
	if !reps[1].Geom.Anchor {
		t.Errorf("%s: %+v, want the anchor", cands[1].Label, reps[1].Geom)
	}
}

// TestGeomMixedColumn: a column straddling the span certificate solves
// the unstable members through the fused path (with provenance saying
// why) and still answers the stable tail in closed form.
func TestGeomMixedColumn(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	// 256 B..6400 B: the small sizes sit below the ~33-line span.
	cands := geomColumnCands(256, 512, 13, 32, 1)
	reps := geomVsFused(t, "mixed", p, cands, 2)

	unstable, closed := 0, 0
	for _, rep := range reps {
		g := rep.Geom
		if g == nil {
			continue
		}
		if strings.HasPrefix(g.Why, "unstable") {
			unstable++
		}
		if g.Closed() {
			closed++
		}
	}
	if unstable == 0 {
		t.Error("no unstable member; widen the column downward")
	}
	if closed == 0 {
		t.Error("no closed-form member; widen the column upward")
	}
}

// TestGeomNonPow2AndAssoc: non-power-of-two set counts and assoc > 1
// stay bit-identical (the walkers take their general-modulo paths).
func TestGeomNonPow2AndAssoc(t *testing.T) {
	_, p := prepBatch(t, copyThenRead(48), Options{})
	var cands []Candidate
	// assoc 2, line 32: sizes chosen so NumSets = size/64 includes
	// non-powers-of-two (96, 112, 160, ...), all above the ~13-line span.
	for i := 0; i < 8; i++ {
		cfg := cache.Config{SizeBytes: 6144 + int64(i)*1024, LineBytes: 32, Assoc: 2}
		cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
	}
	reps := geomVsFused(t, "nonpow2", p, cands, 3)
	sawClosed := false
	for _, rep := range reps {
		if rep.Geom.Closed() {
			sawClosed = true
		}
	}
	if !sawClosed {
		t.Error("no candidate was answered in closed form")
	}
}

// TestGeomPaperLRU: the certificate must hold under the paper's verbatim
// forward-scan replacement equations too.
func TestGeomPaperLRU(t *testing.T) {
	_, p := prepBatch(t, copyThenRead(48), Options{PaperLRU: true})
	cands := geomColumnCands(2048, 256, 8, 32, 1)
	geomVsFused(t, "paperlru", p, cands, 2)
}

// TestGeomMultiColumnGroup: a layout group holding two interleaved
// columns (two line sizes) plans them independently.
func TestGeomMultiColumnGroup(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	var cands []Candidate
	for i := 0; i < 6; i++ {
		for _, lb := range []int64{32, 64} {
			cfg := cache.Config{SizeBytes: 4096 + int64(i)*512, LineBytes: lb, Assoc: 1}
			cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
		}
	}
	reps := geomVsFused(t, "multicol", p, cands, 4)
	closedPerLine := map[int64]int{}
	for i, rep := range reps {
		if rep.Geom != nil && rep.Geom.Closed() {
			closedPerLine[cands[i].Config.LineBytes]++
		}
	}
	for _, lb := range []int64{32, 64} {
		if closedPerLine[lb] == 0 {
			t.Errorf("line %d: no closed-form member", lb)
		}
	}
}

// TestGeomBudgetBypass: any budget — including a pure fault-injection
// hook — disables the tier, so budget checkpoint parity with the solo
// solvers is untouched and the reports carry no geom provenance.
func TestGeomBudgetBypass(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := geomColumnCands(2048, 512, 6, 32, 1)
	reps, err := p.SolveBatch(context.Background(), cands,
		BatchOptions{Workers: 2, Budget: budget.Budget{Hook: faultinject.ExhaustAt(1 << 30).Hook()}})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, rep := range reps {
		if rep.Geom != nil {
			t.Errorf("candidate %s: geom tier engaged under a budget hook", cands[i].Label)
		}
	}
}

// TestGeomPlainBudgetEngages: an ordinary point/scan budget (no fault
// hook) keeps the tier eligible — serve arms one on every job — and a
// budget generous enough never to trip yields bit-identical counts with
// untouched closed-form provenance.
func TestGeomPlainBudgetEngages(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := geomColumnCands(2048, 512, 10, 32, 1)
	bud := budget.Budget{MaxPoints: 1 << 40, MaxScan: 1 << 40}
	geom, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2, Budget: bud})
	if err != nil {
		t.Fatalf("geom SolveBatch: %v", err)
	}
	fused, err := p.SolveBatch(context.Background(), cands,
		BatchOptions{Workers: 2, Budget: bud, NoGeom: true})
	if err != nil {
		t.Fatalf("fused SolveBatch: %v", err)
	}
	closed := 0
	for i := range cands {
		sameCounts(t, "budgeted/"+cands[i].Label, geom[i], fused[i])
		if g := geom[i].Geom; g == nil {
			t.Errorf("candidate %s: geom tier skipped under a plain budget", cands[i].Label)
		} else if g.Closed() {
			closed++
		}
	}
	if closed == 0 {
		t.Errorf("no closed-form members under a plain budget")
	}
}

// TestGeomExhaustedBudgetDegrades: a budget too small to finish the
// anchors must never yield silently wrong closed forms — every deferred
// reference either fails the fit's census check and falls through to
// the ordinary degradation ladder, or is filled from anchors that did
// complete exactly.
func TestGeomExhaustedBudgetDegrades(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := geomColumnCands(2048, 512, 10, 32, 1)
	truth, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2, NoGeom: true})
	if err != nil {
		t.Fatalf("truth SolveBatch: %v", err)
	}
	for _, maxPoints := range []int64{1, 64, 1024} {
		reps, err := p.SolveBatch(context.Background(), cands,
			BatchOptions{Workers: 2, Budget: budget.Budget{MaxPoints: maxPoints}})
		if err != nil {
			t.Fatalf("MaxPoints=%d: SolveBatch: %v", maxPoints, err)
		}
		for i, rep := range reps {
			for ri, rr := range rep.Refs {
				if !rr.Complete || rr.Sampled || rr.Tier != TierExact {
					continue // degraded or unfinished: not a closed-form claim
				}
				want := truth[i].Refs[ri]
				if rr.Hits != want.Hits || rr.Cold != want.Cold || rr.Repl != want.Repl {
					t.Errorf("MaxPoints=%d %s ref %s: exact-tier counts %d/%d/%d want %d/%d/%d",
						maxPoints, cands[i].Label, rr.Ref.ID,
						rr.Hits, rr.Cold, rr.Repl, want.Hits, want.Cold, want.Repl)
				}
			}
		}
	}
}

// TestGeomNoSymbolicBypass: NoSymbolic forces enumeration everywhere,
// including the geometry tier.
func TestGeomNoSymbolicBypass(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{NoSymbolic: true})
	cands := geomColumnCands(2048, 512, 6, 32, 1)
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, rep := range reps {
		if rep.Geom != nil {
			t.Errorf("candidate %s: geom tier engaged under NoSymbolic", cands[i].Label)
		}
	}
}

// TestGeomResultCacheInteraction: geom-filled references are not
// published to the result cache (only enumerator-produced counts are),
// and a second sweep over the same column still reproduces the counts
// bit-identically.
func TestGeomResultCacheInteraction(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	cands := geomColumnCands(2048, 512, 8, 32, 1)
	rc := NewResultCache(0)
	first, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2, Cache: rc})
	if err != nil {
		t.Fatalf("first SolveBatch: %v", err)
	}
	second, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2, Cache: rc})
	if err != nil {
		t.Fatalf("second SolveBatch: %v", err)
	}
	for i := range cands {
		sameCounts(t, "rc/"+cands[i].Label, second[i], first[i])
	}
}

// geomFuzzPrograms is the generator pool for FuzzGeomParamVsFused.
var geomFuzzPrograms = []func() *ir.Subroutine{
	func() *ir.Subroutine { return stencil1D(64) },
	func() *ir.Subroutine { return copyThenRead(48) },
	func() *ir.Subroutine { return transpose2D(10) },
	func() *ir.Subroutine { return triangularGuarded(12) },
	func() *ir.Subroutine { return negt(64, 3, 2) },
}

// FuzzGeomParamVsFused: for random programs, two associativities and
// set-count ladders, over both line sizes in one batch — including
// non-power-of-two set counts and ladders straddling the stability span,
// so a stable class spans associativities — the geometry-parametric tier
// must produce per-ref miss counts bit-identical to the fused enumerating
// solver, and a budget hook must bypass the tier entirely.
func FuzzGeomParamVsFused(f *testing.F) {
	// assocA/assocB select associativity 1 + value mod 8, fromSets the
	// first set count 1 + value mod 512, stepSets the step 1 + value mod 64.
	f.Add(uint8(0), uint8(0), uint8(1), uint16(64), uint16(32), uint8(10))
	f.Add(uint8(1), uint8(1), uint8(0), uint16(96), uint16(48), uint8(8))
	f.Add(uint8(2), uint8(0), uint8(3), uint16(33), uint16(7), uint8(12))
	f.Add(uint8(3), uint8(3), uint8(7), uint16(200), uint16(100), uint8(6))
	f.Add(uint8(4), uint8(0), uint8(1), uint16(30), uint16(0), uint8(9))
	f.Fuzz(func(t *testing.T, progSel, assocA, assocB uint8, fromSets, stepSets uint16, count uint8) {
		build := geomFuzzPrograms[int(progSel)%len(geomFuzzPrograms)]
		assocs := []int{int(assocA%8) + 1}
		if b := int(assocB%8) + 1; b != assocs[0] {
			assocs = append(assocs, b)
		}
		n := int(count%12) + 2
		from := int64(fromSets%512) + 1
		step := int64(stepSets%64) + 1

		_, p := prepBatch(t, build(), Options{})
		var cands []Candidate
		for i := 0; i < n; i++ {
			sets := from + int64(i)*step
			for _, lineBytes := range []int64{32, 64} {
				for _, na := range assocs {
					cfg := cache.Config{SizeBytes: sets * lineBytes * int64(na), LineBytes: lineBytes, Assoc: na}
					cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
				}
			}
		}
		geom, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("geom SolveBatch: %v", err)
		}
		fused, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2, NoGeom: true})
		if err != nil {
			t.Fatalf("fused SolveBatch: %v", err)
		}
		for i := range cands {
			g, w := geom[i], fused[i]
			for ri := range w.Refs {
				gr, wr := g.Refs[ri], w.Refs[ri]
				if gr.Hits != wr.Hits || gr.Cold != wr.Cold || gr.Repl != wr.Repl ||
					gr.Analyzed != wr.Analyzed || !gr.Complete {
					t.Fatalf("%s ref %d: geom (h=%d c=%d r=%d n=%d complete=%v) != fused (h=%d c=%d r=%d n=%d)",
						cands[i].Label, ri, gr.Hits, gr.Cold, gr.Repl, gr.Analyzed, gr.Complete,
						wr.Hits, wr.Cold, wr.Repl, wr.Analyzed)
				}
			}
			// Provenance discipline: a claimed member accounts for every
			// ref as closed, fallthrough, or neither claimed at all.
			if gi := g.Geom; gi != nil && gi.ClosedRefs+gi.FallthroughRefs > gi.TotalRefs {
				t.Fatalf("%s: provenance overcount: %+v", cands[i].Label, gi)
			}
		}
		// Budget-parity: a fault hook must bypass the tier.
		budgeted, err := p.SolveBatch(context.Background(), cands,
			BatchOptions{Workers: 2, Budget: budget.Budget{Hook: faultinject.ExhaustAt(1 << 30).Hook()}})
		if err != nil {
			t.Fatalf("budgeted SolveBatch: %v", err)
		}
		for i, rep := range budgeted {
			if rep.Geom != nil {
				t.Fatalf("%s: geom tier engaged under a budget hook", cands[i].Label)
			}
		}
	})
}
