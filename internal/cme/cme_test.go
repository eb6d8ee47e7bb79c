package cme

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

// prep normalises, lays out and wraps a subroutine for analysis.
func prep(t testing.TB, sub *ir.Subroutine, cfg cache.Config, opt Options) (*ir.NProgram, *Analyzer) {
	t.Helper()
	np, err := normalize.Normalize(sub)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		t.Fatalf("layout: %v", err)
	}
	a, err := New(np, cfg, opt)
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	return np, a
}

// checkExact asserts FindMisses matches the simulator per reference.
func checkExact(t *testing.T, np *ir.NProgram, a *Analyzer, cfg cache.Config) {
	t.Helper()
	rep := a.FindMisses()
	sim := trace.Simulate(np, cfg)
	for _, rr := range rep.Refs {
		st := sim.PerRef[rr.Ref]
		var simMiss, simAcc int64
		if st != nil {
			simMiss, simAcc = st.Misses, st.Accesses
		}
		if rr.Volume != simAcc {
			t.Errorf("%s [%s]: |RIS| = %d but simulator saw %d accesses", rr.Ref.ID, cfg, rr.Volume, simAcc)
		}
		if rr.Misses() != simMiss {
			t.Errorf("%s [%s]: analytical misses %d (cold %d, repl %d), simulator %d",
				rr.Ref.ID, cfg, rr.Misses(), rr.Cold, rr.Repl, simMiss)
		}
	}
}

// checkConservative asserts FindMisses never undercounts misses.
func checkConservative(t *testing.T, np *ir.NProgram, a *Analyzer, cfg cache.Config) {
	t.Helper()
	rep := a.FindMisses()
	sim := trace.Simulate(np, cfg)
	for _, rr := range rep.Refs {
		st := sim.PerRef[rr.Ref]
		var simMiss int64
		if st != nil {
			simMiss = st.Misses
		}
		if rr.Misses() < simMiss {
			t.Errorf("%s [%s]: analytical misses %d < simulator %d (must be conservative)",
				rr.Ref.ID, cfg, rr.Misses(), simMiss)
		}
	}
}

func tinyConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 256, LineBytes: 32, Assoc: 1},
		{SizeBytes: 256, LineBytes: 32, Assoc: 2},
		{SizeBytes: 512, LineBytes: 64, Assoc: 4},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
	}
}

// stencil1D builds: DO I = 2, n−1: A(I) = B(I−1) + B(I) + B(I+1).
func stencil1D(n int64) *ir.Subroutine {
	b := ir.NewSub("stencil")
	A := b.Real8("A", n)
	B := b.Real8("B", n)
	b.Do("I", ir.Con(2), ir.Con(n-1)).
		Assign("S1", ir.R(A, ir.Var("I")),
			ir.R(B, ir.Var("I").PlusConst(-1)), ir.R(B, ir.Var("I")), ir.R(B, ir.Var("I").PlusConst(1))).
		End()
	return b.Build()
}

func TestStencilExact(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		np, a := prep(t, stencil1D(64), cfg, Options{})
		checkExact(t, np, a, cfg)
	}
}

// copyThenRead exercises cross-nest group reuse: the second nest re-reads
// what the first nest wrote.
func copyThenRead(n int64) *ir.Subroutine {
	b := ir.NewSub("copyread")
	A := b.Real8("A", n)
	B := b.Real8("B", n)
	b.Do("I", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("I")), ir.R(B, ir.Var("I"))).
		End().
		Do("I", ir.Con(1), ir.Con(n)).
		Assign("S2", ir.R(B, ir.Var("I")), ir.R(A, ir.Var("I"))).
		End()
	return b.Build()
}

func TestCrossNestExact(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		np, a := prep(t, copyThenRead(48), cfg, Options{})
		checkExact(t, np, a, cfg)
	}
}

// transpose2D walks B against the layout: B(J,I) inside an I-J nest, plus a
// row-order reader of the same array — non-uniformly generated pair, where
// the analysis may overestimate (the paper's MMT effect) but never
// underestimate.
func transpose2D(n int64) *ir.Subroutine {
	b := ir.NewSub("transpose")
	A := b.Real8("A", n, n)
	B := b.Real8("B", n, n)
	b.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("J"), ir.Var("I")), ir.R(B, ir.Var("I"), ir.Var("J"))).
		End().End().
		Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), ir.Con(n)).
		Assign("S2", nil, ir.R(B, ir.Var("J"), ir.Var("I"))).
		End().End()
	return b.Build()
}

func TestTransposeConservative(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		np, a := prep(t, transpose2D(16), cfg, Options{})
		checkConservative(t, np, a, cfg)
	}
}

// triangular nest with an IF guard: exercises RIS membership in the cold
// equations.
func triangularGuarded(n int64) *ir.Subroutine {
	b := ir.NewSub("tri")
	A := b.Real8("A", n, n)
	b.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Var("I"), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("J"), ir.Var("I"))).
		IfCond(ir.Cond{LHS: ir.Var("J"), Op: ir.EQ, RHS: ir.Con(n)}).
		Assign("S2", nil, ir.R(A, ir.Var("I"), ir.Var("I"))).
		End().
		End().End()
	return b.Build()
}

// negt builds NEGT, a stencil whose reads reach below A's first element:
//
//	DO T = 1, passes
//	  DO I = 1, n
//	    B(I) = A(I-off) + A(I)
//
// Under the baseline layout A starts at address 0, so A(I-off) touches
// negative addresses, whose memory lines are negative (floor division).
func negt(n, off, passes int64) *ir.Subroutine {
	b := ir.NewSub("NEGT")
	A := b.Real8("A", n)
	B := b.Real8("B", n)
	b.Do("T", ir.Con(1), ir.Con(passes)).
		Do("I", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(B, ir.Var("I")), ir.R(A, ir.Var("I").PlusConst(-off)), ir.R(A, ir.Var("I"))).
		End().End()
	return b.Build()
}

// TestNegativeAddressesMatchSimulator: the CME and the simulator agree on
// the memory line of a negative address (floor, not truncation) and on
// its set (a non-negative residue), so FindMisses equals the simulator per
// reference on NEGT — uniformly generated — at set counts that are and
// are not powers of two, at 1 and 2 workers and with enumeration forced.
func TestNegativeAddressesMatchSimulator(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 768, LineBytes: 32, Assoc: 1},  // 24 sets
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1}, // 32 sets
		{SizeBytes: 1056, LineBytes: 32, Assoc: 1}, // 33 sets
		{SizeBytes: 1536, LineBytes: 32, Assoc: 2}, // 24 sets
	}
	for _, pg := range []struct{ off, passes int64 }{{3, 2}, {3, 1}, {5, 1}, {5, 2}} {
		for _, cfg := range cfgs {
			for _, opt := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 2, NoSymbolic: true}} {
				t.Run(fmt.Sprintf("off%d/passes%d/%s/w%d/nosym=%v", pg.off, pg.passes, cfg, opt.Workers, opt.NoSymbolic), func(t *testing.T) {
					np, a := prep(t, negt(64, pg.off, pg.passes), cfg, opt)
					checkExact(t, np, a, cfg)
				})
			}
		}
	}
}

func TestTriangularGuardedConservative(t *testing.T) {
	for _, cfg := range tinyConfigs() {
		np, a := prep(t, triangularGuarded(20), cfg, Options{})
		checkConservative(t, np, a, cfg)
	}
}

// TestPaperLRUOverestimates: the paper-faithful replacement test (no reset
// on re-touch) must classify at least as many misses as the exact-LRU
// variant.
func TestPaperLRUOverestimates(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	subA := copyThenRead(48)
	npA, aExact := prep(t, subA, cfg, Options{})
	repExact := aExact.FindMisses()
	_, aPaper := prep(t, copyThenRead(48), cfg, Options{PaperLRU: true})
	repPaper := aPaper.FindMisses()
	_ = npA
	if repPaper.ExactMisses() < repExact.ExactMisses() {
		t.Errorf("paper LRU misses %d < exact-LRU misses %d", repPaper.ExactMisses(), repExact.ExactMisses())
	}
}

// TestEstimateWithinInterval: the sampled estimate must stay within the
// requested half-width of the exact per-reference ratios (with slack for
// the 95% confidence level across many refs).
func TestEstimateWithinInterval(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}
	np, a := prep(t, transpose2D(40), cfg, Options{})
	exact := a.FindMisses()
	est, err := a.EstimateMisses(sampling.Plan{C: 0.95, W: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_ = np
	d := est.MissRatio() - exact.MissRatio()
	if d < 0 {
		d = -d
	}
	// Miss ratios are in percent; w = 0.05 is 5 percentage points.
	if d > 5 {
		t.Errorf("estimate %.2f%% vs exact %.2f%%: |Δ| = %.2f > 5", est.MissRatio(), exact.MissRatio(), d)
	}
	for _, rr := range est.Refs {
		if rr.Sampled && rr.Analyzed > rr.Volume {
			t.Errorf("%s: sampled %d > volume %d", rr.Ref.ID, rr.Analyzed, rr.Volume)
		}
	}
}

// TestEstimateSmallRISExhaustive: tiny RISs must be analysed exhaustively.
func TestEstimateSmallRISExhaustive(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	_, a := prep(t, stencil1D(16), cfg, Options{})
	rep, err := a.EstimateMisses(sampling.Plan{C: 0.95, W: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Refs {
		if rr.Sampled {
			t.Errorf("%s: sampled although |RIS| = %d is below both plans", rr.Ref.ID, rr.Volume)
		}
		if rr.Analyzed != rr.Volume {
			t.Errorf("%s: analysed %d of %d", rr.Ref.ID, rr.Analyzed, rr.Volume)
		}
	}
}

// randomProgram builds a random 2-deep loop nest over small arrays with
// random affine subscripts — fodder for the conservativeness property.
func randomProgram(rng *rand.Rand, id int64) *ir.Subroutine {
	b := ir.NewSub("rand")
	n := int64(8 + rng.Intn(8))
	A := b.Real8("A", n+4, n+4)
	B := b.Real8("B", n+4)
	nstmt := 1 + rng.Intn(3)
	b.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), ir.Con(n))
	for s := 0; s < nstmt; s++ {
		off := func() int64 { return int64(rng.Intn(4)) }
		lhs := ir.R(A, ir.Var("J").PlusConst(off()), ir.Var("I").PlusConst(off()))
		read1 := ir.R(A, ir.Var("J").PlusConst(off()), ir.Var("I").PlusConst(off()))
		read2 := ir.R(B, ir.Var("J").PlusConst(off()))
		b.Assign("S", lhs, read1, read2)
	}
	b.End().End()
	return b.Build()
}

// TestPropertyConservative: across random programs and configurations, the
// analytical method never reports fewer misses than the simulator, and the
// RIS volumes match simulated access counts exactly.
func TestPropertyConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		sub := randomProgram(rng, int64(trial))
		cfg := tinyConfigs()[trial%len(tinyConfigs())]
		np, a := prep(t, sub, cfg, Options{})
		checkConservative(t, np, a, cfg)
	}
}

// TestPropertyExactUniformStencils: programs whose references to each array
// are all uniformly generated must be analysed exactly.
func TestPropertyExactUniformStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := int64(10 + rng.Intn(20))
		b := ir.NewSub("uni")
		A := b.Real8("A", n+4, n+4)
		B := b.Real8("B", n+4, n+4)
		off := func() int64 { return int64(rng.Intn(3)) }
		b.Do("I", ir.Con(1), ir.Con(n)).
			Do("J", ir.Con(1), ir.Con(n)).
			Assign("S1", ir.R(A, ir.Var("J").PlusConst(off()), ir.Var("I").PlusConst(off())),
				ir.R(B, ir.Var("J").PlusConst(off()), ir.Var("I").PlusConst(off())),
				ir.R(B, ir.Var("J").PlusConst(off()), ir.Var("I").PlusConst(off()))).
			End().End()
		cfg := tinyConfigs()[trial%len(tinyConfigs())]
		np, a := prep(t, b.Build(), cfg, Options{})
		checkExact(t, np, a, cfg)
	}
}

// TestEvictThenRefetch is the regression test for the backward-scan
// replacement equation: the reused line is evicted mid-interval but
// re-fetched by a closer access that only a non-uniform reference makes,
// ... modelled here with a uniform pattern: the consumer's line is touched
// repeatedly inside a long interval, so the line survives even though the
// interval as a whole holds more than k distinct conflicting lines. A
// forward scan with early exit misclassifies this as a miss.
func TestEvictThenRefetch(t *testing.T) {
	// Direct-mapped, 4 sets of 32 B. A(1..4) is one line; C spans many
	// lines that alias A's set.
	cfg := cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	b := ir.NewSub("refetch")
	A := b.Real8("A", 4)   // one line, set 0
	C := b.Real8("C", 128) // 32 lines, 8 alias set 0
	// Nest 1: touch A, then sweep C (evicts A's line), then touch A again
	// near the end — the simulator sees the final touch and hits in nest 2.
	b.Do("I", ir.Con(1), ir.Con(4)).
		Assign("S1", nil, ir.R(A, ir.Var("I"))).
		End().
		Do("I", ir.Con(1), ir.Con(128)).
		Assign("S2", nil, ir.R(C, ir.Var("I"))).
		End().
		Do("I", ir.Con(1), ir.Con(4)).
		Assign("S3", nil, ir.R(A, ir.Var("I"))).
		End().
		Do("I", ir.Con(1), ir.Con(4)).
		Assign("S4", nil, ir.R(A, ir.Var("I"))).
		End()
	np, a := prep(t, b.Build(), cfg, Options{})
	checkExact(t, np, a, cfg)
}

// TestReportAggregation: per-array and per-statement groupings preserve
// the totals and order by miss volume.
func TestReportAggregation(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}
	_, a := prep(t, copyThenRead(64), cfg, Options{})
	rep := a.FindMisses()
	for _, groups := range [][]Aggregate{rep.ByArray(), rep.ByStatement()} {
		var acc int64
		var miss float64
		for _, g := range groups {
			acc += g.Accesses
			miss += g.Misses
		}
		if acc != rep.TotalAccesses() {
			t.Errorf("grouped accesses %d != %d", acc, rep.TotalAccesses())
		}
		if d := miss - rep.EstimatedMisses(); d > 1e-6 || d < -1e-6 {
			t.Errorf("grouped misses %.1f != %.1f", miss, rep.EstimatedMisses())
		}
		for i := 1; i < len(groups); i++ {
			if groups[i-1].Misses < groups[i].Misses {
				t.Errorf("groups not sorted by miss volume")
			}
		}
	}
	var sb strings.Builder
	rep.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "FindMisses") || !strings.Contains(sb.String(), "A") {
		t.Errorf("summary missing content:\n%s", sb.String())
	}
}

// TestConfidenceBounds: the realised aggregate bound must cover the true
// (exhaustive) miss ratio, and a census reports zero width.
func TestConfidenceBounds(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}
	plan := sampling.Plan{C: 0.95, W: 0.05}
	_, a := prep(t, transpose2D(40), cfg, Options{})
	exact := a.FindMisses()
	est, err := a.EstimateMisses(plan)
	if err != nil {
		t.Fatal(err)
	}
	bound := est.MissRatioBound(plan)
	if bound <= 0 || bound > 6 {
		t.Errorf("aggregate bound = %.3f pp, want (0, 6]", bound)
	}
	d := est.MissRatio() - exact.MissRatio()
	if d < 0 {
		d = -d
	}
	if d > bound+1 { // +1pp slack for the 5% failure probability
		t.Errorf("true error %.2f exceeds bound %.2f", d, bound)
	}
	if exact.MissRatioBound(plan) != 0 {
		t.Error("census must have zero bound")
	}
}

// TestNonUniformTranspose implements the paper's §8 future work check: a
// transpose's read and write are not uniformly generated, so the paper's
// method overestimates; with NonUniform resolution the analysis matches
// the simulator exactly (the producer iteration is uniquely solvable).
func TestNonUniformTranspose(t *testing.T) {
	build := func() *ir.Subroutine {
		b := ir.NewSub("tr")
		A := b.Real8("A", 24, 24)
		B := b.Real8("B", 24, 24)
		b.Do("I", ir.Con(1), ir.Con(24)).
			Do("J", ir.Con(1), ir.Con(24)).
			Assign("S1", ir.R(B, ir.Var("J"), ir.Var("I")), ir.R(A, ir.Var("I"), ir.Var("J"))).
			End().End().
			// Second nest re-reads B in transposed order: its producer in
			// the first nest is non-uniform but uniquely solvable.
			Do("I", ir.Con(1), ir.Con(24)).
			Do("J", ir.Con(1), ir.Con(24)).
			Assign("S2", nil, ir.R(B, ir.Var("I"), ir.Var("J"))).
			End().End()
		return b.Build()
	}
	for _, cfg := range []cache.Config{
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		{SizeBytes: 4096, LineBytes: 32, Assoc: 2},
	} {
		np, plain := prep(t, build(), cfg, Options{})
		repPlain := plain.FindMisses()
		sim := trace.Simulate(np, cfg)
		npNU, nu := prep(t, build(), cfg, Options{Reuse: reuse.Options{NonUniform: true}})
		repNU := nu.FindMisses()
		simNU := trace.Simulate(npNU, cfg)
		if repNU.ExactMisses() != simNU.Misses {
			t.Errorf("[%v] non-uniform analysis %d != simulator %d", cfg, repNU.ExactMisses(), simNU.Misses)
		}
		if repPlain.ExactMisses() < sim.Misses {
			t.Errorf("[%v] plain analysis undercounts", cfg)
		}
		if repNU.ExactMisses() > repPlain.ExactMisses() {
			t.Errorf("[%v] non-uniform resolution increased misses: %d > %d",
				cfg, repNU.ExactMisses(), repPlain.ExactMisses())
		}
	}
}

// TestNonUniformStillConservative: with kernels that have ambiguous
// producers (MMT's copy buffer), NonUniform must stay conservative.
func TestNonUniformStillConservative(t *testing.T) {
	cfg := cache.Config{SizeBytes: 2048, LineBytes: 32, Assoc: 2}
	np, a := prep(t, transpose2D(20), cfg, Options{Reuse: reuse.Options{NonUniform: true}})
	rep := a.FindMisses()
	sim := trace.Simulate(np, cfg)
	if rep.ExactMisses() < sim.Misses {
		t.Errorf("non-uniform analysis undercounts: %d < %d", rep.ExactMisses(), sim.Misses)
	}
}

// TestOptionsVectorsHonoured: reuse vectors handed to New through
// Options.Vectors replace the ones New would generate. Vectors generated
// without spatial reuse must reproduce an analysis configured with
// Reuse.NoSpatial, and differ from the default analysis on a kernel whose
// misses depend on spatial reuse.
func TestOptionsVectorsHonoured(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	np, plain := prep(t, stencil1D(64), cfg, Options{})
	want := plain.FindMisses()
	noSpatial, err := New(np, cfg, Options{Reuse: reuse.Options{NoSpatial: true}})
	if err != nil {
		t.Fatal(err)
	}
	wantNS := noSpatial.FindMisses()
	vecs := reuse.Generate(np, cfg, reuse.Options{NoSpatial: true})
	seeded, err := New(np, cfg, Options{Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	got := seeded.FindMisses()
	for i, rr := range got.Refs {
		if w := wantNS.Refs[i]; rr.Hits != w.Hits || rr.Cold != w.Cold || rr.Repl != w.Repl {
			t.Errorf("%s: seeded vectors %d/%d/%d, NoSpatial analysis %d/%d/%d",
				rr.Ref.ID, rr.Hits, rr.Cold, rr.Repl, w.Hits, w.Cold, w.Repl)
		}
	}
	if got.ExactMisses() == want.ExactMisses() {
		t.Errorf("seeded NoSpatial vectors give the default analysis's %d misses; Options.Vectors was ignored",
			want.ExactMisses())
	}
}
