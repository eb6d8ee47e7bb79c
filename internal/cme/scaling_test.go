package cme

import (
	"context"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

// famOf adapts a subroutine family to a BuildFunc through the standard
// front half of the pipeline (normalise + baseline layout).
func famOf(f func(n int64) *ir.Subroutine) BuildFunc {
	return func(n int64) (*ir.NProgram, error) {
		np, err := normalize.Normalize(f(n))
		if err != nil {
			return nil, err
		}
		if err := layout.AssignProgram(np, layout.Options{}); err != nil {
			return nil, err
		}
		return np, nil
	}
}

// solveAt answers one size as a one-size ladder.
func solveAt(s *ScalingSolver, n int64) (*Report, error) {
	reps, err := s.SolveLadder(context.Background(), []int64{n})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// checkScalingIdentity pins one scaling report to a fresh per-size exact
// solve: every counter of every reference must be bit-identical.
func checkScalingIdentity(t *testing.T, build BuildFunc, cfg cache.Config, n int64, got *Report) {
	t.Helper()
	np, err := build(n)
	if err != nil {
		t.Fatalf("build(%d): %v", n, err)
	}
	a, err := New(np, cfg, Options{})
	if err != nil {
		t.Fatalf("analyzer at n=%d: %v", n, err)
	}
	want := a.FindMisses()
	if len(got.Refs) != len(want.Refs) {
		t.Fatalf("n=%d: %d refs vs %d exact", n, len(got.Refs), len(want.Refs))
	}
	exact := map[string]*RefReport{}
	for _, rr := range want.Refs {
		exact[rr.Ref.ID] = rr
	}
	for _, rr := range got.Refs {
		w := exact[rr.Ref.ID]
		if w == nil {
			t.Fatalf("n=%d: ref %s missing from the exact report", n, rr.Ref.ID)
		}
		if rr.Volume != w.Volume || rr.Analyzed != w.Analyzed ||
			rr.Hits != w.Hits || rr.Cold != w.Cold || rr.Repl != w.Repl {
			t.Fatalf("n=%d ref %s: scaling (vol %d an %d hit %d cold %d repl %d) != exact (vol %d an %d hit %d cold %d repl %d)",
				n, rr.Ref.ID,
				rr.Volume, rr.Analyzed, rr.Hits, rr.Cold, rr.Repl,
				w.Volume, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
}

// TestScalingBitIdentityStencil is the tier's core contract: on a ladder
// of sizes — non-powers of two included — the scaling solver's report at
// fixed n is bit-identical to running the enumerating solver at n, and
// past the fitted chamber the answers come from the closed form.
func TestScalingBitIdentityStencil(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	build := famOf(stencil1D)
	s, err := PrepareScaling(build, cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ClosedFormEligible() {
		t.Fatalf("stencil family should be eligible (why: %s)", s.Why())
	}
	ladder := []int64{8, 12, 16, 31, 32, 33, 48, 63, 64, 65, 96, 100, 128, 160, 200, 256, 321}
	closed := 0
	for _, n := range ladder {
		rep, err := solveAt(s, n)
		if err != nil {
			t.Fatalf("SolveLadder(%d): %v", n, err)
		}
		if rep.Scaling == nil {
			t.Fatalf("n=%d: no scaling provenance", n)
		}
		if rep.Scaling.Closed() {
			closed++
			if rep.Scaling.Axis != AxisSize || rep.Scaling.Param != n {
				t.Fatalf("n=%d: provenance on axis %q at %d", n, rep.Scaling.Axis, rep.Scaling.Param)
			}
			for _, rr := range rep.Refs {
				if !rr.ClosedForm || !rr.Complete || rr.Tier != TierExact {
					t.Fatalf("n=%d ref %s: ClosedForm=%v Complete=%v Tier=%v",
						n, rr.Ref.ID, rr.ClosedForm, rr.Complete, rr.Tier)
				}
			}
		} else if rep.Scaling.Why == "" {
			t.Fatalf("n=%d: fall-through without a reason", n)
		}
		checkScalingIdentity(t, build, cfg, n, rep)
	}
	if closed == 0 {
		t.Fatalf("no ladder size was answered in closed form")
	}
	st := s.Stats()
	if st.ClosedEvals != int64(closed) || st.Fallbacks != int64(len(ladder)-closed) {
		t.Fatalf("stats %+v inconsistent with %d closed of %d", st, closed, len(ladder))
	}
	t.Logf("closed form answered %d/%d ladder sizes with %d fit solves across %d residue classes",
		closed, len(ladder), st.FitSolves, st.ResiduesFitted)
}

// TestScalingSmallNSpendsNoFits: a size below the fit window can never be
// covered by a residue-class fit (tryFit anchors every class at or beyond
// the window), so EvalClosedCtx must refuse immediately instead of paying
// degree+1+verify window-sized sample solves for a guaranteed miss.
func TestScalingSmallNSpendsNoFits(t *testing.T) {
	// 1024 cache lines push the fit window far past every queried size.
	cfg := cache.Config{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 1}
	s, err := PrepareScaling(famOf(stencil1D), cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ClosedFormEligible() {
		t.Fatalf("stencil family should be eligible (why: %s)", s.Why())
	}
	if s.MinClosedN() < 1024 {
		t.Fatalf("MinClosedN %d, want at least the cache line count", s.MinClosedN())
	}
	for _, n := range []int64{8, 16, 100, 1023} {
		rep, ok, err := s.EvalClosedCtx(context.Background(), n)
		if err != nil || ok || rep != nil {
			t.Fatalf("EvalClosedCtx(%d) = (%v, %v, %v), want a free refusal", n, rep, ok, err)
		}
	}
	if st := s.Stats(); st.FitSolves != 0 || st.ResiduesFitted != 0 {
		t.Fatalf("small-n evals spent %d fit solves across %d residue classes, want none",
			st.FitSolves, st.ResiduesFitted)
	}
}

// singlePass touches every element of two arrays exactly once.
func singlePass(n int64) *ir.Subroutine {
	b := ir.NewSub("copy")
	A := b.Real8("A", n)
	B := b.Real8("B", n)
	b.Do("I", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("I")), ir.R(B, ir.Var("I"))).
		End()
	return b.Build()
}

// TestScalingPureCold: with one element per line a single pass has no
// reuse at all. Like any other family it is fitted: one residue fit makes
// it closed form from MinClosedN on, with all-cold counts.
func TestScalingPureCold(t *testing.T) {
	cfg := cache.Config{SizeBytes: 64, LineBytes: 8, Assoc: 1}
	build := famOf(singlePass)
	s, err := PrepareScaling(build, cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ClosedFormEligible() {
		t.Fatalf("single-pass family should be eligible (why: %s)", s.Why())
	}
	lo := s.MinClosedN()
	if rep, ok, err := s.EvalClosedCtx(context.Background(), lo-1); err != nil || ok || rep != nil {
		t.Fatalf("EvalClosedCtx(%d) = (%v, %v, %v), want a free refusal below MinClosedN", lo-1, rep, ok, err)
	}
	for _, n := range []int64{lo, lo + s.Period(), 100 * s.Period(), 15432 * s.Period()} {
		rep, err := solveAt(s, n)
		if err != nil {
			t.Fatalf("SolveLadder(%d): %v", n, err)
		}
		if !rep.Scaling.Closed() || rep.Scaling.PureColdRefs != 0 {
			t.Fatalf("n=%d: provenance %+v, want closed form by fit alone", n, rep.Scaling)
		}
		for _, rr := range rep.Refs {
			if rr.Volume != n || rr.Cold != n || rr.Hits != 0 || rr.Repl != 0 {
				t.Fatalf("n=%d ref %s: vol %d cold %d hits %d repl %d",
					n, rr.Ref.ID, rr.Volume, rr.Cold, rr.Hits, rr.Repl)
			}
		}
		if n < 1000 {
			checkScalingIdentity(t, build, cfg, n, rep)
		}
	}
	st := s.Stats()
	if want := int64(s.degree + 1 + closedHoldouts); st.ResiduesFitted != 1 || st.FitSolves != want {
		t.Fatalf("fitted %d residue classes with %d solves, want 1 with %d", st.ResiduesFitted, st.FitSolves, want)
	}
}

// shiftCopy is B(I) = A(I) for I = 1..N, then dst(J) = A(J+20) for
// J = 1..N, over REAL*8 A(N+20), B(N), C(N). Whether S2/A#0 reuses the
// first nest's A depends on N > 20, so no probe below that size can
// speak for larger ones.
func shiftCopy(dst string) func(n int64) *ir.Subroutine {
	return func(n int64) *ir.Subroutine {
		b := ir.NewSub("shift")
		A := b.Real8("A", n+20)
		B := b.Real8("B", n)
		C := b.Real8("C", n)
		to := map[string]*ir.Array{"B": B, "C": C}[dst]
		b.Do("I", ir.Con(1), ir.Con(n)).
			Assign("S1", ir.R(B, ir.Var("I")), ir.R(A, ir.Var("I"))).
			End()
		b.Do("J", ir.Con(1), ir.Con(n)).
			Assign("S2", ir.R(to, ir.Var("J")), ir.R(A, ir.Var("J").PlusConst(20))).
			End()
		return b.Build()
	}
}

// TestScalingMatchesFindMisses: every size the scaling solver answers
// equals FindMisses per reference, and sizes past the fit window (which
// tryFit may push out twice, to at most 4·MinClosedN + Period) are
// closed form. In the shift families S2/A#0 has no reuse at the probe
// sizes N = 8..10 but does past N = 20, so nothing the probes see about
// it holds for every N: at 1 KB FindMisses finds 20 hits and 20 cold
// misses at N = 40, not 40 cold.
func TestScalingMatchesFindMisses(t *testing.T) {
	for name, tc := range map[string]struct {
		family func(n int64) *ir.Subroutine
		cfg    cache.Config
		ns     []int64
	}{
		"shift into C": {shiftCopy("C"), cache.Config{SizeBytes: 1024, LineBytes: 8, Assoc: 1},
			[]int64{40, 64, 128, 200, 640, 700, 1001}},
		"shift into B": {shiftCopy("B"), cache.Config{SizeBytes: 64, LineBytes: 8, Assoc: 1},
			[]int64{24, 40, 64, 65, 100, 200, 333}},
	} {
		t.Run(name, func(t *testing.T) {
			build := famOf(tc.family)
			s, err := PrepareScaling(build, tc.cfg, Options{}, ScalingOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !s.ClosedFormEligible() {
				t.Fatalf("shift family should be eligible (why: %s)", s.Why())
			}
			closedFrom := 4*s.MinClosedN() + s.Period()
			for _, n := range tc.ns {
				rep, err := solveAt(s, n)
				if err != nil {
					t.Fatalf("SolveLadder(%d): %v", n, err)
				}
				checkScalingIdentity(t, build, tc.cfg, n, rep)
				if n >= closedFrom && !rep.Scaling.Closed() {
					t.Fatalf("n=%d (≥ %d) fell through: %s", n, closedFrom, rep.Scaling.Why)
				}
			}
		})
	}
}

// TestScalingIneligibleFallsThrough: a family whose bounds move
// quadratically in n fails the affine probe; every size must still be
// answered — by fall-through — and say why.
func TestScalingIneligibleFallsThrough(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	build := famOf(func(n int64) *ir.Subroutine { return stencil1D(n * n) })
	s, err := PrepareScaling(build, cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ClosedFormEligible() {
		t.Fatal("quadratic family must not be eligible")
	}
	rep, err := solveAt(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scaling == nil || rep.Scaling.Closed() || rep.Scaling.Why == "" ||
		rep.Scaling.FallthroughRefs != rep.Scaling.TotalRefs {
		t.Fatalf("fall-through provenance missing: %+v", rep.Scaling)
	}
	checkScalingIdentity(t, build, cfg, 7, rep)
}

// TestScalingMissPolys: the public closed forms evaluate to the exact
// per-reference counters, the fitted analyzed count to |RIS|.
func TestScalingMissPolys(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	build := famOf(stencil1D)
	s, err := PrepareScaling(build, cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 96 // ≡ 0 mod the 32-element set-wrap period
	if _, err := solveAt(s, n); err != nil {
		t.Fatal(err)
	}
	np, err := build(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(np, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*RefReport{}
	for _, rr := range a.FindMisses().Refs {
		want[rr.Ref.ID] = rr
	}
	polys := s.MissPolys()
	if len(polys) == 0 {
		t.Fatal("no closed forms accumulated")
	}
	r := n % s.Period()
	for _, mp := range polys {
		w := want[mp.RefID]
		if w == nil {
			t.Fatalf("unknown ref %s", mp.RefID)
		}
		cls, ok := mp.Residues[r]
		if !ok {
			t.Fatalf("ref %s: residue %d not fitted", mp.RefID, r)
		}
		if vol, ok := cls.Analyzed.EvalInt(n); !ok || vol != w.Volume || vol != w.Analyzed {
			t.Fatalf("ref %s: |RIS| poly %d (ok=%v), exact volume %d analyzed %d",
				mp.RefID, vol, ok, w.Volume, w.Analyzed)
		}
		if cold, _ := cls.Cold.EvalInt(n); cold != w.Cold {
			t.Fatalf("ref %s: cold poly %d, exact %d", mp.RefID, cold, w.Cold)
		}
		if hits, _ := cls.Hits.EvalInt(n); hits != w.Hits {
			t.Fatalf("ref %s: hits poly %d, exact %d", mp.RefID, hits, w.Hits)
		}
		if repl, _ := cls.Repl.EvalInt(n); repl != w.Repl {
			t.Fatalf("ref %s: repl poly %d, exact %d", mp.RefID, repl, w.Repl)
		}
	}
}

// TestScalingLadderSharesFits: a ladder inside one residue class must be
// paid for by a single round of fit solves.
func TestScalingLadderSharesFits(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	s, err := PrepareScaling(famOf(stencil1D), cfg, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]int64, 0, 8)
	for n := int64(256); n < 256+8*32; n += 32 {
		ns = append(ns, n)
	}
	reps, err := s.SolveLadder(context.Background(), ns)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil || !rep.Scaling.Closed() {
			t.Fatalf("ladder size %d fell through", ns[i])
		}
	}
	st := s.Stats()
	if st.ResiduesFitted != 1 {
		t.Fatalf("ladder of one residue class fitted %d classes", st.ResiduesFitted)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("%d fallbacks on an in-class ladder", st.Fallbacks)
	}
}
