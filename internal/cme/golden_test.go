package cme

import (
	"context"
	"errors"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/kernels"
	"cachemodel/internal/trace"
)

// goldenConfigs are the cache geometries the equivalence sweep runs under:
// a direct-mapped and a set-associative cache, small enough that every
// kernel produces replacement misses.
func goldenConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 512, LineBytes: 32, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 4},
	}
}

// sameRefReports fails the test unless the two reports agree on every
// per-reference field, including the Tier/Complete provenance.
func sameRefReports(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if len(want.Refs) != len(got.Refs) {
		t.Fatalf("%s: %d refs vs %d", label, len(want.Refs), len(got.Refs))
	}
	for i, w := range want.Refs {
		g := got.Refs[i]
		if w.Ref.ID != g.Ref.ID {
			t.Fatalf("%s: ref %d is %s vs %s", label, i, w.Ref.ID, g.Ref.ID)
		}
		if w.Volume != g.Volume || w.Analyzed != g.Analyzed || w.Sampled != g.Sampled ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl ||
			w.Tier != g.Tier || w.Complete != g.Complete {
			t.Errorf("%s: %s diverged:\n  want %+v\n  got  %+v", label, w.Ref.ID, *w, *g)
		}
	}
	if want.Tier != got.Tier || want.Degraded != got.Degraded {
		t.Errorf("%s: provenance diverged: want tier=%v degraded=%v, got tier=%v degraded=%v",
			label, want.Tier, want.Degraded, got.Tier, got.Degraded)
	}
}

// TestGoldenEquivalence sweeps every built-in kernel under two cache
// geometries and checks that the optimised paths — memoized classification,
// tile-parallel FindMisses and the set-sharded simulator — are bit-identical
// to the sequential seed paths (single worker, memoization off).
func TestGoldenEquivalence(t *testing.T) {
	const n = 8
	for _, spec := range kernels.Suite() {
		for _, cfg := range goldenConfigs() {
			label := spec.Name + " [" + cfg.String() + "]"
			np, seq := prepKernel(t, spec.Build(n), cfg, Options{Workers: 1, NoMemo: true})
			_, memo := prepKernel(t, spec.Build(n), cfg, Options{Workers: 1})
			_, par := prepKernel(t, spec.Build(n), cfg, Options{Workers: 8})

			want := seq.FindMisses()
			sameRefReports(t, label+" memo", want, memo.FindMisses())
			sameRefReports(t, label+" parallel", want, par.FindMisses())

			// The seed simulator and the sharded simulator must agree too.
			sim := trace.Simulate(np, cfg)
			shard := trace.SimulateSharded(np, cfg, 4)
			if sim.Accesses != shard.Accesses || sim.Misses != shard.Misses {
				t.Errorf("%s: sharded simulator %d/%d != sequential %d/%d",
					label, shard.Accesses, shard.Misses, sim.Accesses, sim.Misses)
			}
		}
	}
}

// TestGoldenBudgetProvenance: under the same tight scan budget at one
// worker, memoized and unmemoized runs must produce bit-identical reports —
// including which references degraded to sampling and which stayed exact —
// because memo hits replay their stored scan counts into the budget.
func TestGoldenBudgetProvenance(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	for _, spec := range []string{"hydro", "sor2d", "transpose"} {
		for _, s := range kernels.Suite() {
			if s.Name != spec {
				continue
			}
			_, nomemo := prepKernel(t, s.Build(10), cfg, Options{Workers: 1, NoMemo: true})
			_, memo := prepKernel(t, s.Build(10), cfg, Options{Workers: 1})
			// A zero budget skips scan accounting entirely, so measure the
			// full run's scan cost under a generous finite cap first.
			full, err := nomemo.FindMissesCtx(context.Background(), budget.Budget{MaxScan: 1 << 50})
			if err != nil {
				t.Fatalf("%s: measuring run failed: %v", spec, err)
			}
			b := budget.Budget{MaxScan: full.BudgetSpent.Scan / 2}
			if b.MaxScan == 0 {
				t.Fatalf("%s: full run reported no scan work", spec)
			}
			want, werr := nomemo.FindMissesCtx(context.Background(), b)
			got, gerr := memo.FindMissesCtx(context.Background(), b)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: errors diverged: %v vs %v", spec, werr, gerr)
			}
			if !want.Degraded {
				t.Fatalf("%s: budget %d did not force degradation", spec, b.MaxScan)
			}
			sameRefReports(t, spec+" budgeted", want, got)
		}
	}
}

// TestFaultMidTileCoherence injects budget exhaustion at an arbitrary
// checkpoint of a tile-parallel run and checks the partial report stays
// coherent: every reference's counts add up, never exceed its RIS volume,
// and incomplete references are flagged as such.
func TestFaultMidTileCoherence(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	for _, at := range []int64{1, 7, 50, 400} {
		_, a := prepKernel(t, kernels.Hydro(16, 16), cfg, Options{Workers: 8})
		inj := faultinject.ExhaustAt(at)
		rep, err := a.FindMissesCtx(context.Background(),
			budget.Budget{Hook: inj.Hook(), NoFallback: true})
		if !inj.Fired() {
			t.Fatalf("at=%d: injector never fired (%d checkpoints seen)", at, inj.Checkpoints())
		}
		if !errors.Is(err, cerr.ErrBudgetExceeded) {
			t.Fatalf("at=%d: err = %v, want ErrBudgetExceeded", at, err)
		}
		sawPartial := false
		for _, rr := range rep.Refs {
			if rr.Analyzed != rr.Hits+rr.Cold+rr.Repl {
				t.Errorf("at=%d: %s: analyzed %d != hits %d + cold %d + repl %d",
					at, rr.Ref.ID, rr.Analyzed, rr.Hits, rr.Cold, rr.Repl)
			}
			if rr.Analyzed > rr.Volume {
				t.Errorf("at=%d: %s: analyzed %d exceeds volume %d", at, rr.Ref.ID, rr.Analyzed, rr.Volume)
			}
			if !rr.Complete {
				sawPartial = true
				continue
			}
			if rr.Analyzed != rr.Volume {
				t.Errorf("at=%d: %s: complete but analyzed %d of %d", at, rr.Ref.ID, rr.Analyzed, rr.Volume)
			}
		}
		if !sawPartial {
			t.Errorf("at=%d: exhaustion mid-run left no incomplete reference", at)
		}
	}
}
