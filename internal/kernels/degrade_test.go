package kernels

import (
	"context"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/trace"
)

// TestDegradedBoundHoldsSimulator is the gate of the bounded tier: every
// suite kernel, solved exactly under point caps tight enough to exhaust
// the grace resample, must leave each bounded reference with the
// simulator's miss count at or below the upper end of its bound. Under
// line-aligned bases the exact classifier is pointwise exact for uniform
// kernels, so their lower end must not pass the simulator either; the
// default layout's lines shared across arrays can make a classified point
// overcount, so there only the upper end is checked.
func TestDegradedBoundHoldsSimulator(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		{SizeBytes: 2048, LineBytes: 64, Assoc: 2},
		{SizeBytes: 1536, LineBytes: 32, Assoc: 2}, // 24 sets
	}
	var bounded int
	for _, aligned := range []bool{true, false} {
		for _, spec := range Suite() {
			for _, cfg := range cfgs {
				var np *ir.NProgram
				if aligned {
					np = prepAligned(t, spec.Build(16), cfg.LineBytes)
				} else {
					np = prep(t, spec.Build(16))
				}
				sim := trace.Simulate(np, cfg)
				for _, maxPoints := range []int64{1, 64, 512, 2048} {
					for _, workers := range []int{1, 2} {
						a, err := cme.New(np, cfg, cme.Options{Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						rep, err := a.FindMissesCtx(context.Background(), budget.Budget{MaxPoints: maxPoints})
						if err != nil {
							t.Fatalf("%s [%v] aligned=%v cap=%d w=%d: %v", spec.Name, cfg, aligned, maxPoints, workers, err)
						}
						for _, rr := range rep.Refs {
							if rr.Tier != cme.TierBounded {
								continue
							}
							bounded++
							var simMiss int64
							if st := sim.PerRef[rr.Ref]; st != nil {
								simMiss = st.Misses
							}
							lo, hi := rr.Bounds()
							if simMiss > hi || aligned && spec.Uniform && simMiss < lo {
								t.Errorf("%s [%v] aligned=%v cap=%d w=%d: %s: simulator %d outside [%d, %d]",
									spec.Name, cfg, aligned, maxPoints, workers, rr.Ref.ID, simMiss, lo, hi)
							}
						}
					}
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no reference reached the bounded tier")
	}
	t.Logf("%d bounded references checked", bounded)
}
