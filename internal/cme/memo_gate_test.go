package cme

import (
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
)

// TestMemoHitRateGate: a workload with memo-eligible vectors whose keys
// rarely repeat must trip the hit-rate gate (memoDisableAfter consecutive
// probe misses per vector) — and tripping it must not change a single
// count relative to -nomemo, which is the ground truth the memo always
// had to match. VCycle 32×2 at this geometry walks ~39k times and drops
// 18 memo arenas mid-solve: its keys rarely repeat even under whole-line
// shifts. (Tomcatv 40×2, the earlier fixture, now hits its memo 131k
// times and drops none.) Package tests run sequentially, so global
// counter deltas are safe.
func TestMemoHitRateGate(t *testing.T) {
	disabledC := obs.Default.Counter("cme_walk_memo_disabled_total")
	hitsC := obs.Default.Counter("cme_walk_memo_hits_total")

	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	prog := func(opt Options) *Analyzer {
		_, a := prepKernel(t, kernels.VCycle(32, 2), cfg, opt)
		return a
	}

	d0, h0 := disabledC.Value(), hitsC.Value()
	memoRep := prog(Options{Workers: 1}).FindMisses()
	d1, h1 := disabledC.Value()-d0, hitsC.Value()-h0
	t.Logf("memo run: %d vectors disabled, %d memo hits", d1, h1)

	plainRep := prog(Options{Workers: 1, NoMemo: true}).FindMisses()

	if d1 == 0 {
		t.Errorf("hit-rate gate never fired (%d memo hits)", h1)
	}
	for i, rr := range memoRep.Refs {
		want := plainRep.Refs[i]
		if rr.Hits != want.Hits || rr.Cold != want.Cold || rr.Repl != want.Repl ||
			rr.Analyzed != want.Analyzed {
			t.Errorf("ref %s: memo-gated %d/%d/%d != nomemo %d/%d/%d",
				rr.Ref.ID, rr.Hits, rr.Cold, rr.Repl, want.Hits, want.Cold, want.Repl)
		}
	}
	if memoRep.EstimatedMisses() != plainRep.EstimatedMisses() {
		t.Errorf("estimated misses differ: %v vs %v",
			memoRep.EstimatedMisses(), plainRep.EstimatedMisses())
	}
}
