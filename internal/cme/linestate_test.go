package cme

import (
	"context"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/kernels"
	"cachemodel/internal/sampling"
)

// TestSymbolicInfoOnlyForExact: the symbolic-region eligibility serves
// only exact solves, which count symbolically whatever their meter. A
// sampled solve classifies drawn points one by one and never builds it;
// the first exact solve of the line size does, probed or not.
func TestSymbolicInfoOnlyForExact(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Tomcatv(24, 2), cfg, Options{Workers: 2})
	if _, err := a.EstimateMisses(sampling.Plan{C: 0.95, W: 0.05}); err != nil {
		t.Fatal(err)
	}
	if a.ls.sym != nil {
		t.Fatalf("EstimateMisses built the symbolic-region info")
	}
	rep, err := a.FindMissesCtx(context.Background(), budget.Budget{MaxPoints: 1 << 40})
	if err != nil || rep.Degraded {
		t.Fatalf("probed FindMisses: err %v, degraded %v", err, rep.Degraded)
	}
	if a.ls.sym == nil {
		t.Fatalf("a probed FindMisses left the symbolic-region info unbuilt")
	}
}
