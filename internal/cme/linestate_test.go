package cme

import (
	"context"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/kernels"
	"cachemodel/internal/sampling"
)

// TestSymbolicInfoOnlyForUnprobedExact: the symbolic-region eligibility
// serves only solves that may count symbolically. A sampled solve
// classifies drawn points one by one, and a probed exact solve (any
// armed limit) enumerates every point; neither builds it. The first
// unprobed exact solve of the line size does.
func TestSymbolicInfoOnlyForUnprobedExact(t *testing.T) {
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
	if a.ls.sym != nil {
		t.Fatalf("a probed FindMisses built the symbolic-region info")
	}
	a.FindMisses()
	if a.ls.sym == nil {
		t.Fatalf("FindMisses left the symbolic-region info unbuilt")
	}
}
