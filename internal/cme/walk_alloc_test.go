package cme

import (
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/trace"
)

// TestFusedWalkAllocatesNothing: a replacement walk — the set-filtered
// walker driving the classifier's cached visitor — allocates nothing, for
// power-of-two and other set counts, under exact LRU and under the
// paper's equations.
func TestFusedWalkAllocatesNothing(t *testing.T) {
	type point struct {
		r   *ir.NRef
		idx []int64
	}
	for _, cfg := range []cache.Config{{SizeBytes: 1024, LineBytes: 32, Assoc: 2}, {SizeBytes: 96 * 32, LineBytes: 32, Assoc: 1}} {
		for _, paper := range []bool{false, true} {
			np, a := prepKernel(t, kernels.Tomcatv(12, 1), cfg, Options{NoMemo: true, PaperLRU: paper, Workers: 1})
			fc := a.newClassifier(trace.NewWalker(np), false)
			var pts []point
			trace.Execute(np, func(r *ir.NRef, idx []int64) bool {
				before := fc.nWalks
				if fc.classify(r, idx); fc.nWalks > before {
					pts = append(pts, point{r, append([]int64(nil), idx...)})
				}
				return len(pts) < 200
			})
			if len(pts) == 0 {
				t.Fatalf("%s paper=%v: no access took a replacement walk", cfg, paper)
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, p := range pts {
					fc.classify(p.r, p.idx)
				}
			})
			if allocs != 0 {
				t.Errorf("%s paper=%v: %v allocations per %d walks, want 0", cfg, paper, allocs, len(pts))
			}
			fc.release()
		}
	}
}
