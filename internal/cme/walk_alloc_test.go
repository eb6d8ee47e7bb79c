package cme

import (
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
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

// TestWalkEntersFewRows pins the row-level set filter: on MMT 32 with an
// 8 KB direct-mapped cache of 32-byte lines, a replacement walk spans
// several leaf rows of the blocked multiply, but only the rows in which a
// reference can touch the consumer's set are entered; the rest are
// counted from their bounds.
func TestWalkEntersFewRows(t *testing.T) {
	var mmt kernels.Spec
	for _, s := range kernels.Suite() {
		if s.Name == "mmt" {
			mmt = s
		}
	}
	walksC := obs.Default.Counter("cme_walks_total")
	rowsC := obs.Default.Counter("cme_walk_rows_total")
	cfg := cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}
	_, a := prepKernel(t, mmt.Build(32), cfg, Options{Workers: 1})
	w0, r0 := walksC.Value(), rowsC.Value()
	a.FindMisses()
	walks, rows := walksC.Value()-w0, rowsC.Value()-r0
	if walks == 0 || rows == 0 {
		t.Fatalf("mmt 32 [%s]: %d walks entered %d rows, want both positive", cfg, walks, rows)
	}
	perWalk := float64(rows) / float64(walks)
	t.Logf("mmt 32 [%s]: %d walks entered %d rows (%.2f per walk)", cfg, walks, rows, perWalk)
	if perWalk > 2 {
		t.Errorf("mmt 32 [%s]: %.2f rows entered per walk, want at most 2", cfg, perWalk)
	}
}
