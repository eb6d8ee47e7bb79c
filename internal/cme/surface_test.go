package cme

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

// hydroSurface is the Hydro family (Livermore K18 at n×n) at 256 B, 512 B
// and 1 KB direct-mapped caches with 32 B lines, over the ladder
// 128…224 step 32; builds counts the family's instantiations.
func hydroSurface(builds *int) (BuildFunc, []Candidate, []int64) {
	build := func(n int64) (*ir.NProgram, error) {
		*builds++
		flat, _, err := inline.Flatten(kernels.Hydro(n, n), inline.Options{})
		if err != nil {
			return nil, err
		}
		np, err := normalize.Normalize(flat)
		if err != nil {
			return nil, err
		}
		return np, layout.AssignProgram(np, layout.Options{})
	}
	var cands []Candidate
	for _, size := range []int64{256, 512, 1024} {
		cfg := cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1}
		cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
	}
	return build, cands, []int64{128, 160, 192, 224}
}

// TestSurfaceBuildsEachSizeOnce: unbudgeted, the hydro surface builds
// every distinct size once (3 probes plus the 23 distinct sample sizes
// of its 7 residue fits, where per-geometry solving built 35 programs
// for its solves), and every geometry's fits, stats, rows and provenance
// are the ones it reaches alone: 1, 2 and 4 residue classes of 5 samples
// each, every row closed form and equal to FindMisses.
func TestSurfaceBuildsEachSizeOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the unbudgeted Hydro fits take minutes under -race; TestSurfaceOneMeter and the FuzzSurfaceVsEnumerate seeds run the same surface solve there")
	}
	builds := 0
	build, cands, ns := hydroSurface(&builds)
	reps, gs, err := SolveSurface(context.Background(), build, cands, ns, Options{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 3+23 {
		t.Fatalf("surface built %d programs, want 3 probes + 23 sizes", builds)
	}
	if len(reps) != len(cands)*len(ns) {
		t.Fatalf("%d rows for %d geometries × %d sizes", len(reps), len(cands), len(ns))
	}
	for gi, g := range gs {
		classes := int64(1) << gi
		want := ScalingStats{ResiduesFitted: int(classes), FitSolves: 5 * classes, ClosedEvals: 4}
		if st := g.Stats(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", cands[gi].Label, st, want)
		}
		for i, n := range ns {
			rep := reps[gi*len(ns)+i]
			info := rep.Scaling
			if !info.Closed() || info.Param != n || info.Period != 32<<gi || info.Degree != 2 || info.TotalRefs != 46 {
				t.Fatalf("%s n=%d: provenance %+v", cands[gi].Label, n, info)
			}
			checkScalingIdentity(t, build, cands[gi].Config, n, rep)
		}
	}
}

// TestSurfaceOneMeter: under the budget a served ladder job passes, the
// hydro surface charges one meter for all its solves, with one grace.
// Solved per geometry with a fresh meter per solve, the same request
// classified 2,509,036 points and degraded all 12 rows; here it stops
// at the cap plus one grace plus the probes' unflushed slack, and every
// row still comes back.
func TestSurfaceOneMeter(t *testing.T) {
	const maxPoints, workers = 20000, 2
	builds := 0
	build, cands, ns := hydroSurface(&builds)
	before := mPointsClassed.Value()
	reps, _, err := SolveSurface(context.Background(), build, cands, ns, Options{},
		BatchOptions{Workers: workers, Budget: budget.Budget{Deadline: time.Minute, MaxPoints: maxPoints}})
	if err != nil {
		t.Fatal(err)
	}
	classified := mPointsClassed.Value() - before
	// Each of the two trips can overshoot by one probe flush per worker:
	// 64 checkpoints, each charging one point per fused candidate.
	if bound := int64(maxPoints + max(maxPoints/4, 256) + 2*workers*64*len(cands)); classified > bound {
		t.Fatalf("surface classified %d points, want at most %d", classified, bound)
	}
	for i, rep := range reps {
		if rep == nil || rep.Scaling == nil {
			t.Fatalf("row %d missing", i)
		}
		if rep.BudgetSpent.Graces > 1 {
			t.Fatalf("row %d: %d graces, want at most 1", i, rep.BudgetSpent.Graces)
		}
	}
	t.Logf("classified %d points, %d builds", classified, builds)
}

// FuzzSurfaceVsEnumerate: generated copy families solved as one surface
// over 2–3 geometries of mixed line sizes and associativities; every row
// equals FindMisses at its size per reference, whichever geometry it
// belongs to and whether it came from a fit or a shared per-size solve.
func FuzzSurfaceVsEnumerate(f *testing.F) {
	shiftC := []byte{2, 20, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 20}
	f.Add(shiftC, uint8(1), uint8(4), uint8(1), uint8(0x82), uint16(39), uint16(63), uint16(299))
	f.Add([]byte{1, 24, 1, 0, 0, 0, 24}, uint8(0), uint8(2), uint8(5), uint8(1), uint16(7), uint16(200), uint16(500))
	f.Add([]byte{2, 5, 17, 0, 0, 3, 1, 11}, uint8(1), uint8(5), uint8(2), uint8(0x86), uint16(100), uint16(20), uint16(300))
	f.Fuzz(func(t *testing.T, prog []byte, elem, cacheSel, lineSel, assocSel uint8, n1, n2, n3 uint16) {
		elemSize := []int64{4, 8}[elem%2]
		build := famOf(fuzzFamily(prog, elemSize))
		// Geometry k reads each selector shifted by k (cache size
		// 64 B..2 KB, lines 8..32 B, 1..2 ways); the top bit of assocSel
		// adds a third geometry.
		cands := make([]Candidate, 2+int(assocSel>>7))
		for k := range cands {
			cfg := cache.Config{
				SizeBytes: 64 << ((cacheSel >> k) % 6),
				LineBytes: 8 << ((lineSel >> k) % 3),
				Assoc:     int((assocSel>>k)%2) + 1,
			}
			cands[k] = Candidate{Label: fmt.Sprint(k), Config: cfg}
		}
		ns := []int64{int64(n1)%700 + 1, int64(n2)%700 + 1, int64(n3)%700 + 1}
		reps, _, err := SolveSurface(context.Background(), build, cands, ns, Options{}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range cands {
			for i, n := range ns {
				checkScalingIdentity(t, build, c.Config, n, reps[k*len(ns)+i])
			}
		}
	})
}
