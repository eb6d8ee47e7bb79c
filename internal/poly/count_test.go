package poly

import (
	"math/rand"
	"testing"

	"cachemodel/internal/ir"
)

func TestCountTileRect(t *testing.T) {
	sp := rect([2]int64{1, 10}, [2]int64{2, 5})
	if got := sp.CountTile(FullTile()); got != 40 {
		t.Errorf("full tile count = %d, want 40", got)
	}
	if got := sp.CountTile(Tile{Dim: 0, Lo: 3, Hi: 7}); got != 20 {
		t.Errorf("tile count = %d, want 20", got)
	}
	if got := sp.CountTile(Tile{Dim: 1, Lo: 4, Hi: 9}); got != 20 {
		t.Errorf("clamped tile count = %d, want 20", got)
	}
	if got := sp.CountTile(Tile{Dim: 0, Lo: 11, Hi: 20}); got != 0 {
		t.Errorf("out-of-range tile count = %d, want 0", got)
	}
}

func TestCountWithExtras(t *testing.T) {
	sp := rect([2]int64{1, 10}, [2]int64{1, 10})
	// Extra constraint: I1 + I2 <= 6 (15 points, see TestInequalityGuardVolume).
	sys := []ir.NConstraint{{Expr: ir.Affine{Const: 6, Coeff: []int64{-1, -1}}}}
	if got := sp.CountWith(FullTile(), sys); got != 15 {
		t.Errorf("count with inequality = %d, want 15", got)
	}
	// Equality: the diagonal.
	diag := []ir.NConstraint{{Expr: ir.Affine{Coeff: []int64{-1, 1}}, IsEq: true}}
	if got := sp.CountWith(FullTile(), diag); got != 10 {
		t.Errorf("count with equality = %d, want 10", got)
	}
	// Depth-0 (constant) constraints gate the whole space.
	never := []ir.NConstraint{{Expr: ir.Affine{Const: -1}}}
	if got := sp.CountWith(FullTile(), never); got != 0 {
		t.Errorf("count with false constant = %d, want 0", got)
	}
}

func TestCountUnion(t *testing.T) {
	sp := rect([2]int64{1, 10}, [2]int64{1, 10})
	// A: I1 <= 4 (40 points); B: I2 <= 3 (30 points); |A∩B| = 12.
	a := []ir.NConstraint{{Expr: ir.Affine{Const: 4, Coeff: []int64{-1}}}}
	b := []ir.NConstraint{{Expr: ir.Affine{Const: 3, Coeff: []int64{0, -1}}}}
	if got := sp.CountUnion(FullTile(), [][]ir.NConstraint{a, b}); got != 58 {
		t.Errorf("union count = %d, want 58", got)
	}
	if got := sp.CountUnion(FullTile(), nil); got != 0 {
		t.Errorf("empty union count = %d, want 0", got)
	}
}

// randomSpace derives a small bounded space with optional outer-dependent
// bounds and guards from a seeded RNG (shared by the fuzz target and the
// property tests).
func randomSpace(rng *rand.Rand) (*Space, [][]ir.NConstraint) {
	depth := 1 + rng.Intn(3)
	var bs []ir.NBound
	for d := 0; d < depth; d++ {
		lo := ir.Affine{Const: int64(1 + rng.Intn(3))}
		hi := ir.Affine{Const: int64(3 + rng.Intn(6))}
		if d > 0 && rng.Intn(2) == 0 {
			c := make([]int64, d)
			c[rng.Intn(d)] = 1
			lo = ir.Affine{Const: 0, Coeff: c}
		}
		bs = append(bs, bound(lo, hi))
	}
	var gs []ir.NConstraint
	if rng.Intn(2) == 0 {
		c := make([]int64, depth)
		c[rng.Intn(depth)] = 1
		gs = append(gs, ir.NConstraint{Expr: ir.Affine{Const: -2, Coeff: c}})
	}
	// Extra affine guard systems for CountWith/CountUnion, each over a
	// random prefix of the depths with small coefficients.
	var systems [][]ir.NConstraint
	for s := rng.Intn(3); s > 0; s-- {
		var sys []ir.NConstraint
		for n := 1 + rng.Intn(2); n > 0; n-- {
			c := make([]int64, depth)
			for d := range c {
				c[d] = int64(rng.Intn(3) - 1)
			}
			sys = append(sys, ir.NConstraint{
				Expr: ir.Affine{Const: int64(rng.Intn(9) - 2), Coeff: c},
				IsEq: rng.Intn(4) == 0,
			})
		}
		systems = append(systems, sys)
	}
	return New(bs, gs), systems
}

// bruteWith counts enumeration-satisfying points of sys by brute force.
func bruteWith(sp *Space, t Tile, sys []ir.NConstraint) int64 {
	var n int64
	sp.EnumerateTile(t, func(idx []int64) bool {
		for _, c := range sys {
			if !c.Holds(idx) {
				return true
			}
		}
		n++
		return true
	})
	return n
}

// FuzzCountVsEnumerate: on random bounded affine spaces with random guard
// systems, the closed-form counting engine must equal brute-force
// enumeration — for plain tiles, extra constraint systems, and unions.
func FuzzCountVsEnumerate(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp, systems := randomSpace(rng)
		tiles := []Tile{FullTile()}
		if sp.Depth > 0 {
			d := rng.Intn(sp.Depth)
			lo := int64(rng.Intn(6))
			tiles = append(tiles, Tile{Dim: d, Lo: lo, Hi: lo + int64(rng.Intn(5))})
		}
		for _, tile := range tiles {
			if got, want := sp.CountTile(tile), bruteWith(sp, tile, nil); got != want {
				t.Fatalf("seed %d: CountTile(%+v) = %d, enumeration %d", seed, tile, got, want)
			}
			for si, sys := range systems {
				if got, want := sp.CountWith(tile, sys), bruteWith(sp, tile, sys); got != want {
					t.Fatalf("seed %d: CountWith(%+v, sys%d) = %d, enumeration %d", seed, tile, si, got, want)
				}
			}
			if len(systems) > 0 {
				var want int64
				sp.EnumerateTile(tile, func(idx []int64) bool {
					for _, sys := range systems {
						ok := true
						for _, c := range sys {
							if !c.Holds(idx) {
								ok = false
								break
							}
						}
						if ok {
							want++
							return true
						}
					}
					return true
				})
				if got := sp.CountUnion(tile, systems); got != want {
					t.Fatalf("seed %d: CountUnion(%+v) = %d, enumeration %d", seed, tile, got, want)
				}
			}
		}
	})
}

// TestEnumerateAllocFree pins the hot-path allocation budget: steady-state
// enumeration (and tiled enumeration) must not allocate at all — the
// scratch index vectors come from the pool. Under -race the pool drops
// items at random, so only the enumeration itself is checked there.
func TestEnumerateAllocFree(t *testing.T) {
	sp := New([]ir.NBound{
		bound(konst(1), konst(16)),
		bound(ir.AffineIndex(1), konst(16)),
	}, []ir.NConstraint{{Expr: ir.Affine{Const: 30, Coeff: []int64{-1, -1}}}})
	var n int64
	warm := func() {
		sp.Enumerate(func([]int64) bool { n++; return true })
		sp.EnumerateTile(Tile{Dim: 0, Lo: 2, Hi: 9}, func([]int64) bool { n++; return true })
	}
	warm() // materialise the lazy caches and prime the pool
	if avg := testing.AllocsPerRun(20, warm); avg != 0 && !raceEnabled {
		t.Errorf("Enumerate/EnumerateTile allocate %.1f times per run, want 0", avg)
	}
	if n == 0 {
		t.Fatal("enumerated nothing")
	}
}

// TestSampleAllocBudget: a Sample call shares one backing array across all
// returned points, so its allocation count is O(1), not O(n).
func TestSampleAllocBudget(t *testing.T) {
	sp := New([]ir.NBound{
		bound(konst(1), konst(64)),
		bound(konst(1), konst(64)),
	}, nil)
	rng := rand.New(rand.NewSource(3))
	const draws = 256
	avg := testing.AllocsPerRun(10, func() {
		if pts := sp.Sample(rng, draws); len(pts) != draws {
			t.Fatalf("sampled %d of %d", len(pts), draws)
		}
	})
	// Backing array + point-header slice + enumeration scratch: well under
	// one allocation per point; the exact figure may drift with the
	// runtime, so pin only the O(1)-vs-O(n) distinction.
	if avg > 16 {
		t.Errorf("Sample allocates %.1f times per call for %d points, want O(1)", avg, draws)
	}
}
