package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestSweepKeysPinned pins the content addresses of fixed sweeps — the
// sweep id and the ordered unit keys with their candidate labels — so a
// change to how specs become grids cannot silently orphan journals,
// result-cache stores or dedup against sweeps submitted by an older
// build. The sweep ids were recorded before grids moved into
// internal/spec and must not change. The unit keys change only with the
// partition: grid/exact's unit half was re-pinned when exact sweeps
// moved from geometry-column units (per candidate for columns this
// short) to one unit per (line size, pad) fuse group.
func TestSweepKeysPinned(t *testing.T) {
	column := func(exact bool) *SweepSpec {
		return &SweepSpec{
			ProgramSpec: ProgramSpec{Program: "hydro", Size: 12},
			SolveSpec:   SolveSpec{Exact: exact},
			CacheSizes:  []int64{1024, 2048, 3072, 4096, 5120, 6144},
			LineSizes:   []int64{32},
			Assocs:      []int{1},
		}
	}
	grid := func(exact bool) *SweepSpec {
		return &SweepSpec{
			ProgramSpec: ProgramSpec{Program: "hydro", Size: 12},
			SolveSpec:   SolveSpec{Exact: exact},
			CacheSizes:  []int64{2048, 4096},
			LineSizes:   []int64{32, 64},
			Assocs:      []int{1, 2},
			PadArray:    "ZA",
			Pads:        []int64{0, 3},
		}
	}
	for _, tc := range []struct {
		name        string
		spec        *SweepSpec
		sweep, unit string
	}{
		{"column/exact", column(true),
			"f37b8ad924a3155138fa070e34cb99d2e194a1bde6b70295bd14676eead8affe",
			"96e92f9d2b5b493ba904d1f92016549f"},
		{"column/sampled", column(false),
			"5da64e325d75e8a3024e303a14a6c5e8276f674d25daeaf3433d3eeb9e73f27c",
			"2ed409184fffcec74a059db2e9e8b555"},
		{"grid/exact", grid(true),
			"74716a35e32cf72deed9aead5686ce54f55e354531cfb9b88402bc5cf9b13c54",
			"5cb716fdb8d6f1a177d225ec522dc321"},
		{"grid/sampled", grid(false),
			"d6575fe2913c5d94adfe9f444bd92d937cbb802811a6749c130d88bf4abc1913",
			"2bcca2172b2e95f9cd88c54dd6673cd4"},
	} {
		c, _ := newTestCoordinator(t, Options{})
		st, err := c.AddSweep(context.Background(), tc.spec)
		if err != nil {
			t.Fatalf("%s: AddSweep: %v", tc.name, err)
		}
		h := sha256.New()
		for {
			lr := c.Lease("w")
			if lr.Status != LeaseUnit {
				break
			}
			fmt.Fprintf(h, "%s|", lr.Unit.Key)
			for _, wc := range lr.Unit.Candidates {
				fmt.Fprintf(h, "%s,", wc.Label)
			}
		}
		units := hex.EncodeToString(h.Sum(nil))[:32]
		if st.Sweep != tc.sweep || units != tc.unit {
			t.Errorf("%s: sweep %s units %s, want %s / %s", tc.name, st.Sweep, units, tc.sweep, tc.unit)
		}
	}
}
