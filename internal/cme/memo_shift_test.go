package cme

import (
	"context"
	"fmt"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
)

// memoShiftConfigs are the differential's geometries: power-of-two and
// non-power-of-two set counts (20, 48, 96), 24-byte lines, and
// associativities 1 to 4.
func memoShiftConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 512, LineBytes: 32, Assoc: 1},  // 16 sets
		{SizeBytes: 1024, LineBytes: 32, Assoc: 4}, // 8 sets
		{SizeBytes: 640, LineBytes: 32, Assoc: 1},  // 20 sets
		{SizeBytes: 6144, LineBytes: 32, Assoc: 2}, // 96 sets
		{SizeBytes: 8192, LineBytes: 64, Assoc: 2}, // 64 sets
		{SizeBytes: 3456, LineBytes: 24, Assoc: 3}, // 48 sets, odd line
		{SizeBytes: 1536, LineBytes: 24, Assoc: 2}, // 32 sets, odd line
	}
}

// sameMemoRun fails unless a memoized and an unmemoized exact solve of one
// geometry agree per reference and in the logical scan work they charged.
func sameMemoRun(t *testing.T, label string, memo, plain *Prepared, cfg cache.Config) {
	t.Helper()
	solve := func(p *Prepared) *Report {
		a, err := p.Analyzer(cfg)
		if err != nil {
			t.Fatalf("%s: analyzer: %v", label, err)
		}
		// An armed scan cap far above the need makes the meter count the
		// scan work without binding.
		rep, err := a.FindMissesCtx(context.Background(), budget.Budget{MaxScan: 1 << 50})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rep
	}
	want, got := solve(plain), solve(memo)
	sameRefReports(t, label, want, got)
	if got.BudgetSpent.Scan != want.BudgetSpent.Scan {
		t.Errorf("%s: memo run charged %d scanned accesses, -nomemo %d",
			label, got.BudgetSpent.Scan, want.BudgetSpent.Scan)
	}
}

// TestMemoWholeLineShift: the verdict memo keys the invariant depths'
// common address shift by the consumer address residue mod LineBytes, so a
// hit replays a walk shifted by any whole number of lines.
//
//   - differential: with the symbolic path off (every point reaches the
//     memo), a memoized solve equals -nomemo per reference and in
//     BudgetSpent.Scan, over suite kernels, stepped whole programs,
//     power-of-two and odd set counts, 24-byte lines and PaperLRU on and
//     off;
//   - walk pin: on Jacobi 2-D at N = 48 (8 KB, 32 B lines, direct mapped,
//     one worker) keying by the way residue LineBytes·NumSets left
//     34,880 walks; keying by the line residue leaves 2,336.
func TestMemoWholeLineShift(t *testing.T) {
	t.Run("differential", func(t *testing.T) {
		type fixture struct {
			name  string
			build func() *ir.Program
		}
		var fixtures []fixture
		sizes := []int64{10, 17, 24}
		if testing.Short() {
			sizes = sizes[:1]
		}
		for _, s := range kernels.Suite() {
			for _, n := range sizes {
				fixtures = append(fixtures, fixture{fmt.Sprintf("%s/%d", s.Name, n),
					func() *ir.Program { return s.Build(n) }})
			}
		}
		fixtures = append(fixtures,
			fixture{"tomcatv/24x2", func() *ir.Program { return kernels.Tomcatv(24, 2) }},
			fixture{"swim/16x2", func() *ir.Program { return kernels.Swim(16, 2) }},
			fixture{"vcycle/16x2", func() *ir.Program { return kernels.VCycle(16, 2) }})
		cfgs := memoShiftConfigs()
		for _, f := range fixtures {
			for _, paper := range []bool{false, true} {
				opt := Options{Workers: 2, NoSymbolic: true, PaperLRU: paper}
				_, memo := prepKernel(t, f.build(), cfgs[0], opt)
				opt.NoMemo = true
				_, plain := prepKernel(t, f.build(), cfgs[0], opt)
				for _, cfg := range cfgs {
					label := fmt.Sprintf("%s [%s] paperLRU=%v", f.name, cfg, paper)
					sameMemoRun(t, label, memo.p, plain.p, cfg)
				}
			}
		}
	})
	t.Run("walk pin", func(t *testing.T) {
		var jacobi kernels.Spec
		for _, s := range kernels.Suite() {
			if s.Name == "jacobi2d" {
				jacobi = s
			}
		}
		walksC := obs.Default.Counter("cme_walks_total")
		cfg := cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}
		_, a := prepKernel(t, jacobi.Build(48), cfg, Options{Workers: 1})
		w0 := walksC.Value()
		a.FindMisses()
		walks := walksC.Value() - w0
		t.Logf("jacobi2d 48 [%s]: %d walks", cfg, walks)
		if walks >= 5000 {
			t.Errorf("jacobi2d 48 [%s] walked %d times, want < 5000: the memo misses whole-line shifts", cfg, walks)
		}
	})
}

// FuzzMemoVsNoMemo: for programs of geomFuzzPrograms under random
// geometries — line sizes of 8 to 64 bytes including 24, set counts up to
// 128 including non-powers of two, 1 to 4 ways — and both replacement
// models, a memoized solve with the symbolic path off equals -nomemo per
// reference and in its logical scan work.
func FuzzMemoVsNoMemo(f *testing.F) {
	// lineSel picks the line size from lines, sets the set count
	// 1 + value mod 128, assoc the associativity 1 + value mod 4.
	f.Add(uint8(0), uint8(3), uint16(15), uint8(0), false)
	f.Add(uint8(1), uint8(2), uint16(19), uint8(1), true)
	f.Add(uint8(2), uint8(2), uint16(47), uint8(2), false)
	f.Add(uint8(3), uint8(4), uint16(95), uint8(1), true)
	f.Add(uint8(4), uint8(1), uint16(6), uint8(3), false)
	f.Fuzz(func(t *testing.T, progSel, lineSel uint8, sets uint16, assoc uint8, paper bool) {
		lines := []int64{8, 16, 24, 32, 64}
		lineBytes := lines[int(lineSel)%len(lines)]
		ways := int64(assoc%4) + 1
		cfg := cache.Config{SizeBytes: (int64(sets%128) + 1) * lineBytes * ways,
			LineBytes: lineBytes, Assoc: int(ways)}
		build := geomFuzzPrograms[int(progSel)%len(geomFuzzPrograms)]
		opt := Options{Workers: 1, NoSymbolic: true, PaperLRU: paper}
		_, memo := prepBatch(t, build(), opt)
		opt.NoMemo = true
		_, plain := prepBatch(t, build(), opt)
		sameMemoRun(t, fmt.Sprintf("prog %d [%s] paperLRU=%v", int(progSel)%len(geomFuzzPrograms), cfg, paper),
			memo, plain, cfg)
	})
}
