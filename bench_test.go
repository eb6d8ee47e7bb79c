// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md and component
// microbenchmarks. Each TableN benchmark runs the corresponding
// experiment at the "quick" scale and reports the reproduction-quality
// metrics (absolute errors in percentage points, speedups) via
// b.ReportMetric, so `go test -bench .` doubles as the reproduction
// harness. Use cmd/cachette `experiments -scale medium|paper` for the
// paper-sized runs.
package cachemodel_test

import (
	"context"
	"fmt"
	"testing"

	"cachemodel"
	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/experiments"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/normalize"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

func prepared(b *testing.B, p *cachemodel.Program) *cachemodel.NProgram {
	b.Helper()
	np, _, err := cachemodel.Prepare(p, cachemodel.PrepareOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return np
}

// BenchmarkTable2CallStats regenerates Table 2: the actual-parameter
// classifier over the synthetic twenty-program corpus.
func BenchmarkTable2CallStats(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable2()
	}
	var tp, tr, tn, tc, ta int
	for _, r := range rows {
		tp += r.PAble
		tr += r.RAble
		tn += r.NAble
		tc += r.Calls
		ta += r.AAble
	}
	tot := float64(tp + tr + tn)
	b.ReportMetric(100*float64(tp)/tot, "pable_%")
	b.ReportMetric(100*float64(tn)/tot, "nable_%")
	b.ReportMetric(100*float64(ta)/float64(tc), "aable_%") // paper: 86.44
}

// BenchmarkTable3FindMisses regenerates Table 3 per kernel: exact
// FindMisses vs the simulator. The abs_err metric must be 0 for Hydro and
// MGRID (the paper's result) and small positive for MMT.
func BenchmarkTable3FindMisses(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable3(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(name string) func(b *testing.B) {
		return func(b *testing.B) {
			var maxErr, secs float64
			for _, r := range rows {
				if r.Program == name {
					if r.AbsErr > maxErr {
						maxErr = r.AbsErr
					}
					secs += r.Secs
				}
			}
			b.ReportMetric(maxErr, "abs_err_pp")
			b.ReportMetric(secs, "find_secs")
		}
	}
	b.Run("Hydro", report("Hydro"))
	b.Run("MGRID", report("MGRID"))
	b.Run("MMT", report("MMT"))
}

// BenchmarkTable4EstimateMisses regenerates Table 4: sampled estimation on
// the kernels at (95%, 0.05).
func BenchmarkTable4EstimateMisses(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxErr float64
	for _, r := range rows {
		if r.AbsErr > maxErr {
			maxErr = r.AbsErr
		}
	}
	b.ReportMetric(maxErr, "max_abs_err_pp") // paper: < 0.4
}

// BenchmarkTable5ProgramStats regenerates Table 5.
func BenchmarkTable5ProgramStats(b *testing.B) {
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Program == "Applu" {
			b.ReportMetric(float64(r.Subroutines), "applu_subroutines") // paper: 16
			b.ReportMetric(float64(r.NRefs), "applu_refs")              // paper: 2565
		}
	}
}

// BenchmarkTable6WholePrograms regenerates Table 6: EstimateMisses vs the
// simulator on Tomcatv, Swim and Applu.
func BenchmarkTable6WholePrograms(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable6(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxErr float64
	for _, r := range rows {
		if r.AbsErr > maxErr {
			maxErr = r.AbsErr
		}
	}
	b.ReportMetric(maxErr, "max_abs_err_pp") // paper: <= 0.84
}

// BenchmarkTable7Probabilistic regenerates four representative Table 7
// rows (shrink 8): the probabilistic baseline's error must dominate
// EstimateMisses'.
func BenchmarkTable7Probabilistic(b *testing.B) {
	configs := []experiments.Table7Config{
		experiments.Table7Configs[0],  // 200/100/100 Cs16 Ls8 k2
		experiments.Table7Configs[4],  // 200/200/100 Cs128 Ls32 k2 (the blow-up row)
		experiments.Table7Configs[5],  // 200/50/200 Cs16 Ls4 k1
		experiments.Table7Configs[10], // 400/200/100 Cs32 Ls8 k1
	}
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable7(8, configs)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sumP, sumE float64
	for _, r := range rows {
		sumP += r.DeltaP
		sumE += r.DeltaE
	}
	b.ReportMetric(sumP/float64(len(rows)), "mean_deltaP_pp")
	b.ReportMetric(sumE/float64(len(rows)), "mean_deltaE_pp")
}

// BenchmarkFigure6Solvers compares the two algorithms of Figure 6 on the
// same program and cache: FindMisses (every point) vs EstimateMisses
// (sampled), the core cost trade-off of the paper.
func BenchmarkFigure6Solvers(b *testing.B) {
	np := prepared(b, cachemodel.KernelHydro(32, 32))
	cfg := cachemodel.Default32K(2)
	b.Run("FindMisses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cachemodel.FindMisses(np, cfg, cachemodel.AnalyzeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EstimateMisses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := cachemodel.EstimateMisses(np, cfg, cachemodel.AnalyzeOptions{}, cachemodel.Plan{C: 0.95, W: 0.05})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Simulator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cachemodel.Simulate(np, cfg)
		}
	})
}

// BenchmarkParallelScaling measures the tile-parallel exact solver and the
// set-sharded simulator on Hydro across worker counts, against the
// sequential seed paths (one worker, memoization off). The CI bench smoke
// job gates on these numbers: with GOMAXPROCS >= 4 the parallel solver
// must not be slower than the sequential one.
func BenchmarkParallelScaling(b *testing.B) {
	np := prepared(b, cachemodel.KernelHydro(32, 32))
	cfg := cachemodel.Default32K(2)
	find := func(opt cachemodel.AnalyzeOptions) func(b *testing.B) {
		return func(b *testing.B) {
			var points int64
			for i := 0; i < b.N; i++ {
				rep, err := cachemodel.FindMisses(np, cfg, opt)
				if err != nil {
					b.Fatal(err)
				}
				points = rep.TotalAccesses()
			}
			b.ReportMetric(float64(points), "points")
		}
	}
	b.Run("FindMisses/seq", find(cachemodel.AnalyzeOptions{Workers: 1, NoMemo: true}))
	b.Run("FindMisses/memo", find(cachemodel.AnalyzeOptions{Workers: 1}))
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("FindMisses/w%d", w), find(cachemodel.AnalyzeOptions{Workers: w}))
	}
	b.Run("Simulate/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cachemodel.Simulate(np, cfg)
		}
	})
	for _, w := range []int{2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("Simulate/sharded_w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace.SimulateSharded(np, cfg, w)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §"Key design decisions").

func ablationError(b *testing.B, opt cachemodel.AnalyzeOptions) float64 {
	b.Helper()
	np := prepared(b, cachemodel.KernelHydro(24, 24))
	cfg := cache.Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 2}
	rep, err := cachemodel.FindMisses(np, cfg, opt)
	if err != nil {
		b.Fatal(err)
	}
	sim := cachemodel.Simulate(np, cfg)
	d := rep.MissRatio() - sim.MissRatio()
	if d < 0 {
		d = -d
	}
	return d
}

// BenchmarkAblationSpatialVectors measures what each class of reuse vector
// buys: dropping spatial, cross-column or group vectors must only increase
// the (over-)estimation error, never make it negative.
func BenchmarkAblationSpatialVectors(b *testing.B) {
	variants := []struct {
		name string
		opt  reuse.Options
	}{
		{"full", reuse.Options{}},
		{"no-cross-column", reuse.Options{NoCrossColumn: true}},
		{"no-spatial", reuse.Options{NoSpatial: true}},
		{"no-group", reuse.Options{NoGroup: true}},
		{"self-temporal-only", reuse.Options{NoSpatial: true, NoGroup: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = ablationError(b, cachemodel.AnalyzeOptions{Reuse: v.opt})
			}
			b.ReportMetric(e, "abs_err_pp")
		})
	}
}

// BenchmarkAblationPaperLRU compares the paper's verbatim replacement test
// with the exact-LRU refinement the implementation defaults to.
func BenchmarkAblationPaperLRU(b *testing.B) {
	for _, v := range []struct {
		name string
		opt  cachemodel.AnalyzeOptions
	}{
		{"exact-lru", cachemodel.AnalyzeOptions{}},
		{"paper-lru", cachemodel.AnalyzeOptions{PaperLRU: true}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = ablationError(b, v.opt)
			}
			b.ReportMetric(e, "abs_err_pp")
		})
	}
}

// BenchmarkAblationSamplingPlan sweeps the confidence interval width: the
// cost-accuracy dial of EstimateMisses.
func BenchmarkAblationSamplingPlan(b *testing.B) {
	np := prepared(b, cachemodel.KernelMMT(24, 12, 12))
	cfg := cache.Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 2}
	sim := cachemodel.Simulate(np, cfg)
	for _, w := range []float64{0.02, 0.05, 0.10, 0.15} {
		w := w
		b.Run(planName(w), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				rep, err := cachemodel.EstimateMisses(np, cfg, cachemodel.AnalyzeOptions{},
					cachemodel.Plan{C: 0.95, W: w})
				if err != nil {
					b.Fatal(err)
				}
				e = rep.MissRatio() - sim.MissRatio()
				if e < 0 {
					e = -e
				}
			}
			b.ReportMetric(e, "abs_err_pp")
			b.ReportMetric(float64((sampling.Plan{C: 0.95, W: w}).Size()), "samples_per_ref")
		})
	}
}

func planName(w float64) string {
	switch w {
	case 0.02:
		return "w=0.02"
	case 0.05:
		return "w=0.05"
	case 0.10:
		return "w=0.10"
	default:
		return "w=0.15"
	}
}

// ---------------------------------------------------------------------
// Component microbenchmarks.

// BenchmarkSimulatorAccess measures raw simulator throughput.
func BenchmarkSimulatorAccess(b *testing.B) {
	sim := cache.NewSimulator(cache.Default32K(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Access(int64(i*8) % (1 << 20))
	}
}

// BenchmarkTraceReplay measures end-to-end trace generation + simulation.
func BenchmarkTraceReplay(b *testing.B) {
	np := prepared(b, cachemodel.KernelHydro(32, 32))
	cfg := cache.Default32K(2)
	b.ResetTimer()
	var accesses int64
	for i := 0; i < b.N; i++ {
		res := trace.Simulate(np, cfg)
		accesses = res.Accesses
	}
	b.ReportMetric(float64(accesses), "accesses")
}

// BenchmarkSimulateSolverFixture replays the pinned solver fixture of
// BENCH_solvers.json (Tomcatv 24 × 8, 32KB/32B/direct) through the
// sequential and the two-way set-sharded simulator: its simulate_seq and
// simulate_sharded_w2 rows. Each run takes a few milliseconds, so
// `-count` resolves a change that the artifact's best-of-3 cannot.
func BenchmarkSimulateSolverFixture(b *testing.B) {
	np := prepared(b, cachemodel.ProgramTomcatv(24, 8))
	cfg := cache.Config{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 1}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.Simulate(np, cfg)
		}
	})
	b.Run("sharded_w2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.SimulateShardedCtx(context.Background(), np, cfg, cache.FetchOnWrite, budget.Budget{}, 2)
		}
	})
}

// BenchmarkNormalize measures the §3.1 pre-processing on the largest
// program model.
func BenchmarkNormalize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := kernels.Applu(8, 1)
		flat, _, err := cachemodel.Prepare(p, cachemodel.PrepareOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = flat
	}
}

// BenchmarkReuseGeneration measures reuse-vector derivation.
func BenchmarkReuseGeneration(b *testing.B) {
	np := prepared(b, cachemodel.KernelHydro(32, 32))
	cfg := cache.Default32K(2)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		vecs := reuse.Generate(np, cfg, reuse.Options{})
		total = 0
		for _, vs := range vecs {
			total += len(vs)
		}
	}
	b.ReportMetric(float64(total), "vectors")
}

// BenchmarkClassify measures single-access classification (the inner loop
// of both solvers).
func BenchmarkClassify(b *testing.B) {
	np := prepared(b, cachemodel.KernelHydro(32, 32))
	cfg := cache.Default32K(2)
	a, err := cme.New(np, cfg, cme.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ref := np.Refs[len(np.Refs)/2]
	idx := []int64{16, 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Classify(ref, idx)
	}
}

// BenchmarkVolume measures RIS volume computation on a triangular space.
func BenchmarkVolume(b *testing.B) {
	sub := buildTriangular(200)
	np, err := normalize.Normalize(sub)
	if err != nil {
		b.Fatal(err)
	}
	sp := poly.FromStmt(np.Stmts[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh space each round to defeat the cache.
		s2 := poly.New(sp.Bounds, sp.Guards)
		_ = s2.Volume()
	}
}

func buildTriangular(n int64) *ir.Subroutine {
	bb := ir.NewSub("tri")
	A := bb.Real8("A", n, n)
	bb.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Var("I"), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("J"), ir.Var("I"))).
		End().End()
	return bb.Build()
}

// BenchmarkParseFortran measures the front end on the Hydro listing.
func BenchmarkParseFortran(b *testing.B) {
	src := hydroListing()
	for i := 0; i < b.N; i++ {
		if _, err := cachemodel.ParseFortran(src, map[string]int64{"JN": 20, "KN": 20, "JN1": 21, "KN1": 21}); err != nil {
			b.Fatal(err)
		}
	}
}

func hydroListing() string {
	return `
      PROGRAM HYDRO
      REAL*8 ZA(JN1,KN1), ZP(JN1,KN1), ZQ(JN1,KN1), ZR(JN1,KN1)
      REAL*8 ZM(JN1,KN1), ZB(JN1,KN1), ZU(JN1,KN1), ZV(JN1,KN1)
      REAL*8 ZZ(JN1,KN1)
      DO K = 2, KN
        DO J = 2, JN
          ZA(J,K) = (ZP(J-1,K+1)+ZQ(J-1,K+1)-ZP(J-1,K)-ZQ(J-1,K))
     &      *(ZR(J,K)+ZR(J-1,K))/(ZM(J-1,K)+ZM(J-1,K+1))
          ZB(J,K) = (ZP(J-1,K)+ZQ(J-1,K)-ZP(J,K)-ZQ(J,K))
     &      *(ZR(J,K)+ZR(J,K-1))/(ZM(J,K)+ZM(J-1,K))
        ENDDO
      ENDDO
      END
`
}

// BenchmarkAbstractInlining measures §3.6 on Applu's call graph.
func BenchmarkAbstractInlining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := kernels.Applu(8, 1)
		st := cachemodel.ClassifyCalls(p)
		if st.Calls == 0 {
			b.Fatal("no calls")
		}
	}
}

// BenchmarkExtensionNonUniform measures the §8 future-work extension:
// resolving non-uniformly generated reuse with uniquely solvable
// producers removes the overestimation on a transpose-then-read pattern
// (the paper's method finds no reuse vector between B(J,I) and B(I,J)).
func BenchmarkExtensionNonUniform(b *testing.B) {
	build := func() *cachemodel.NProgram {
		sb := cachemodel.NewSub("TR")
		A := sb.Real8("A", 24, 24)
		B := sb.Real8("B", 24, 24)
		i, j := cachemodel.Var("I"), cachemodel.Var("J")
		sb.Do("I", cachemodel.Con(1), cachemodel.Con(24)).
			Do("J", cachemodel.Con(1), cachemodel.Con(24)).
			Assign("S1", cachemodel.R(B, j, i), cachemodel.R(A, i, j)).
			End().End().
			Do("I", cachemodel.Con(1), cachemodel.Con(24)).
			Do("J", cachemodel.Con(1), cachemodel.Con(24)).
			Assign("S2", nil, cachemodel.R(B, i, j)).
			End().End()
		p := cachemodel.NewProgram("TR")
		p.Add(sb.Build())
		np, _, err := cachemodel.Prepare(p, cachemodel.PrepareOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return np
	}
	cfg := cache.Config{SizeBytes: 2048, LineBytes: 32, Assoc: 2}
	for _, v := range []struct {
		name string
		opt  cachemodel.AnalyzeOptions
	}{
		{"paper", cachemodel.AnalyzeOptions{}},
		{"non-uniform", cachemodel.AnalyzeOptions{Reuse: reuse.Options{NonUniform: true}}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				np := build()
				rep, err := cachemodel.FindMisses(np, cfg, v.opt)
				if err != nil {
					b.Fatal(err)
				}
				sim := cachemodel.Simulate(np, cfg)
				e = rep.MissRatio() - sim.MissRatio()
				if e < 0 {
					e = -e
				}
			}
			b.ReportMetric(e, "abs_err_pp")
		})
	}
}
