package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/trace"
)

// profileFlags registers -cpuprofile / -memprofile and returns start/stop
// closures bracketing the measured work plus a predicate reporting whether
// CPU profiling was requested — callers use it to turn on the solvers'
// pprof labels (ref, tile, candidate) only when a profile is being taken.
func profileFlags(fs *flag.FlagSet) (start func() error, stop func() error, active func() bool) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var cpuFile *os.File
	start = func() error {
		if *cpu == "" {
			return nil
		}
		f, err := os.Create(*cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
		return nil
	}
	stop = func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if *mem == "" {
			return nil
		}
		f, err := os.Create(*mem)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	active = func() bool { return *cpu != "" }
	return start, stop, active
}

// benchResult is one row of BENCH_solvers.json.
type benchResult struct {
	Name string `json:"name"`
	// Workers is the effective worker count this row ran with — 1 for the
	// sequential variants, the -workers flag for the parallel ones — so a
	// row is interpretable without reconstructing it from the row name.
	Workers     int     `json:"workers"`
	Ns          int64   `json:"ns"`
	Points      int64   `json:"points"`
	NsPerPoint  float64 `json:"ns_per_point"`
	PointsPerS  float64 `json:"points_per_sec"`
	Speedup     float64 `json:"speedup_vs_seq"`
	MissRatio   float64 `json:"miss_ratio_pct"`
	ExactMisses int64   `json:"exact_misses,omitempty"`
	// SymbolicPct is the fraction (in percent) of classified points the
	// symbolic fast path resolved without enumerating them; present only
	// on rows that ran with the fast path enabled.
	SymbolicPct float64 `json:"symbolic_pct,omitempty"`
}

// benchReport is the BENCH_solvers.json document.
type benchReport struct {
	Program    string        `json:"program"`
	Size       int64         `json:"size"`
	Iters      int64         `json:"iters"`
	Cache      string        `json:"cache"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Repeat     int           `json:"repeat"`
	Results    []benchResult `json:"results"`
}

// cmdBench times the solver variants against each other on one program and
// emits a machine-readable BENCH_solvers.json: the sequential seed path
// (one worker, no memo), the memoized sequential solver, the tile-parallel
// solver, and the sequential vs set-sharded simulator. With -check it also
// verifies that every variant produces counts bit-identical to the
// sequential baseline and fails otherwise.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("program", "tomcatv", "built-in program name")
	file := fs.String("file", "", "FORTRAN source file to benchmark instead of a built-in")
	consts := fs.String("const", "", "compile-time constants for -file")
	size := fs.Int64("size", 32, "problem size")
	iters := fs.Int64("iters", 1, "outer iterations (whole programs)")
	cs, ls, assoc := cacheFlags(fs)
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel worker count for the parallel variants")
	repeat := fs.Int("repeat", 1, "timing repetitions (the fastest is reported)")
	out := fs.String("out", "BENCH_solvers.json", "output path for the JSON report (- = stdout only)")
	check := fs.Bool("check", false, "verify all variants produce bit-identical counts")
	noSym := fs.Bool("nosymbolic", false, "disable the symbolic region fast path in every solver row")
	noSim := fs.Bool("nosim", false, "skip the simulator rows")
	scaling := fs.Bool("scaling", false, "benchmark the closed-form scaling tier over a size ladder instead (emits BENCH_scaling.json)")
	sizeConst := fs.String("size-const", "N", "with -scaling -file: the constant carrying the problem size")
	distMode := fs.Bool("dist", false, "benchmark the distributed sweep layer over worker counts instead (emits BENCH_dist.json)")
	distWorkers := fs.String("dist-workers", "1,4", "comma-separated worker counts for -dist")
	sweepMode := fs.Bool("sweep", false, "benchmark the geometry-parametric sweep tier over a cache-size column instead (delegates to the sweep subcommand with -exact -geom-bench; emits BENCH_sweep.json)")
	sweepFrom := fs.Int64("sweep-from", 40960, "-sweep: smallest cache size of the column in bytes")
	sweepTo := fs.Int64("sweep-to", 169984, "-sweep: largest cache size of the column in bytes")
	sweepStep := fs.Int64("sweep-step", 2048, "-sweep: cache-size stride in bytes")
	ladder := ladderFlags(fs)
	pstart, pstop, _ := profileFlags(fs)
	oflags := obsFlags(fs)
	fs.Parse(args)

	if *scaling {
		ns, err := ladder()
		if err != nil {
			return err
		}
		cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
		if err := cfg.Validate(); err != nil {
			return err
		}
		dst := *out
		if dst == "BENCH_solvers.json" {
			dst = "BENCH_scaling.json"
		}
		or, err := oflags.start("bench")
		if err != nil {
			return err
		}
		ctx := or.Context(context.Background())
		if err := benchScaling(ctx, *name, *file, *consts, *sizeConst,
			*iters, cfg, *workers, ns, dst, *check); err != nil {
			return err
		}
		program := *name
		if *file != "" {
			program = *file
		}
		return or.finish(ctx, program, nil, nil)
	}

	if *distMode {
		wcounts, err := parseInt64List(*distWorkers)
		if err != nil {
			return fmt.Errorf("bench -dist-workers: %v", err)
		}
		dst := *out
		if dst == "BENCH_solvers.json" {
			dst = "BENCH_dist.json"
		}
		return benchDist(*name, *file, *consts, *size, *iters, wcounts, dst, *check)
	}

	if *sweepMode {
		// One sweep implementation: delegate to the sweep subcommand with
		// the bench-style defaults — an exact cache-size column plus the
		// geom-vs-fused benchmark row. -check arms the CI speedup gate
		// (sweep itself only applies it on runners with >= 4 CPUs).
		dst := *out
		if dst == "BENCH_solvers.json" {
			dst = "BENCH_sweep.json"
		}
		sargs := []string{
			"-program", *name, "-size", fmt.Sprint(*size), "-iters", fmt.Sprint(*iters),
			"-sizes-from", fmt.Sprint(*sweepFrom), "-sizes-to", fmt.Sprint(*sweepTo),
			"-sizes-step", fmt.Sprint(*sweepStep),
			"-lines", fmt.Sprint(*ls), "-assocs", fmt.Sprint(*assoc),
			"-workers", fmt.Sprint(*workers),
			"-exact", "-geom-bench", "-out", dst,
		}
		if *file != "" {
			sargs = append(sargs, "-file", *file, "-const", *consts)
		}
		if *check {
			sargs = append(sargs, "-geom-gate", "3")
		}
		return cmdSweep(sargs)
	}

	// The collector rides on a Background context (not the signal context):
	// a cancellable context makes the budget meter limited, which would put
	// probe checkpoints inside the timed loops and skew the rows.
	or, err := oflags.start("bench")
	if err != nil {
		return err
	}
	ctx := or.Context(context.Background())

	p, err := loadProgram(*file, *consts, *name, *size, *iters)
	if err != nil {
		return err
	}
	np, _, err := prepare(p)
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *repeat < 1 {
		*repeat = 1
	}
	if err := pstart(); err != nil {
		return err
	}

	// time returns the fastest wall time of repeat runs of f, which must
	// return the report it produced (the last one is kept for checking).
	timeIt := func(f func() *cme.Report) (time.Duration, *cme.Report) {
		var best time.Duration
		var rep *cme.Report
		for i := 0; i < *repeat; i++ {
			t0 := time.Now()
			rep = f()
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
		}
		return best, rep
	}
	newAnalyzer := func(w int, noMemo, noSymbolic bool) *cme.Analyzer {
		a, err := cme.New(np, cfg, cme.Options{Workers: w, NoMemo: noMemo, NoSymbolic: noSymbolic || *noSym})
		if err != nil {
			panic(err)
		}
		return a
	}
	// Symbolic-coverage accounting: the solver splits every classified
	// point into symbolically resolved vs enumerated; deltas of the shared
	// counters around a timed run yield the row's coverage fraction.
	symCtr := obs.Default.Counter("cme_points_symbolic_total")
	enumCtr := obs.Default.Counter("cme_points_enumerated_total")
	symPct := func(f func()) float64 {
		s0, e0 := symCtr.Value(), enumCtr.Value()
		f()
		s, e := symCtr.Value()-s0, enumCtr.Value()-e0
		if s+e == 0 {
			return 0
		}
		return 100 * float64(s) / float64(s+e)
	}

	rep := benchReport{Program: p.Name, Size: *size, Iters: *iters, Cache: cfg.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: *workers, Repeat: *repeat}

	solve := func(a *cme.Analyzer) *cme.Report {
		r, _ := a.FindMissesCtx(ctx, budget.Budget{}) // unlimited: never errors
		return r
	}
	seqDur, seqRep := timeIt(func() *cme.Report { return solve(newAnalyzer(1, true, true)) })
	points := seqRep.TotalAccesses()
	row := func(name string, d time.Duration, r *cme.Report) benchResult {
		br := benchResult{Name: name, Workers: 1, Ns: d.Nanoseconds(), Points: points}
		if points > 0 {
			br.NsPerPoint = float64(d.Nanoseconds()) / float64(points)
		}
		if d > 0 {
			br.PointsPerS = float64(points) / d.Seconds()
			br.Speedup = float64(seqDur.Nanoseconds()) / float64(d.Nanoseconds())
		}
		if r != nil {
			br.MissRatio = r.MissRatio()
			br.ExactMisses = r.ExactMisses()
		}
		return br
	}
	rep.Results = append(rep.Results, row("findmisses_seq", seqDur, seqRep))

	memoDur, memoRep := timeIt(func() *cme.Report { return solve(newAnalyzer(1, false, true)) })
	rep.Results = append(rep.Results, row("findmisses_memo", memoDur, memoRep))

	// Single-core symbolic row: memo + region fast path. Its speedup over
	// findmisses_memo isolates the fast path's contribution.
	var symDur time.Duration
	var symRep *cme.Report
	pct := symPct(func() { symDur, symRep = timeIt(func() *cme.Report { return solve(newAnalyzer(1, false, false)) }) })
	symRow := row("findmisses_symbolic", symDur, symRep)
	symRow.SymbolicPct = pct
	rep.Results = append(rep.Results, symRow)

	var parDur time.Duration
	var parRep *cme.Report
	pct = symPct(func() {
		parDur, parRep = timeIt(func() *cme.Report { return solve(newAnalyzer(*workers, false, false)) })
	})
	parRow := row(fmt.Sprintf("findmisses_parallel_w%d", *workers), parDur, parRep)
	parRow.Workers = *workers
	parRow.SymbolicPct = pct
	rep.Results = append(rep.Results, parRow)

	var simSeq, simShard *trace.SimResult
	var simSeqDur, simShardDur time.Duration
	if !*noSim {
		for i := 0; i < *repeat; i++ {
			t0 := time.Now()
			simSeq, _ = trace.SimulateCtx(ctx, np, cfg, budget.Budget{})
			if d := time.Since(t0); i == 0 || d < simSeqDur {
				simSeqDur = d
			}
		}
		sr := benchResult{Name: "simulate_seq", Workers: 1, Ns: simSeqDur.Nanoseconds(), Points: simSeq.Accesses, Speedup: 1}
		if simSeq.Accesses > 0 {
			sr.NsPerPoint = float64(simSeqDur.Nanoseconds()) / float64(simSeq.Accesses)
			sr.PointsPerS = float64(simSeq.Accesses) / simSeqDur.Seconds()
		}
		sr.MissRatio = simSeq.MissRatio()
		rep.Results = append(rep.Results, sr)

		for i := 0; i < *repeat; i++ {
			t0 := time.Now()
			simShard, _ = trace.SimulateShardedCtx(ctx, np, cfg, cache.FetchOnWrite, budget.Budget{}, *workers)
			if d := time.Since(t0); i == 0 || d < simShardDur {
				simShardDur = d
			}
		}
		ss := benchResult{Name: fmt.Sprintf("simulate_sharded_w%d", *workers), Workers: *workers, Ns: simShardDur.Nanoseconds(), Points: simShard.Accesses}
		if simShard.Accesses > 0 {
			ss.NsPerPoint = float64(simShardDur.Nanoseconds()) / float64(simShard.Accesses)
			ss.PointsPerS = float64(simShard.Accesses) / simShardDur.Seconds()
		}
		if simShardDur > 0 {
			ss.Speedup = float64(simSeqDur.Nanoseconds()) / float64(simShardDur.Nanoseconds())
		}
		ss.MissRatio = simShard.MissRatio()
		rep.Results = append(rep.Results, ss)
	}
	if err := pstop(); err != nil {
		return err
	}

	if *check {
		if err := sameReport(seqRep, memoRep, "findmisses_memo"); err != nil {
			return err
		}
		if err := sameReport(seqRep, symRep, "findmisses_symbolic"); err != nil {
			return err
		}
		if err := sameReport(seqRep, parRep, "findmisses_parallel"); err != nil {
			return err
		}
		if simSeq != nil && simShard != nil {
			if simSeq.Accesses != simShard.Accesses || simSeq.Misses != simShard.Misses {
				return fmt.Errorf("bench -check: sharded simulator diverged: %d/%d accesses, %d/%d misses",
					simShard.Accesses, simSeq.Accesses, simShard.Misses, simSeq.Misses)
			}
			// Regression gate on the single-shard bypass: with one
			// effective shard the sharded entry point dispatches straight
			// to the sequential simulator, so (best-of-repeat both sides)
			// it can only trail simulate_seq by timer jitter. A bigger
			// deficit means the bypass broke and the w1 path is paying
			// queue and merge overhead again.
			effShards := *workers
			if effShards == 0 {
				effShards = runtime.GOMAXPROCS(0)
			}
			if ns := cfg.NumSets(); int64(effShards) > ns {
				effShards = int(ns)
			}
			if effShards <= 1 && simShardDur > simSeqDur+simSeqDur/4 {
				return fmt.Errorf("bench -check: single-shard simulator bypass regressed: sharded %v vs sequential %v (tolerance 1.25x)",
					simShardDur, simSeqDur)
			}
		}
		fmt.Fprintln(os.Stderr, "cachette bench: all variants bit-identical to the sequential baseline")
		// Performance gate: on a machine with real parallelism the
		// tile-parallel solver must at least keep up with the sequential
		// seed path (best-of-repeat each). Uniprocessors are exempt —
		// there the memoization, not the worker pool, carries the win.
		if runtime.GOMAXPROCS(0) >= 4 && *workers > 1 && parDur > seqDur {
			return fmt.Errorf("bench -check: parallel solver slower than sequential (%v > %v) with %d workers on %d CPUs",
				parDur, seqDur, *workers, runtime.GOMAXPROCS(0))
		}
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette bench: wrote %s\n", *out)
	}
	os.Stdout.Write(blob)
	return or.finish(ctx, p.Name, seqRep, nil)
}

// sameReport verifies two exact reports carry identical per-reference
// counts (the bit-identity contract of the parallel and memoized solvers).
func sameReport(want, got *cme.Report, name string) error {
	if len(want.Refs) != len(got.Refs) {
		return fmt.Errorf("bench -check: %s: %d refs vs %d", name, len(got.Refs), len(want.Refs))
	}
	for i, w := range want.Refs {
		g := got.Refs[i]
		if w.Ref != g.Ref || w.Volume != g.Volume || w.Analyzed != g.Analyzed ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl {
			return fmt.Errorf("bench -check: %s: ref %s diverged: got {analyzed %d hits %d cold %d repl %d} want {analyzed %d hits %d cold %d repl %d}",
				name, w.Ref.ID, g.Analyzed, g.Hits, g.Cold, g.Repl, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
	return nil
}
