package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/reuse"
	"cachemodel/internal/spec"
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

// benchHeader heads every report document bench and sweep write: the
// command line that produced it, the fixture it ran and the CPUs it ran
// on. Size is absent where a problem-size ladder carries the sizes, and
// Cache where a grid carries the geometries.
type benchHeader struct {
	Command    string `json:"command"`
	Program    string `json:"program"`
	Size       int64  `json:"size,omitempty"`
	Iters      int64  `json:"iters"`
	Cache      string `json:"cache,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// header is the report header of `cachette cmd args...` on the program
// the flags name.
func (pf *programFlags) header(cmd string, args []string) benchHeader {
	h := benchHeader{Command: strings.Join(append([]string{"cachette", cmd}, args...), " "),
		Program: pf.label(), Iters: *pf.iters, GoMaxProcs: runtime.GOMAXPROCS(0)}
	if pf.size != nil {
		h.Size = *pf.size
	}
	return h
}

// pinnedBench is a committed bench artifact and the header of the run
// that regenerates it: its command and fixture (GoMaxProcs, the machine,
// is left zero). The artifacts form a trajectory across changes only if
// every regeneration runs the same command, so `cachette bench` without
// -out writes Path only when its command line is exactly the pin's.
type pinnedBench struct {
	Path   string
	Header benchHeader
}

var pinnedBenches = []pinnedBench{
	{"BENCH_solvers.json", benchHeader{Command: "cachette bench -program tomcatv -size 24 -iters 8 -repeat 3 -check",
		Program: "tomcatv", Size: 24, Iters: 8, Cache: "32KB/32B/direct"}},
	// The adversarial fixture: dozens of references per leaf row, and
	// walks that almost never touch the consumer's set.
	{"BENCH_solvers_applu.json", benchHeader{Command: "cachette bench -program applu -size 10 -iters 2 -check",
		Program: "applu", Size: 10, Iters: 2, Cache: "32KB/32B/direct"}},
	{"BENCH_scaling.json", benchHeader{Command: "cachette bench -scaling -program tomcatv -iters 1 -cache 256 -line 32 -assoc 1 -from 192 -to 512 -step 64 -check",
		Program: "tomcatv", Iters: 1, Cache: "256B/32B/direct"}},
	{"BENCH_sweep.json", benchHeader{Command: "cachette bench -sweep -program tomcatv -size 24 -check",
		Program: "tomcatv", Size: 24, Iters: 1}},
	{"BENCH_dist.json", benchHeader{Command: "cachette bench -dist -program tomcatv -size 28 -check",
		Program: "tomcatv", Size: 28, Iters: 1}},
}

// benchDest is where a bench report is written besides stdout: -out when
// it is set, else the artifact whose pin is exactly this command line,
// else nowhere ("-"). Any other run written over a pinned artifact would
// break the trajectory it records.
func benchDest(out, command string) string {
	if out != "" {
		return out
	}
	for _, pb := range pinnedBenches {
		if pb.Header.Command == command {
			return pb.Path
		}
	}
	fmt.Fprintln(os.Stderr, "cachette bench: not a pinned command; pass -out to write the report to a file")
	return "-"
}

// writeReport writes a report document as indented JSON to path, unless
// path is "-", and to echo when echo is not nil.
func writeReport(path string, doc any, echo io.Writer) error {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path != "-" {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette: wrote %s\n", path)
	}
	if echo != nil {
		_, err = echo.Write(blob)
	}
	return err
}

// minTimedWall is how long a timed bench row keeps repeating its run. A
// row reports its fastest run, and a run of a few milliseconds needs
// dozens of them to settle: best-of-3 moved by ±20% between back-to-back
// benches.
const minTimedWall = 500 * time.Millisecond

// timeBest runs f at least runs times, and on until the runs add up to
// minTimedWall, and returns the fastest run.
func timeBest(runs int, f func()) time.Duration {
	var best, total time.Duration
	for i := 0; i < runs || total < minTimedWall; i++ {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// cmdBench measures one layer on one fixture and emits a JSON report, a
// benchHeader and the mode's rows: by default the solver variants against
// each other (BENCH_solvers.json); with -scaling the closed-form size tier
// over a problem-size ladder (BENCH_scaling.json); with -sweep the
// set-count tier over a cache-size column (BENCH_sweep.json); with -dist
// the distributed sweep layer over worker counts (BENCH_dist.json). With
// -check each mode verifies its fast paths bit-identical to its baseline
// and applies its speed gate. The report goes to stdout, and to -out; an
// unset -out writes the artifact only when the command line is exactly
// its pin (pinnedBenches).
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	pf := addProgramFlags(fs, "tomcatv", 32, 1)
	cs, ls, assoc := cacheFlags(fs)
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel worker count for the parallel variants")
	repeat := fs.Int("repeat", 1, fmt.Sprintf("least timing repetitions of a row (a row repeats until its runs add up to %v; the fastest is reported)", minTimedWall))
	out := fs.String("out", "", "output path for the JSON report (- = stdout only; unset, only a pinned command writes its artifact)")
	check := fs.Bool("check", false, "verify every variant bit-identical to its baseline and apply the mode's speed gate")
	noSym := fs.Bool("nosymbolic", false, "disable the symbolic region fast path in every solver row")
	scaling := fs.Bool("scaling", false, "benchmark the closed-form size tier over the -from/-to/-step ladder instead (BENCH_scaling.json)")
	distMode := fs.Bool("dist", false, "benchmark the distributed sweep layer at 1 and 4 in-process workers instead (BENCH_dist.json)")
	sweepMode := fs.Bool("sweep", false, "benchmark the set-count tier against the fused batch on a 64-size cache column instead (BENCH_sweep.json)")
	ladder := ladderFlags(fs)
	pstart, pstop, _ := profileFlags(fs)
	oflags := obsFlags(fs)
	fs.Parse(args)

	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	if err := cfg.Validate(); err != nil {
		return err
	}
	lad, err := ladder()
	if err != nil {
		return err
	}
	// The collector rides on a Background context (not the signal context):
	// a cancellable context puts probe checkpoints inside the simulator's
	// timed loops and would skew its rows. findmisses_cancelctx runs under
	// one on purpose: that is the shape of a dist worker's solve.
	or, err := oflags.start("bench")
	if err != nil {
		return err
	}
	ctx := or.Context(context.Background())
	hdr := pf.header("bench", args)
	if err := pstart(); err != nil {
		return err
	}
	var doc any
	var rep *cme.Report
	var cprov []obs.CandidateProvenance
	switch {
	case *scaling:
		doc, err = benchScaling(ctx, hdr, pf, cfg, *workers, lad, *check)
	case *sweepMode:
		doc, cprov, err = benchSweep(ctx, hdr, pf, cfg, *workers, *check)
	case *distMode:
		doc, err = benchDist(ctx, hdr, pf, *check)
	default:
		doc, rep, err = benchSolvers(ctx, hdr, pf, cfg, *workers, *repeat, *noSym, *check)
	}
	if perr := pstop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if err := writeReport(benchDest(*out, hdr.Command), doc, os.Stdout); err != nil {
		return err
	}
	return or.finish(ctx, hdr.Program, rep, cprov)
}

// benchResult is one row of BENCH_solvers.json. A solver or simulator row
// times a whole solve over its points; a layer row (reuse_generate) times
// one pipeline layer and carries that layer's own count instead of the
// point fields.
type benchResult struct {
	Name string `json:"name"`
	// Workers is the effective worker count this row ran with — 1 for the
	// sequential variants, the -workers flag for the parallel ones — so a
	// row is interpretable without reconstructing it from the row name.
	Workers     int     `json:"workers"`
	Ns          int64   `json:"ns"`
	Points      int64   `json:"points,omitempty"`
	NsPerPoint  float64 `json:"ns_per_point,omitempty"`
	PointsPerS  float64 `json:"points_per_sec,omitempty"`
	Speedup     float64 `json:"speedup_vs_seq,omitempty"`
	MissRatio   float64 `json:"miss_ratio_pct,omitempty"`
	ExactMisses int64   `json:"exact_misses,omitempty"`
	// Vectors is the number of reuse vectors reuse_generate produced.
	Vectors int64 `json:"vectors,omitempty"`
	// SymbolicPct is the fraction (in percent) of classified points the
	// symbolic fast path resolved without enumerating them; present only
	// on rows that ran with the fast path enabled.
	SymbolicPct float64 `json:"symbolic_pct,omitempty"`
}

// benchReport is the BENCH_solvers.json document.
type benchReport struct {
	benchHeader
	Workers int           `json:"workers"`
	Repeat  int           `json:"repeat"`
	Results []benchResult `json:"results"`
}

// timedRow is a solver or simulator row of d over points, its speedup
// taken against base.
func timedRow(name string, workers int, d, base time.Duration, points int64) benchResult {
	br := benchResult{Name: name, Workers: workers, Ns: d.Nanoseconds(), Points: points}
	if points > 0 {
		br.NsPerPoint = float64(d.Nanoseconds()) / float64(points)
	}
	if d > 0 {
		br.PointsPerS = float64(points) / d.Seconds()
		br.Speedup = float64(base.Nanoseconds()) / float64(d.Nanoseconds())
	}
	return br
}

// benchSolvers times the solver variants against each other on one
// program: the sequential seed path (one worker, no memo), the memoized
// sequential solver, the symbolic fast path, the tile-parallel solver,
// and the sequential vs set-sharded simulator, after the reuse generation
// layer they all start from. With check every variant must produce counts
// bit-identical to the sequential baseline. It returns the report and the
// baseline's analysis.
func benchSolvers(ctx context.Context, hdr benchHeader, pf *programFlags, cfg cache.Config,
	workers, repeat int, noSym, check bool) (*benchReport, *cme.Report, error) {

	p, err := pf.load()
	if err != nil {
		return nil, nil, err
	}
	np, _, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return nil, nil, err
	}
	repeat = max(repeat, 1)

	// timeIt times f and returns the report of its last run (the one kept
	// for checking).
	timeIt := func(f func() *cme.Report) (time.Duration, *cme.Report) {
		var rep *cme.Report
		d := timeBest(repeat, func() { rep = f() })
		return d, rep
	}
	newAnalyzer := func(w int, noMemo, noSymbolic bool) *cme.Analyzer {
		a, err := cme.New(np, cfg, cme.Options{Workers: w, NoMemo: noMemo, NoSymbolic: noSymbolic || noSym})
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

	hdr.Cache = cfg.String()
	rep := &benchReport{benchHeader: hdr, Workers: workers, Repeat: repeat}

	// Layer row: reuse vector generation, the set-up every solver row
	// below repeats inside cme.New. It runs one uniformly generated set
	// per worker, up to GOMAXPROCS.
	var genVectors int64
	genDur := timeBest(repeat, func() {
		genVectors = 0
		for _, vs := range reuse.Generate(np, cfg, reuse.Options{}) {
			genVectors += int64(len(vs))
		}
	})
	rep.Results = append(rep.Results, benchResult{Name: "reuse_generate", Workers: runtime.GOMAXPROCS(0),
		Ns: genDur.Nanoseconds(), Vectors: genVectors})

	solve := func(a *cme.Analyzer) *cme.Report {
		r, _ := a.FindMissesCtx(ctx, budget.Budget{}) // unlimited: never errors
		return r
	}
	seqDur, seqRep := timeIt(func() *cme.Report { return solve(newAnalyzer(1, true, true)) })
	points := seqRep.TotalAccesses()
	row := func(name string, d time.Duration, r *cme.Report) benchResult {
		br := timedRow(name, 1, d, seqDur, points)
		br.MissRatio = r.MissRatio()
		br.ExactMisses = r.ExactMisses()
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

	// findmisses_symbolic under a cancellable context (a dist worker's
	// solve) and under a deadline plus caps far above the need (a served
	// job's): both must match its counts and symbolic coverage.
	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	meteredRow := func(name string, ctx context.Context, b budget.Budget) (benchResult, *cme.Report) {
		var d time.Duration
		var r *cme.Report
		pct := symPct(func() {
			d, r = timeIt(func() *cme.Report {
				r, _ := newAnalyzer(1, false, false).FindMissesCtx(ctx, b)
				return r
			})
		})
		br := row(name, d, r)
		br.SymbolicPct = pct
		rep.Results = append(rep.Results, br)
		return br, r
	}
	cancelRow, cancelRep := meteredRow("findmisses_cancelctx", cancelCtx, budget.Budget{})
	deadlineRow, deadlineRep := meteredRow("findmisses_deadline", ctx, budget.Budget{
		Deadline: 10 * time.Minute, MaxPoints: 1 << 50, MaxScan: 1 << 50})

	var parDur time.Duration
	var parRep *cme.Report
	pct = symPct(func() {
		parDur, parRep = timeIt(func() *cme.Report { return solve(newAnalyzer(workers, false, false)) })
	})
	parRow := row(fmt.Sprintf("findmisses_parallel_w%d", workers), parDur, parRep)
	parRow.Workers = workers
	parRow.SymbolicPct = pct
	rep.Results = append(rep.Results, parRow)

	var simSeq, simShard *trace.SimResult
	simSeqDur := timeBest(repeat, func() { simSeq, _ = trace.SimulateCtx(ctx, np, cfg, budget.Budget{}) })
	simShardDur := timeBest(repeat, func() {
		simShard, _ = trace.SimulateShardedCtx(ctx, np, cfg, cache.FetchOnWrite, budget.Budget{}, workers)
	})
	for _, s := range []struct {
		name    string
		workers int
		d       time.Duration
		res     *trace.SimResult
	}{{"simulate_seq", 1, simSeqDur, simSeq}, {fmt.Sprintf("simulate_sharded_w%d", workers), workers, simShardDur, simShard}} {
		sr := timedRow(s.name, s.workers, s.d, simSeqDur, s.res.Accesses)
		sr.MissRatio = s.res.MissRatio()
		rep.Results = append(rep.Results, sr)
	}

	if !check {
		return rep, seqRep, nil
	}
	// The timed generation is the one the solvers classify with.
	var used int64
	a := newAnalyzer(1, false, false)
	for _, r := range np.Refs {
		used += int64(len(a.Vectors(r)))
	}
	if used != genVectors {
		return nil, nil, fmt.Errorf("bench -check: reuse_generate produced %d vectors, the solvers used %d", genVectors, used)
	}
	for _, m := range []struct {
		name string
		rep  *cme.Report
	}{{"findmisses_memo", memoRep}, {"findmisses_symbolic", symRep}, {"findmisses_parallel", parRep}} {
		if err := sameCounts("bench -check: "+m.name, seqRep, m.rep); err != nil {
			return nil, nil, err
		}
	}
	for _, m := range []struct {
		row benchResult
		rep *cme.Report
	}{{cancelRow, cancelRep}, {deadlineRow, deadlineRep}} {
		if err := sameCounts("bench -check: "+m.row.Name, seqRep, m.rep); err != nil {
			return nil, nil, err
		}
		if !noSym && m.row.SymbolicPct == 0 {
			return nil, nil, fmt.Errorf("bench -check: %s resolved no point symbolically", m.row.Name)
		}
	}
	if simSeq.Accesses != simShard.Accesses || simSeq.Misses != simShard.Misses {
		return nil, nil, fmt.Errorf("bench -check: sharded simulator diverged: %d/%d accesses, %d/%d misses",
			simShard.Accesses, simSeq.Accesses, simShard.Misses, simSeq.Misses)
	}
	// Regression gate on the single-shard bypass: with one effective
	// shard the sharded entry point dispatches straight to the sequential
	// simulator, so (fastest run both sides) it can only trail
	// simulate_seq by timer jitter. A bigger deficit means the bypass
	// broke and the w1 path is paying queue and merge overhead again.
	effShards := workers
	if effShards == 0 {
		effShards = runtime.GOMAXPROCS(0)
	}
	if ns := cfg.NumSets(); int64(effShards) > ns {
		effShards = int(ns)
	}
	if effShards <= 1 && simShardDur > simSeqDur+simSeqDur/4 {
		return nil, nil, fmt.Errorf("bench -check: single-shard simulator bypass regressed: sharded %v vs sequential %v (tolerance 1.25x)",
			simShardDur, simSeqDur)
	}
	fmt.Fprintln(os.Stderr, "cachette bench: all variants bit-identical to the sequential baseline")
	// Performance gate: on a machine with real parallelism the
	// tile-parallel solver must at least keep up with the sequential seed
	// path (fastest run each). Uniprocessors are exempt — there the
	// memoization, not the worker pool, carries the win.
	if runtime.GOMAXPROCS(0) >= 4 && workers > 1 && parDur > seqDur {
		return nil, nil, fmt.Errorf("bench -check: parallel solver slower than sequential (%v > %v) with %d workers on %d CPUs",
			parDur, seqDur, workers, runtime.GOMAXPROCS(0))
	}
	return rep, seqRep, nil
}

// The bench -sweep fixture's cache-size column: 64 sizes from 40 KB in
// 2 KB steps, at bench's -line and -assoc.
const (
	sweepBenchFrom = 40960
	sweepBenchTo   = 169984
	sweepBenchStep = 2048
	// sweepBenchGate is the speedup over the fused batch that bench -sweep
	// -check demands of the set-count tier on >= 4 CPUs.
	sweepBenchGate = 3
)

// geomBenchRow is the geom_closed_form entry of BENCH_sweep.json: the
// same exact column solved with the set-count (geometry-parametric) tier
// on and off (the fused batch baseline), bit-identity verified.
type geomBenchRow struct {
	Name            string  `json:"name"`
	GeomNs          int64   `json:"geom_ns"`
	FusedNs         int64   `json:"fused_ns"`
	Speedup         float64 `json:"speedup_vs_fused"`
	ClosedCands     int     `json:"closed_candidates"`
	AnchorCands     int     `json:"anchor_candidates"`
	FallthroughRefs int     `json:"fallthrough_refs"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	Gated           bool    `json:"gated"`
}

// benchSweep is `cachette bench -sweep`: the fixture's cache-size column
// solved exactly on one Prepared, with the set-count tier and without it
// (NoGeom, the fused batch), neither through a result cache. The two must
// agree bit for bit; with check, on >= 4 CPUs, the tier must also reach
// sweepBenchGate. Its rows are the tier's answers.
func benchSweep(ctx context.Context, hdr benchHeader, pf *programFlags, cfg cache.Config,
	workers int, check bool) (*sweepReport, []obs.CandidateProvenance, error) {

	var sizes []int64
	for s := int64(sweepBenchFrom); s <= sweepBenchTo; s += sweepBenchStep {
		sizes = append(sizes, s)
	}
	wcs, _, err := spec.Grid{CacheSizes: sizes, LineSizes: []int64{cfg.LineBytes}, Assocs: []int{cfg.Assoc}}.Expand(nil, cliLimits)
	if err != nil {
		return nil, nil, err
	}
	p, err := pf.load()
	if err != nil {
		return nil, nil, err
	}
	np, _, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return nil, nil, err
	}
	prepd, err := cme.Prepare(np, cme.Options{})
	if err != nil {
		return nil, nil, err
	}
	cands := spec.Solvers(wcs)
	lap := func(noGeom bool) ([]*cme.Report, time.Duration, error) {
		var reps []*cme.Report
		var err error
		d := timeBest(1, func() {
			reps, err = prepd.SolveBatch(ctx, cands, cme.BatchOptions{Workers: workers, NoGeom: noGeom})
		})
		return reps, d, err
	}
	greps, geomDur, err := lap(false)
	if err != nil {
		return nil, nil, fmt.Errorf("bench -sweep: geom run: %v", err)
	}
	freps, fusedDur, err := lap(true)
	if err != nil {
		return nil, nil, fmt.Errorf("bench -sweep: fused run: %v", err)
	}

	row := geomBenchRow{Name: "geom_closed_form", GeomNs: geomDur.Nanoseconds(), FusedNs: fusedDur.Nanoseconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Gated: check && runtime.GOMAXPROCS(0) >= 4}
	if geomDur > 0 {
		row.Speedup = float64(fusedDur) / float64(geomDur)
	}
	rep := &sweepReport{benchHeader: hdr, Exact: true, Candidates: len(cands), Workers: workers, GeomClosedForm: &row}
	var cprov []obs.CandidateProvenance
	for i, c := range cands {
		if err := sameCounts("bench -sweep: "+c.Label, freps[i], greps[i]); err != nil {
			return nil, nil, fmt.Errorf("geom tier diverged from the fused baseline: %w", err)
		}
		if g := greps[i].Geom; g != nil {
			if g.Closed() {
				row.ClosedCands++
			}
			if g.Anchor {
				row.AnchorCands++
			}
			row.FallthroughRefs += g.FallthroughRefs
		}
		r, cp := candidateRow(wcs[i], greps[i], nil)
		rep.Results = append(rep.Results, r)
		cprov = append(cprov, cp)
	}
	fmt.Fprintf(os.Stderr, "cachette bench -sweep: geom_closed_form %d/%d candidates closed (%d anchors, %d fall-through refs); geom %v vs fused %v (%.2fx)\n",
		row.ClosedCands, len(cands), row.AnchorCands, row.FallthroughRefs, geomDur, fusedDur, row.Speedup)
	if row.Gated && row.Speedup < sweepBenchGate {
		return nil, nil, fmt.Errorf("bench -sweep -check: speedup %.2fx below the %dx gate", row.Speedup, sweepBenchGate)
	}
	return rep, cprov, nil
}
