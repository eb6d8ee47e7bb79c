// Command cachette is the front end of the whole-program analytical cache
// model: it analyses the built-in workloads (the paper's kernels and whole
// programs), validates the analysis against the exact LRU simulator, and
// regenerates every table of the paper's evaluation.
//
// Usage:
//
//	cachette <subcommand> [flags]
//
// `cachette -h` lists every subcommand; `cachette <subcommand> -h` lists
// its flags.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"cachemodel/internal/advisor"
	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/experiments"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
	"cachemodel/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "obscheck":
		err = cmdObscheck(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "dist":
		err = cmdDist(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "list":
		err = cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachette:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cachette — analytical whole-program cache behaviour (Vera & Xue, HPCA 2002)

subcommands:
  analyze      run EstimateMisses (or -exact FindMisses) on a built-in program or -file prog.f
  simulate     run the exact LRU cache simulator on a built-in program
  experiments  regenerate the paper's tables (2-7)
  show         print the normalised form and reuse-vector summary
  diagnose     attribute predicted misses to interfering arrays
  sweep        sweep cache size/line/assoc, analytical vs simulated; with a size ladder,
               misses as a function of problem size N from a few fitted sample solves
  trace        emit the program's memory reference trace (R/W address lines)
  bench        time the solver variants, or with -scaling, -sweep or -dist another layer, on one fixture;
               only a pinned command line writes its BENCH_*.json (README "Parallel & profiled runs")
  obscheck     validate a run-report JSON written by -obs-out (or, with -trace, a trace-event JSON)
  serve        run the multi-tenant analysis server (HTTP/JSON + SSE + /metrics)
  dist         distributed sweeps: 'coordinate' shards work units to leased workers, 'work' solves them
  top          live fleet view of a dist coordinator: sweeps, queue depth, workers, stragglers
  list         list the built-in programs

requests (the same words as the JSON of serve and dist; README "Requests"):
  -program NAME | -file prog.f [-const N=100,M=50]   a built-in (cachette list), or FORTRAN and its constants
  -size, -iters                                       problem size, outer iterations
  -sizes, -lines, -assocs [-pad-array A -pads 0,8]    cache grid: size × line × assoc × pad, in that order
  -from -to -step | -ns [-size-const N]               size ladder (sweep -exact: every geometry × every N)
  -c, -w                                              sampled-tier confidence and width (0.95, 0.05)

observability (analyze, bench, sweep):
  -v             throttled progress lines on stderr
  -metrics-addr  live Prometheus /metrics + /debug/pprof + /debug/vars endpoint
  -obs-out       run-report JSON: per-stage spans, solver counters, provenance
`)
}

func cmdList() error {
	fmt.Println("whole programs (-program, -size, -iters):")
	fmt.Printf("  %-10s %s\n", "tomcatv", "SPECfp95 Tomcatv model; -size = N, -iters = time steps")
	fmt.Printf("  %-10s %s\n", "swim", "SPECfp95 Swim model (CALC1/2/3 calls); -size = N, -iters = cycles")
	fmt.Printf("  %-10s %s\n", "applu", "SPECfp95 Applu model (SSOR, 16 subroutines); -size = N, -iters = itmax")
	fmt.Printf("  %-10s %s\n", "vcycle", "3-level multigrid V-cycle (R-able + sequence-associated calls); -size = N (mult. of 4, >= 16)")
	fmt.Println("kernels (-program, -size):")
	for _, spec := range kernels.Suite() {
		exact := ""
		if spec.Uniform {
			exact = " [exactly analysable]"
		}
		fmt.Printf("  %-10s %s%s\n", spec.Name, spec.Description, exact)
	}
	return nil
}

func cacheFlags(fs *flag.FlagSet) (cs, ls *int64, assoc *int) {
	cs = fs.Int64("cache", 32*1024, "cache size in bytes")
	ls = fs.Int64("line", 32, "line size in bytes")
	assoc = fs.Int("assoc", 1, "associativity (1 = direct mapped)")
	return
}

// budgetFlags registers the analysis-budget flags shared by the budgeted
// subcommands.
func budgetFlags(fs *flag.FlagSet) (timeout *time.Duration, maxPoints, maxScan *int64, fallback *bool) {
	timeout = fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms (0 = unlimited)")
	maxPoints = fs.Int64("max-points", 0, "budget: max classified iteration points (0 = unlimited)")
	maxScan = fs.Int64("max-scan", 0, "budget: max interference-scan steps (0 = unlimited)")
	fallback = fs.Bool("fallback", true, "on budget exhaustion degrade to cheaper tiers instead of failing")
	return
}

// signalContext returns a context cancelled by Ctrl-C or SIGTERM, so an
// interactive interrupt — or a supervisor's shutdown — yields the partial
// result (and, for serve, a graceful drain) instead of killing the
// process mid-write.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// printProvenance reports which tier produced the result and what the
// budget cost, whenever a budget was in play or the analysis degraded.
func printProvenance(rep *cme.Report, limited bool) {
	if !limited && !rep.Degraded {
		return
	}
	fmt.Printf("  tier: %s   degraded: %v   point coverage: %.1f%% (%d/%d refs complete)\n",
		rep.Tier, rep.Degraded, 100*rep.Coverage(), rep.CompleteRefs(), len(rep.Refs))
	if limited {
		s := rep.BudgetSpent
		fmt.Printf("  budget spent: %s wall, %d points, %d scan steps, %d checkpoints\n",
			s.Wall.Round(time.Microsecond), s.Points, s.Scan, s.Checkpoints)
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 32, 2)
	cs, ls, assoc := cacheFlags(fs)
	exact := fs.Bool("exact", false, "run FindMisses (every point) instead of EstimateMisses")
	conf := fs.Float64("c", spec.DefaultConfidence, "confidence level for EstimateMisses")
	width := fs.Float64("w", spec.DefaultWidth, "confidence interval half-width")
	perRef := fs.Bool("refs", false, "print the per-reference breakdown")
	nonUniform := fs.Bool("nonuniform", false, "resolve non-uniformly generated reuse (§8 future work)")
	workers := fs.Int("workers", 0, "parallel classification workers (0 = GOMAXPROCS, 1 = sequential)")
	noMemo := fs.Bool("nomemo", false, "disable the interference-walk verdict memo")
	noSymbolic := fs.Bool("nosymbolic", false, "disable the symbolic region fast path (classify every point)")
	timeout, maxPoints, maxScan, fallback := budgetFlags(fs)
	pstart, pstop, prof := profileFlags(fs)
	oflags := obsFlags(fs)
	fs.Parse(args)

	or, err := oflags.start("analyze")
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	ctx = or.Context(ctx)

	_, pspan := obs.StartSpan(ctx, "parse")
	p, err := pf.load()
	pspan.End()
	if err != nil {
		return err
	}
	_, prspan := obs.StartSpan(ctx, "prepare")
	np, _, err := spec.FrontEnd{}.Run(p)
	prspan.End()
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	_, rspan := obs.StartSpan(ctx, "reuse")
	a, err := cme.New(np, cfg, cme.Options{
		Reuse:         reuse.Options{NonUniform: *nonUniform},
		Workers:       *workers,
		NoMemo:        *noMemo,
		NoSymbolic:    *noSymbolic,
		ProfileLabels: prof(),
	})
	rspan.End()
	if err != nil {
		return err
	}
	b := budget.Budget{Deadline: *timeout, MaxPoints: *maxPoints, MaxScan: *maxScan, NoFallback: !*fallback}
	if err := pstart(); err != nil {
		return err
	}
	var rep *cme.Report
	var ierr error
	if *exact {
		rep, ierr = a.FindMissesCtx(ctx, b)
	} else {
		rep, ierr = a.EstimateMissesCtx(ctx, b, sampling.Plan{C: *conf, W: *width})
	}
	if perr := pstop(); perr != nil {
		return perr
	}
	if rep == nil {
		return ierr
	}
	mode := "EstimateMisses"
	if *exact {
		mode = "FindMisses"
	}
	fmt.Printf("%s  %s  cache %s\n", p.Name, mode, cfg)
	fmt.Printf("  references: %d   accesses: %d\n", len(rep.Refs), rep.TotalAccesses())
	fmt.Printf("  miss ratio: %.2f%%   estimated misses: %.0f   time: %.3fs\n",
		rep.MissRatio(), rep.EstimatedMisses(), rep.Elapsed.Seconds())
	printProvenance(rep, !b.IsZero() || ierr != nil)
	if ierr != nil {
		fmt.Printf("  analysis interrupted: %v (figures above cover the analysed part)\n", ierr)
	}
	if *perRef {
		sort.Slice(rep.Refs, func(i, j int) bool {
			return rep.Refs[i].MissRatio() > rep.Refs[j].MissRatio()
		})
		fmt.Printf("  %-28s %10s %10s %8s %8s %8s\n", "reference", "|RIS|", "analyzed", "%miss", "cold", "repl")
		for _, rr := range rep.Refs {
			fmt.Printf("  %-28s %10d %10d %8.2f %8d %8d\n",
				rr.Ref.ID, rr.Volume, rr.Analyzed, 100*rr.MissRatio(), rr.Cold, rr.Repl)
		}
	}
	if err := or.finish(ctx, p.Name, rep, nil); err != nil {
		return err
	}
	// A partial (interrupted, non-degraded) analysis exits non-zero so
	// scripts can tell it from a completed one.
	return ierr
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 32, 2)
	cs, ls, assoc := cacheFlags(fs)
	workers := fs.Int("workers", 1, "set-sharded parallel replay workers (0 = GOMAXPROCS, 1 = sequential)")
	timeout, maxPoints, maxScan, _ := budgetFlags(fs)
	pstart, pstop, _ := profileFlags(fs)
	fs.Parse(args)

	p, err := pf.load()
	if err != nil {
		return err
	}
	np, _, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	ctx, stop := signalContext()
	defer stop()
	if err := pstart(); err != nil {
		return err
	}
	b := budget.Budget{Deadline: *timeout, MaxPoints: *maxPoints, MaxScan: *maxScan}
	var res *trace.SimResult
	var ierr error
	if *workers == 1 {
		res, ierr = trace.SimulateCtx(ctx, np, cfg, b)
	} else {
		res, ierr = trace.SimulateShardedCtx(ctx, np, cfg, cache.FetchOnWrite, b, *workers)
	}
	if perr := pstop(); perr != nil {
		return perr
	}
	if res == nil {
		return ierr
	}
	fmt.Printf("%s  simulator  cache %s\n", p.Name, cfg)
	fmt.Printf("  accesses: %d   misses: %d   miss ratio: %.2f%%\n",
		res.Accesses, res.Misses, res.MissRatio())
	if res.Truncated {
		fmt.Printf("  simulation truncated: %v (counts cover the replayed prefix)\n", ierr)
		return ierr
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	table := fs.Int("table", 0, "table number (2-7); 0 with -all runs everything")
	all := fs.Bool("all", false, "run every table")
	scaleName := fs.String("scale", "quick", "problem scale: quick, medium or paper")
	shrink := fs.Int64("shrink", 4, "Table 7 size divisor (1 = the paper's N of 200/400)")
	fs.Parse(args)

	sc, ok := experiments.Scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	w := os.Stdout
	if *all || *table == 0 {
		return experiments.Summary(w, sc, *shrink)
	}
	switch *table {
	case 2:
		experiments.FormatTable2(w, experiments.RunTable2())
	case 3:
		rows, err := experiments.RunTable3(sc)
		if err != nil {
			return err
		}
		experiments.FormatTable3(w, rows)
	case 4:
		rows, err := experiments.RunTable4(sc)
		if err != nil {
			return err
		}
		experiments.FormatTable4(w, rows)
	case 5:
		rows, err := experiments.RunTable5(sc)
		if err != nil {
			return err
		}
		experiments.FormatTable5(w, rows)
	case 6:
		rows, err := experiments.RunTable6(sc)
		if err != nil {
			return err
		}
		experiments.FormatTable6(w, rows)
	case 7:
		rows, err := experiments.RunTable7(*shrink, experiments.Table7Configs)
		if err != nil {
			return err
		}
		experiments.FormatTable7(w, rows)
	default:
		return fmt.Errorf("no table %d (the paper has tables 2-7)", *table)
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 8, 1)
	vectors := fs.Bool("vectors", false, "print every reuse vector")
	fs.Parse(args)

	p, err := pf.load()
	if err != nil {
		return err
	}
	np, st, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return err
	}
	fmt.Printf("%s: normalised to depth %d, %d statements, %d references, %d arrays\n",
		p.Name, np.Depth, len(np.Stmts), len(np.Refs), len(np.Arrays))
	fmt.Printf("inlining: %d calls (%d inlined, %d system), actuals P/R/N = %d/%d/%d\n",
		st.Calls, st.Inlined, st.SystemCalls, st.PAble, st.RAble, st.NAble)
	for _, s := range np.Stmts {
		fmt.Printf("  %-8s %v guards=%d refs=%d\n", s.Name, s.IterationVector(), len(s.Guards), len(s.Refs))
	}
	vecs := reuse.Generate(np, cache.Default32K(1), reuse.Options{})
	total := 0
	for _, vs := range vecs {
		total += len(vs)
	}
	fmt.Printf("reuse vectors: %d total over %d references\n", total, len(np.Refs))
	if *vectors {
		for _, r := range np.Refs {
			for _, v := range vecs[r] {
				fmt.Printf("  %v\n", v)
			}
		}
	}
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 32, 2)
	cs, ls, assoc := cacheFlags(fs)
	top := fs.Int("top", 10, "interference pairs to print")
	fs.Parse(args)

	ctx, stop := signalContext()
	defer stop()
	p, err := pf.load()
	if err != nil {
		return err
	}
	np, _, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	d, ierr := advisor.DiagnoseCtx(ctx, np, cfg, cme.Options{},
		sampling.Plan{C: spec.DefaultConfidence, W: spec.DefaultWidth}, budget.Budget{})
	if d == nil {
		return ierr
	}
	fmt.Printf("%s  diagnosis  cache %s  (%.3fs)\n", p.Name, cfg, d.Elapsed.Seconds())
	fmt.Printf("  miss ratio %.2f%%  (cold %.0f, replacement %.0f of %.0f accesses)\n",
		d.MissRatio(), d.Cold, d.Repl, d.Accesses)
	fmt.Printf("  self-interference share of replacement misses: %.0f%%\n", 100*d.SelfInterference)
	fmt.Printf("  heaviest interference pairs (victim <- interferer):\n")
	for _, cell := range d.Top(*top) {
		fmt.Printf("    %-10s <- %-10s %12.0f contentions\n",
			cell.Victim.Name, cell.Interferer.Name, cell.Contentions)
	}
	if ierr != nil {
		fmt.Printf("  diagnosis interrupted: %v (figures above cover the analysed part)\n", ierr)
	}
	return ierr
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 16, 1)
	out := fs.String("out", "-", "output path (default stdout)")
	limit := fs.Int64("limit", 0, "stop after this many accesses (0 = all)")
	fs.Parse(args)

	p, err := pf.load()
	if err != nil {
		return err
	}
	np, _, err := spec.FrontEnd{}.Run(p)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	var n int64
	trace.Execute(np, func(r *ir.NRef, idx []int64) bool {
		kind := byte('R')
		if r.Write {
			kind = 'W'
		}
		fmt.Fprintf(bw, "%c %d\n", kind, r.AddressAt(idx))
		n++
		return *limit == 0 || n < *limit
	})
	fmt.Fprintf(os.Stderr, "cachette: wrote %d accesses\n", n)
	return nil
}
