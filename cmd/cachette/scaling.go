package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/fparse"
	"cachemodel/internal/ir"
)

// maxLadder caps a size ladder (here and in sweep -sizes-from): ladders
// are sized arithmetically before they are materialised, so a huge range
// is an argument error rather than an allocation.
const maxLadder = 65536

// ladderFlags registers the size-ladder flags shared by `scaling` and
// `bench -scaling` and returns a closure producing the ladder.
func ladderFlags(fs *flag.FlagSet) func() ([]int64, error) {
	from := fs.Int64("from", 512, "smallest problem size of the ladder")
	to := fs.Int64("to", 1472, "largest problem size of the ladder")
	step := fs.Int64("step", 64, "ladder stride")
	ns := fs.String("ns", "", "explicit comma-separated size list (overrides -from/-to/-step)")
	return func() ([]int64, error) {
		if *ns != "" {
			var out []int64
			for _, s := range strings.Split(*ns, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad -ns entry %q: %v", s, err)
				}
				if v < 1 {
					return nil, fmt.Errorf("bad -ns entry %d: sizes must be >= 1", v)
				}
				out = append(out, v)
			}
			if len(out) > maxLadder {
				return nil, fmt.Errorf("size ladder has %d entries (max %d)", len(out), maxLadder)
			}
			return out, nil
		}
		if *from < 1 || *step <= 0 || *to < *from {
			return nil, fmt.Errorf("bad ladder: from %d to %d step %d (want 1 <= from <= to, step > 0)", *from, *to, *step)
		}
		count := (*to-*from)/(*step) + 1
		if count > maxLadder {
			return nil, fmt.Errorf("size ladder has %d entries (max %d)", count, maxLadder)
		}
		out := make([]int64, count)
		for i := range out {
			out[i] = *from + int64(i)*(*step)
		}
		return out, nil
	}
}

// scalingBuild returns the scaling tier's program family: a built-in
// workload parameterised by size, or a FORTRAN source whose size constant
// is rebound per instantiation.
func scalingBuild(file, consts, sizeConst, name string, iters int64) (cme.BuildFunc, error) {
	if file == "" {
		return func(n int64) (*ir.NProgram, error) {
			p, err := buildProgram(name, n, iters)
			if err != nil {
				return nil, err
			}
			np, _, err := prepare(p)
			return np, err
		}, nil
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return func(n int64) (*ir.NProgram, error) {
		cm := map[string]int64{strings.ToUpper(sizeConst): n}
		if consts != "" {
			for _, kv := range strings.Split(consts, ",") {
				parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("bad -const entry %q (want NAME=value)", kv)
				}
				v, err := strconv.ParseInt(parts[1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad -const value in %q: %v", kv, err)
				}
				cm[strings.ToUpper(parts[0])] = v
			}
		}
		p, err := fparse.Parse(string(src), cm)
		if err != nil {
			return nil, err
		}
		np, _, err := prepare(p)
		return np, err
	}, nil
}

// cmdScaling answers "how does the miss ratio scale with the problem
// size?" from one symbolic solve: the program family is lifted to
// piecewise quasi-polynomials in N and the ladder is answered by O(1)
// evaluation, with per-size fall-through for sizes the closed form cannot
// cover.
func cmdScaling(args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	name := fs.String("program", "tomcatv", "built-in program name")
	file := fs.String("file", "", "FORTRAN source file to analyse instead of a built-in")
	consts := fs.String("const", "", "fixed compile-time constants for -file, e.g. M=50")
	sizeConst := fs.String("size-const", "N", "the -file constant that carries the problem size")
	iters := fs.Int64("iters", 1, "outer iterations (whole programs)")
	cs, ls, assoc := cacheFlags(fs)
	ladder := ladderFlags(fs)
	workers := fs.Int("workers", 0, "parallel workers for the internal fit solves (0 = GOMAXPROCS)")
	perRef := fs.Bool("refs", false, "print the per-reference closed forms")
	plot := fs.Bool("plot", true, "print the miss-ratio-vs-N bar plot")
	fs.Parse(args)

	ns, err := ladder()
	if err != nil {
		return err
	}
	build, err := scalingBuild(*file, *consts, *sizeConst, *name, *iters)
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *cs, LineBytes: *ls, Assoc: *assoc}
	ctx, stop := signalContext()
	defer stop()

	start := time.Now()
	s, err := cme.PrepareScaling(build, cfg, cme.Options{Workers: *workers}, cme.ScalingOptions{})
	if err != nil {
		return err
	}
	reps, err := s.SolveLadder(ctx, ns)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	label := *name
	if *file != "" {
		label = *file
	}
	fmt.Printf("%s  scaling  cache %s\n", label, cfg)
	if !s.ClosedFormEligible() {
		fmt.Printf("  family not liftable (%s): every size solved by fall-through\n", s.Why())
	} else {
		st := s.Stats()
		fmt.Printf("  closed form: period %d, %d residue class(es) fitted with %d sample solve(s); %d O(1) eval(s), %d fall-through(s)\n",
			s.Period(), st.ResiduesFitted, st.FitSolves, st.ClosedEvals, st.Fallbacks)
	}
	fmt.Printf("  %8s %14s %14s %8s  %s\n", "N", "accesses", "misses", "%miss", "tier")
	var maxRatio float64
	for _, rep := range reps {
		if rep != nil && rep.MissRatio() > maxRatio {
			maxRatio = rep.MissRatio()
		}
	}
	for i, rep := range reps {
		if rep == nil {
			fmt.Printf("  %8d %14s %14s %8s  unsolved\n", ns[i], "-", "-", "-")
			continue
		}
		tier := "exact (fall-through)"
		if rep.Scaling.Closed() {
			tier = fmt.Sprintf("closed form (%d/%d refs)", rep.Scaling.ClosedRefs, rep.Scaling.TotalRefs)
		}
		bar := ""
		if *plot && maxRatio > 0 {
			bar = "  " + strings.Repeat("#", int(rep.MissRatio()/maxRatio*40+0.5))
		}
		fmt.Printf("  %8d %14d %14d %8.2f  %-24s%s\n",
			ns[i], rep.TotalAccesses(), rep.ExactMisses(), rep.MissRatio(), tier, bar)
	}
	fmt.Printf("  total time: %.3fs\n", elapsed.Seconds())
	if *perRef {
		printMissPolys(s)
	}
	return nil
}

// printMissPolys dumps the accumulated per-reference closed forms.
func printMissPolys(s *cme.ScalingSolver) {
	polys := s.MissPolys()
	if len(polys) == 0 {
		return
	}
	fmt.Printf("  per-reference closed forms (period %d):\n", s.Period())
	for _, mp := range polys {
		fmt.Printf("    %-28s |RIS| = %s\n", mp.RefID, mp.Volume)
		if mp.PureCold {
			fmt.Printf("    %-28s   pure cold: misses = |RIS|\n", "")
			continue
		}
		rs := make([]int64, 0, len(mp.Residues))
		for r := range mp.Residues {
			rs = append(rs, r)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for _, r := range rs {
			cls := mp.Residues[r]
			fmt.Printf("    %-28s   n≡%d: cold = %s, repl = %s  (n ≥ %d)\n",
				"", r, cls.Cold, cls.Repl, cls.Base)
		}
	}
}

// scalingRow is one ladder entry of BENCH_scaling.json.
type scalingRow struct {
	N          int64   `json:"n"`
	Accesses   int64   `json:"accesses"`
	Misses     int64   `json:"misses"`
	MissRatio  float64 `json:"miss_ratio_pct"`
	ClosedNs   int64   `json:"closed_ns"`
	ExactNs    int64   `json:"exact_ns"`
	ClosedForm bool    `json:"closed_form"`
	Match      bool    `json:"match"`
}

// scalingBenchReport is the BENCH_scaling.json document.
type scalingBenchReport struct {
	Program    string       `json:"program"`
	Cache      string       `json:"cache"`
	Iters      int64        `json:"iters"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Ladder     []int64      `json:"ladder"`
	Period     int64        `json:"period"`
	FitSolves  int64        `json:"fit_solves"`
	PrepNs     int64        `json:"symbolic_prep_ns"`
	ClosedNs   int64        `json:"symbolic_total_ns"` // prep + fits + all evals
	ExactNs    int64        `json:"per_size_total_ns"`
	Speedup    float64      `json:"speedup"`
	ClosedRefs int          `json:"closed_form_refs"`
	TotalRefs  int          `json:"total_refs"`
	Rows       []scalingRow `json:"rows"`
}

// benchScaling is `cachette bench -scaling`: one symbolic solve plus O(1)
// evaluations against per-size re-enumeration over the same ladder, with
// a bit-identity match check at every size.
func benchScaling(ctx context.Context, name, file, consts, sizeConst string, iters int64,
	cfg cache.Config, workers int, ns []int64, out string, check bool) error {

	build, err := scalingBuild(file, consts, sizeConst, name, iters)
	if err != nil {
		return err
	}
	opt := cme.Options{Workers: workers}

	// Symbolic lap: prepare (3 probes + volume lift), lazy fits, then one
	// O(1) evaluation per ladder size. EvalClosedCtx never enumerates a
	// ladder size — a size the closed form cannot cover stays unanswered
	// here and is flagged below rather than silently re-solved.
	t0 := time.Now()
	s, err := cme.PrepareScaling(build, cfg, opt, cme.ScalingOptions{})
	if err != nil {
		return err
	}
	prepNs := time.Since(t0).Nanoseconds()
	closed := make([]*cme.Report, len(ns))
	closedNs := make([]int64, len(ns))
	for i, n := range ns {
		e0 := time.Now()
		rep, ok, err := s.EvalClosedCtx(ctx, n)
		if err != nil {
			return err
		}
		closedNs[i] = time.Since(e0).Nanoseconds()
		if ok {
			closed[i] = rep
		}
	}
	symTotal := time.Since(t0).Nanoseconds()

	// Enumerating lap: the ordinary per-size pipeline, same worker count.
	exact := make([]*cme.Report, len(ns))
	exactNs := make([]int64, len(ns))
	x0 := time.Now()
	for i, n := range ns {
		e0 := time.Now()
		np, err := build(n)
		if err != nil {
			return err
		}
		a, err := cme.New(np, cfg, opt)
		if err != nil {
			return err
		}
		rep, err := a.FindMissesCtx(ctx, budget.Budget{})
		if err != nil {
			return err
		}
		exact[i], exactNs[i] = rep, time.Since(e0).Nanoseconds()
	}
	exactTotal := time.Since(x0).Nanoseconds()

	st := s.Stats()
	rep := scalingBenchReport{
		Program: name, Cache: cfg.String(), Iters: iters,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: workers,
		Ladder: ns, Period: s.Period(), FitSolves: st.FitSolves,
		PrepNs: prepNs, ClosedNs: symTotal, ExactNs: exactTotal,
	}
	if file != "" {
		rep.Program = file
	}
	if symTotal > 0 {
		rep.Speedup = float64(exactTotal) / float64(symTotal)
	}
	allMatch, allClosed := true, true
	for i, n := range ns {
		row := scalingRow{N: n, ClosedNs: closedNs[i], ExactNs: exactNs[i]}
		row.Accesses = exact[i].TotalAccesses()
		row.Misses = exact[i].ExactMisses()
		row.MissRatio = exact[i].MissRatio()
		if closed[i] != nil {
			row.ClosedForm = true
			row.Match = sameReportByID(exact[i], closed[i]) == nil
			if info := closed[i].Scaling; info != nil {
				rep.ClosedRefs, rep.TotalRefs = info.ClosedRefs, info.TotalRefs
			}
		}
		allMatch = allMatch && (!row.ClosedForm || row.Match)
		allClosed = allClosed && row.ClosedForm
		rep.Rows = append(rep.Rows, row)
	}

	if check {
		if !allClosed {
			return fmt.Errorf("bench -scaling -check: closed form did not cover the whole ladder (%s)", s.Why())
		}
		if !allMatch {
			for i, r := range rep.Rows {
				if !r.Match {
					return sameReportByID(exact[i], closed[i])
				}
			}
		}
		fmt.Fprintf(os.Stderr, "cachette bench -scaling: closed form bit-identical to the enumerating solver at all %d sizes (speedup %.1fx)\n",
			len(ns), rep.Speedup)
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out != "-" {
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette bench: wrote %s\n", out)
	}
	os.Stdout.Write(blob)
	return nil
}

// sameReportByID checks two exact reports for identical per-reference
// counts, matching references by ID (the scaling report's refs belong to
// the template instantiation, not the per-size program).
func sameReportByID(want, got *cme.Report) error {
	if len(want.Refs) != len(got.Refs) {
		return fmt.Errorf("bench -scaling: %d refs vs %d", len(got.Refs), len(want.Refs))
	}
	byID := map[string]*cme.RefReport{}
	for _, rr := range want.Refs {
		byID[rr.Ref.ID] = rr
	}
	for _, g := range got.Refs {
		w := byID[g.Ref.ID]
		if w == nil {
			return fmt.Errorf("bench -scaling: ref %s missing from the exact report", g.Ref.ID)
		}
		if w.Volume != g.Volume || w.Analyzed != g.Analyzed ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl {
			return fmt.Errorf("bench -scaling: ref %s diverged: closed {vol %d analyzed %d hits %d cold %d repl %d} exact {vol %d analyzed %d hits %d cold %d repl %d}",
				g.Ref.ID, g.Volume, g.Analyzed, g.Hits, g.Cold, g.Repl,
				w.Volume, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
	return nil
}
