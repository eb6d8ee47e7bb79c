package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/spec"
)

// sweepLadder is `sweep` with a problem-size ladder: "how does the miss
// ratio scale with the problem size?" for every geometry of the grid, as
// one cme.SolveSurface. Each geometry fits the program family's
// per-reference counts as polynomials of N per residue class and answers
// each ladder size by one |RIS| count per reference plus evaluation, with
// per-size fall-through for sizes the closed form cannot cover; every
// exact solve runs once per size for all the geometries that need it,
// through rc when it is non-nil. Rows come in grid order, then ladder
// order.
func sweepLadder(ctx context.Context, label string, fam *spec.Family, wcs []spec.Candidate, ns []int64,
	opt cme.Options, rc *cme.ResultCache, perRef bool) (*sweepReport, []obs.CandidateProvenance, error) {

	rep := &sweepReport{Program: label, Iters: fam.Iters, Exact: true,
		Candidates: len(wcs) * len(ns), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: opt.Workers}
	var cprov []obs.CandidateProvenance
	start := time.Now()
	geoms := spec.Solvers(wcs)
	reps, solvers, err := cme.SolveSurface(ctx, fam.Build, geoms, ns, opt, cme.BatchOptions{Cache: rc, Workers: opt.Workers})
	if err != nil {
		return nil, nil, err
	}
	for gi, g := range geoms {
		s, rows := solvers[gi], reps[gi*len(ns):(gi+1)*len(ns)]
		printLadder(label, g.Config, s, ns, rows)
		if perRef {
			printMissPolys(s)
		}
		for i, r := range rows {
			row := sweepResult{Label: spec.LadderLabel(g.Label, ns[i]), N: ns[i], CacheSize: g.Config.SizeBytes,
				LineSize: g.Config.LineBytes, Assoc: g.Config.Assoc,
				MissRatio: r.MissRatio(), Tier: r.Tier.String(), ClosedForm: r.Scaling.Closed()}
			rep.Results = append(rep.Results, row)
			cprov = append(cprov, obs.CandidateProvenance{Label: row.Label, Tier: row.Tier,
				Degraded: r.Degraded, MissRatioPct: row.MissRatio})
		}
	}
	rep.BatchNs = time.Since(start).Nanoseconds()
	fmt.Printf("  total time: %.3fs\n", time.Duration(rep.BatchNs).Seconds())
	return rep, cprov, nil
}

// printLadder prints one geometry's ladder: the closed-form summary, then
// per size the counts, the tier that produced them and a miss-ratio bar.
func printLadder(label string, cfg cache.Config, s *cme.ScalingSolver, ns []int64, reps []*cme.Report) {
	fmt.Printf("%s  ladder  cache %s\n", label, cfg)
	if !s.ClosedFormEligible() {
		fmt.Printf("  family not liftable (%s): every size solved by fall-through\n", s.Why())
	} else {
		st := s.Stats()
		fmt.Printf("  closed form: period %d, %d residue class(es) fitted with %d sample solve(s); %d closed eval(s), %d fall-through(s)\n",
			s.Period(), st.ResiduesFitted, st.FitSolves, st.ClosedEvals, st.Fallbacks)
	}
	fmt.Printf("  %8s %14s %14s %8s  %s\n", "N", "accesses", "misses", "%miss", "tier")
	var maxRatio float64
	for _, rep := range reps {
		maxRatio = max(maxRatio, rep.MissRatio())
	}
	for i, rep := range reps {
		tier := "exact (fall-through)"
		if rep.Scaling.Closed() {
			tier = fmt.Sprintf("closed form (%d/%d refs)", rep.Scaling.ClosedRefs, rep.Scaling.TotalRefs)
		}
		bar := ""
		if maxRatio > 0 {
			bar = "  " + strings.Repeat("#", int(rep.MissRatio()/maxRatio*40+0.5))
		}
		fmt.Printf("  %8d %14d %14d %8.2f  %-24s%s\n",
			ns[i], rep.TotalAccesses(), rep.ExactMisses(), rep.MissRatio(), tier, bar)
	}
}

// printMissPolys dumps the accumulated per-reference closed forms: per
// fitted residue class, the reference's |RIS| and its miss counters.
func printMissPolys(s *cme.ScalingSolver) {
	polys := s.MissPolys()
	if len(polys) == 0 {
		return
	}
	fmt.Printf("  per-reference closed forms (period %d):\n", s.Period())
	for _, mp := range polys {
		rs := make([]int64, 0, len(mp.Residues))
		for r := range mp.Residues {
			rs = append(rs, r)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for i, r := range rs {
			id := ""
			if i == 0 {
				id = mp.RefID
			}
			cls := mp.Residues[r]
			fmt.Printf("    %-28s n≡%d: |RIS| = %s, cold = %s, repl = %s  (n ≥ %d)\n",
				id, r, cls.Analyzed, cls.Cold, cls.Repl, cls.Base)
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

// benchScaling is `cachette bench -scaling`: one symbolic solve plus one
// closed-form evaluation per size against per-size re-enumeration over the
// same ladder, with a bit-identity match check at every size.
func benchScaling(ctx context.Context, program string, fam *spec.Family,
	cfg cache.Config, workers int, ns []int64, out string, check bool) error {

	opt := cme.Options{Workers: workers}

	// Symbolic lap: prepare (3 probes + affine lift), lazy fits, then one
	// closed-form evaluation per ladder size. EvalClosedCtx never
	// enumerates a ladder size — a size the closed form cannot cover stays
	// unanswered here and is flagged below rather than silently re-solved.
	t0 := time.Now()
	s, err := cme.PrepareScaling(fam.Build, cfg, opt, cme.ScalingOptions{})
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
		np, err := fam.Build(n)
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
		Program: program, Cache: cfg.String(), Iters: fam.Iters,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: workers,
		Ladder: ns, Period: s.Period(), FitSolves: st.FitSolves,
		PrepNs: prepNs, ClosedNs: symTotal, ExactNs: exactTotal,
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
			row.Match = sameCounts("", exact[i], closed[i]) == nil
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
					return sameCounts(fmt.Sprintf("bench -scaling: N=%d", r.N), exact[i], closed[i])
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
