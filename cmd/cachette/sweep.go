package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
	"cachemodel/internal/trace"
)

// sweepResult is one candidate row of BENCH_sweep.json.
type sweepResult struct {
	Label     string  `json:"label"`
	CacheSize int64   `json:"cache_bytes"`
	LineSize  int64   `json:"line_bytes"`
	Assoc     int     `json:"assoc"`
	Pad       int64   `json:"pad_elems,omitempty"`
	N         int64   `json:"n,omitempty"` // ladder sweeps: the problem size
	MissRatio float64 `json:"miss_ratio_pct"`
	Tier      string  `json:"tier,omitempty"`
	// ClosedForm marks a candidate answered entirely by the set-count
	// tier's closed form (no enumeration).
	ClosedForm bool    `json:"closed_form,omitempty"`
	SimRatio   float64 `json:"sim_miss_ratio_pct,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// sweepReport is the report of a sweep, and the BENCH_sweep.json document
// of bench -sweep: the design-space results, plus the batch-vs-independent
// timing of sweep -check or the geom_closed_form row of bench -sweep.
type sweepReport struct {
	benchHeader
	Exact      bool   `json:"exact"`
	Confidence string `json:"plan,omitempty"`
	Candidates int    `json:"candidates"`
	Workers    int    `json:"workers"`

	BatchNs       int64   `json:"batch_ns,omitempty"`
	IndependentNs int64   `json:"independent_ns,omitempty"`
	Speedup       float64 `json:"speedup_vs_independent,omitempty"`

	ResultCache    *cme.CacheStats `json:"result_cache,omitempty"`
	GeomClosedForm *geomBenchRow   `json:"geom_closed_form,omitempty"`
	Results        []sweepResult   `json:"results"`
}

// cmdSweep evaluates a cache design space — size × line × associativity,
// optionally crossed with inter-array paddings — against one program in a
// single SolveBatch run over the geometry-invariant Prepared stage, prints
// a table and writes a JSON report to -out when it is set. With -check
// every candidate is also solved by an independent classic pipeline run
// (fresh normalise + New + solve), the reports are verified bit-identical,
// and the batch-vs-independent speedup is recorded; the command fails if
// the batch is slower. With a problem-size ladder (-from/-to/-step or -ns)
// every geometry is answered at every ladder size by the closed-form
// problem-size tier instead.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	pf := addProgramFlags(fs, "hydro", 32, 2)
	gf := addGridFlags(fs)
	sizesFrom := fs.Int64("sizes-from", 0, "generate a cache-size ladder from this many bytes (with -sizes-to/-sizes-step; replaces -sizes)")
	sizesTo := fs.Int64("sizes-to", 0, "ladder upper bound in bytes, inclusive")
	sizesStep := fs.Int64("sizes-step", 0, "ladder step in bytes")
	ladder := ladderFlags(fs)
	sizeConst := fs.String("size-const", "N", "with a ladder and -file: the constant that carries the problem size")
	perRef := fs.Bool("refs", false, "with a ladder: print the per-reference closed forms")
	exact := fs.Bool("exact", false, "solve every candidate exactly (FindMisses tier) instead of sampling; a ladder needs it")
	conf := fs.Float64("c", spec.DefaultConfidence, "confidence level for the sampled tier")
	width := fs.Float64("w", spec.DefaultWidth, "confidence interval half-width for the sampled tier")
	adaptive := fs.Bool("adaptive", false, "sampled tier: variance-driven early stopping (Wilson interval)")
	noSymbolic := fs.Bool("nosymbolic", false, "disable the symbolic region fast path (classify every point)")
	workers := fs.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
	check := fs.Bool("check", false, "re-solve every candidate independently, verify bit-identical reports, and gate on the speedup")
	sim := fs.Bool("sim", false, "add an exact-simulator column (slow; display only)")
	rcFile := fs.String("resultcache", "", "load/save the content-addressed result cache at this path")
	out := fs.String("out", "-", "output path for the JSON report (- = write no report)")
	pstart, pstop, prof := profileFlags(fs)
	oflags := obsFlags(fs)
	fs.Parse(args)

	grid, err := gf.grid()
	if err != nil {
		return err
	}
	if *sizesFrom > 0 {
		l := spec.Ladder{From: *sizesFrom, To: *sizesTo, Step: *sizesStep}
		if grid.CacheSizes, err = l.Sizes(cliLimits); err != nil {
			return fmt.Errorf("sweep: -sizes-from: %v", err)
		}
	}
	if len(grid.CacheSizes) == 0 || len(grid.LineSizes) == 0 || len(grid.Assocs) == 0 {
		return fmt.Errorf("sweep: empty candidate grid")
	}
	lad, err := ladder()
	if err != nil {
		return err
	}
	// A flag the chosen mode ignores is an error, not a silent no-op.
	var hasLadder bool
	var gridOnly, ladderOnly []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "from", "to", "step", "ns":
			hasLadder = true
		case "size", "pad-array", "pads", "sim", "check":
			gridOnly = append(gridOnly, "-"+f.Name)
		case "size-const", "refs":
			ladderOnly = append(ladderOnly, "-"+f.Name)
		}
	})
	var sizes *spec.Ladder
	switch {
	case hasLadder && len(gridOnly) > 0:
		return fmt.Errorf("sweep: %s mean nothing with a problem-size ladder", strings.Join(gridOnly, ", "))
	case hasLadder && !*exact:
		return fmt.Errorf("sweep: a problem-size ladder needs -exact (the closed form is exact)")
	case hasLadder:
		sizes = &lad
	case len(ladderOnly) > 0:
		return fmt.Errorf("sweep: %s need a problem-size ladder (-from/-to/-step or -ns)", strings.Join(ladderOnly, ", "))
	}
	// Invalid geometries stay in the grid: SolveBatch records them as
	// per-candidate errors, so the JSON report carries the whole grid
	// instead of silently dropping rows.
	wcs, ns, err := grid.Expand(sizes, cliLimits)
	if err != nil {
		return err
	}

	or, err := oflags.start("sweep")
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	ctx = or.Context(ctx)
	hdr := pf.header("sweep", args)
	var rc *cme.ResultCache
	if *rcFile != "" {
		rc = cme.NewResultCache(0)
		if err := rc.Load(*rcFile); err != nil {
			return err
		}
	}

	if ns != nil {
		fam, err := pf.family(*sizeConst)
		if err != nil {
			return err
		}
		opt := cme.Options{NoSymbolic: *noSymbolic, Workers: *workers, ProfileLabels: prof()}
		if err := pstart(); err != nil {
			return err
		}
		rep, cprov, err := sweepLadder(ctx, hdr, fam, wcs, ns, opt, rc, *perRef)
		if perr := pstop(); err == nil {
			err = perr
		}
		if err == nil && rc != nil {
			s := rc.Stats()
			rep.ResultCache = &s
			err = rc.Save(*rcFile)
		}
		if err != nil {
			return err
		}
		return writeSweep(ctx, or, rep, *out, cprov)
	}

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
	cands := spec.Solvers(wcs)

	opt := cme.Options{Adaptive: *adaptive, NoSymbolic: *noSymbolic, ProfileLabels: prof()}
	plan, err := spec.Plan(*exact, *conf, *width)
	if err != nil {
		return err
	}
	if err := pstart(); err != nil {
		return err
	}

	// The batch run: one Prepare, one SolveBatch over the whole grid. A
	// *cme.BatchError means some candidates failed while the rest solved:
	// the report is still written — with each failure recorded on its row —
	// and the command exits non-zero at the end.
	t0 := time.Now()
	prepd, err := cme.Prepare(np, opt)
	if err != nil {
		return err
	}
	reps, err := prepd.SolveBatch(ctx, cands, cme.BatchOptions{Plan: plan, Cache: rc, Workers: *workers})
	batchNs := time.Since(t0).Nanoseconds()
	if perr := pstop(); perr != nil {
		return perr
	}
	var berr *cme.BatchError
	if err != nil && !errors.As(err, &berr) {
		return err
	}

	rep := sweepReport{benchHeader: hdr, Exact: *exact, Candidates: len(cands), Workers: *workers,
		BatchNs: batchNs}
	if plan != nil {
		rep.Confidence = fmt.Sprintf("c=%g w=%g", plan.C, plan.W)
	}
	if rc != nil {
		s := rc.Stats()
		rep.ResultCache = &s
		if err := rc.Save(*rcFile); err != nil {
			return err
		}
	}

	// -check: solve every candidate with the classic per-candidate pipeline
	// — fresh front end, fresh analyzer — verify bit-identity, and time it.
	if *check {
		t1 := time.Now()
		checked := 0
		for i, c := range cands {
			if reps[i] == nil {
				continue // failed candidate; its error is recorded on the row
			}
			want, err := soloSolve(pf, c, opt, plan)
			if err != nil {
				return fmt.Errorf("sweep -check: %s: %v", c.Label, err)
			}
			if err := sameCounts("sweep -check: "+c.Label, want, reps[i]); err != nil {
				return err
			}
			checked++
		}
		indepNs := time.Since(t1).Nanoseconds()
		rep.IndependentNs = indepNs
		if batchNs > 0 {
			rep.Speedup = float64(indepNs) / float64(batchNs)
		}
		fmt.Fprintf(os.Stderr, "cachette sweep: %d candidates bit-identical; batch %v vs independent %v (%.2fx)\n",
			checked, time.Duration(batchNs), time.Duration(indepNs), rep.Speedup)
		if indepNs < batchNs {
			return fmt.Errorf("sweep -check: batch solve slower than %d independent runs (%v > %v)",
				len(cands), time.Duration(batchNs), time.Duration(indepNs))
		}
	}

	fmt.Printf("%s — cache design sweep (%d candidates, one batch)\n", p.Name, len(cands))
	fmt.Printf("%10s %6s %6s %8s %10s %6s %10s\n", "size", "line", "assoc", "pad", "est %MR", "tier", "sim %MR")
	var cprov []obs.CandidateProvenance
	for i, c := range cands {
		var cerr error
		if berr != nil {
			cerr = berr.Errs[i]
		}
		row, cp := candidateRow(wcs[i], reps[i], cerr)
		if reps[i] == nil {
			fmt.Printf("%10d %6d %6d %8d %29s\n",
				c.Config.SizeBytes, c.Config.LineBytes, c.Config.Assoc, wcs[i].Pad, "error: "+row.Error)
		} else {
			simCol := "-"
			if *sim {
				sr, err := simulateUnder(pf, c)
				if err != nil {
					return err
				}
				row.SimRatio = sr
				simCol = fmt.Sprintf("%10.2f", sr)
			}
			fmt.Printf("%10d %6d %6d %8d %10.2f %6s %10s\n",
				c.Config.SizeBytes, c.Config.LineBytes, c.Config.Assoc, wcs[i].Pad, row.MissRatio, row.Tier, simCol)
		}
		rep.Results = append(rep.Results, row)
		cprov = append(cprov, cp)
	}

	if err := writeSweep(ctx, or, &rep, *out, cprov); err != nil {
		return err
	}
	// Per-candidate failures surface after the report is on disk: scripts
	// get the full grid either way, and the exit status still says "look".
	if berr != nil {
		return berr
	}
	return nil
}

// writeSweep writes the JSON report to out ("-" writes no file) and
// finishes the run report.
func writeSweep(ctx context.Context, or *obsRun, rep *sweepReport, out string, cprov []obs.CandidateProvenance) error {
	if err := writeReport(out, rep, nil); err != nil {
		return err
	}
	return or.finish(ctx, rep.Program, nil, cprov)
}

// candidateRow is one grid candidate's report row and run-report
// provenance: its geometry and pad, then its answer r, or, when r is nil,
// the error err that failed it.
func candidateRow(wc spec.Candidate, r *cme.Report, err error) (sweepResult, obs.CandidateProvenance) {
	row := sweepResult{Label: wc.Label, CacheSize: wc.CacheBytes, LineSize: wc.LineBytes, Assoc: wc.Assoc, Pad: wc.Pad}
	cp := obs.CandidateProvenance{Label: wc.Label}
	if r == nil {
		if err != nil {
			row.Error = err.Error()
			cp.Error = row.Error
		}
		return row, cp
	}
	row.MissRatio, row.Tier, row.ClosedForm = r.MissRatio(), r.Tier.String(), r.Geom.Closed()
	cp.Tier, cp.Degraded, cp.MissRatioPct = row.Tier, r.Degraded, row.MissRatio
	return row, cp
}

// soloSolve runs the classic per-candidate pipeline from scratch — load,
// front end with the candidate's padding, analyse — the baseline the
// batch solver is measured and verified against.
func soloSolve(pf *programFlags, c cme.Candidate, opt cme.Options, plan *sampling.Plan) (*cme.Report, error) {
	np, err := loadUnder(pf, c)
	if err != nil {
		return nil, err
	}
	a, err := cme.New(np, c.Config, opt)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return a.FindMisses(), nil
	}
	return a.EstimateMisses(*plan)
}

// simulateUnder replays the exact simulator for one candidate on a fresh
// build of the program (simulation is display-only and documented slow, so
// a rebuild per candidate keeps the layout handling trivially correct).
func simulateUnder(pf *programFlags, c cme.Candidate) (float64, error) {
	np, err := loadUnder(pf, c)
	if err != nil {
		return 0, err
	}
	return trace.Simulate(np, c.Config).MissRatio(), nil
}

// loadUnder builds the program afresh under the candidate's layout.
func loadUnder(pf *programFlags, c cme.Candidate) (*ir.NProgram, error) {
	p, err := pf.load()
	if err != nil {
		return nil, err
	}
	fe := spec.FrontEnd{}
	if c.Layout != nil {
		fe.Layout = *c.Layout
	}
	np, _, err := fe.Run(p)
	return np, err
}
