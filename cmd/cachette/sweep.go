package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/layout"
	"cachemodel/internal/obs"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

// sweepResult is one candidate row of BENCH_sweep.json.
type sweepResult struct {
	Label     string  `json:"label"`
	CacheSize int64   `json:"cache_bytes"`
	LineSize  int64   `json:"line_bytes"`
	Assoc     int     `json:"assoc"`
	Pad       int64   `json:"pad_elems,omitempty"`
	MissRatio float64 `json:"miss_ratio_pct"`
	Tier      string  `json:"tier,omitempty"`
	// ClosedForm marks a candidate answered entirely by the
	// geometry-parametric tier's O(1) evaluation (no enumeration).
	ClosedForm bool    `json:"closed_form,omitempty"`
	SimRatio   float64 `json:"sim_miss_ratio_pct,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// geomBenchRow is the geom_closed_form entry of BENCH_sweep.json: the
// same exact grid solved with the geometry-parametric tier on and off
// (the fused batch baseline), bit-identity verified, speedup gated in CI.
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

// sweepReport is the BENCH_sweep.json document: the design-space results
// plus the batch-vs-independent timing the CI perf gate checks.
type sweepReport struct {
	Program    string `json:"program"`
	Size       int64  `json:"size"`
	Iters      int64  `json:"iters"`
	Exact      bool   `json:"exact"`
	Confidence string `json:"plan,omitempty"`
	Candidates int    `json:"candidates"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`

	BatchNs       int64   `json:"batch_ns"`
	IndependentNs int64   `json:"independent_ns,omitempty"`
	Speedup       float64 `json:"speedup_vs_independent,omitempty"`

	ResultCache    *cme.CacheStats `json:"result_cache,omitempty"`
	GeomClosedForm *geomBenchRow   `json:"geom_closed_form,omitempty"`
	Results        []sweepResult   `json:"results"`
}

// cmdSweep evaluates a cache design space — size × line × associativity,
// optionally crossed with inter-array paddings — against one program in a
// single SolveBatch run over the geometry-invariant Prepared stage, and
// emits BENCH_sweep.json. With -check every candidate is also solved by an
// independent classic pipeline run (fresh normalise + New + solve), the
// reports are verified bit-identical, and the batch-vs-independent speedup
// is recorded; the command fails if the batch is slower.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	name := fs.String("program", "hydro", "built-in program name")
	file := fs.String("file", "", "FORTRAN source file to sweep instead of a built-in")
	consts := fs.String("const", "", "compile-time constants for -file")
	size := fs.Int64("size", 32, "problem size")
	iters := fs.Int64("iters", 2, "outer iterations (whole programs)")
	sizes := fs.String("sizes", "4096,8192,16384,32768,65536", "cache sizes in bytes, comma separated")
	sizesFrom := fs.Int64("sizes-from", 0, "generate a cache-size ladder from this many bytes (with -sizes-to/-sizes-step; replaces -sizes)")
	sizesTo := fs.Int64("sizes-to", 0, "ladder upper bound in bytes, inclusive")
	sizesStep := fs.Int64("sizes-step", 0, "ladder step in bytes")
	lines := fs.String("lines", "32", "line sizes in bytes, comma separated")
	assocs := fs.String("assocs", "1,2,4", "associativities, comma separated")
	padArray := fs.String("pad-array", "", "array to pad: crosses the geometry grid with one layout candidate per -pads entry")
	pads := fs.String("pads", "", "paddings in elements for -pad-array, comma separated (0 = the baseline layout)")
	exact := fs.Bool("exact", false, "solve every candidate exactly (FindMisses tier) instead of sampling")
	conf := fs.Float64("c", 0.95, "confidence level for the sampled tier")
	width := fs.Float64("w", 0.05, "confidence interval half-width for the sampled tier")
	adaptive := fs.Bool("adaptive", false, "sampled tier: variance-driven early stopping (Wilson interval)")
	noSymbolic := fs.Bool("nosymbolic", false, "disable the symbolic region fast path (classify every point)")
	workers := fs.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
	check := fs.Bool("check", false, "re-solve every candidate independently, verify bit-identical reports, and gate on the speedup")
	geomBench := fs.Bool("geom-bench", false, "re-solve the exact grid with the geometry-parametric tier off, verify bit-identity, and record the geom_closed_form speedup row")
	geomGate := fs.Float64("geom-gate", 0, "with -geom-bench: fail unless the geom speedup reaches this factor (applied only when >= 4 CPUs)")
	sim := fs.Bool("sim", false, "add an exact-simulator column (slow; display only)")
	rcFile := fs.String("resultcache", "", "load/save the content-addressed result cache at this path")
	out := fs.String("out", "BENCH_sweep.json", "output path for the JSON report (- = stdout only)")
	pstart, pstop, prof := profileFlags(fs)
	oflags := obsFlags(fs)
	fs.Parse(args)

	or, err := oflags.start("sweep")
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	ctx = or.Context(ctx)

	_, pspan := obs.StartSpan(ctx, "parse")
	p, err := loadProgram(*file, *consts, *name, *size, *iters)
	pspan.End()
	if err != nil {
		return err
	}
	_, prspan := obs.StartSpan(ctx, "prepare")
	np, _, err := prepare(p)
	prspan.End()
	if err != nil {
		return err
	}
	css, err := parseInt64List(*sizes)
	if err != nil {
		return err
	}
	if *sizesFrom > 0 {
		if *sizesStep <= 0 || *sizesTo < *sizesFrom {
			return fmt.Errorf("sweep: -sizes-from needs -sizes-to >= it and -sizes-step > 0")
		}
		n := (*sizesTo-*sizesFrom)/(*sizesStep) + 1
		if n > maxLadder {
			return fmt.Errorf("sweep: size ladder has %d entries (max %d)", n, maxLadder)
		}
		css = css[:0]
		for i := int64(0); i < n; i++ {
			css = append(css, *sizesFrom+i*(*sizesStep))
		}
	}
	lss, err := parseInt64List(*lines)
	if err != nil {
		return err
	}
	kss, err := parseInt64List(*assocs)
	if err != nil {
		return err
	}
	var padList []int64
	if *padArray != "" {
		if padList, err = parseInt64List(*pads); err != nil {
			return err
		}
	}
	if len(padList) == 0 {
		padList = []int64{0}
	}

	// The candidate grid. Pad 0 means the baseline layout (nil Layout).
	// Invalid geometries stay in the grid: SolveBatch records them as
	// per-candidate errors, so the JSON report carries the whole grid
	// instead of silently dropping rows.
	var cands []cme.Candidate
	var padOf []int64 // parallel to cands, for reporting and -check
	for _, cs := range css {
		for _, ls := range lss {
			for _, k := range kss {
				cfg := cache.Config{SizeBytes: cs, LineBytes: ls, Assoc: int(k)}
				for _, pad := range padList {
					c := cme.Candidate{Label: cfg.String(), Config: cfg}
					if pad > 0 {
						c.Label = fmt.Sprintf("%s+pad%d", cfg.String(), pad)
						c.Layout = &layout.Options{PadOf: map[string]int64{*padArray: pad}}
					}
					cands = append(cands, c)
					padOf = append(padOf, pad)
				}
			}
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("sweep: empty candidate grid")
	}

	opt := cme.Options{Adaptive: *adaptive, NoSymbolic: *noSymbolic, ProfileLabels: prof()}
	var plan *sampling.Plan
	if !*exact {
		plan = &sampling.Plan{C: *conf, W: *width}
		if err := plan.Validate(); err != nil {
			return err
		}
	}
	var rc *cme.ResultCache
	if *rcFile != "" {
		rc = cme.NewResultCache(0)
		if err := rc.Load(*rcFile); err != nil {
			return err
		}
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

	rep := sweepReport{Program: p.Name, Size: *size, Iters: *iters, Exact: *exact,
		Candidates: len(cands), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: *workers,
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

	// -geom-bench: re-solve the same exact grid on the same Prepared stage
	// with the geometry-parametric tier on and off, verify the reports are
	// bit-identical, and record the speedup the CI gate checks. The two
	// runs are timed without the result cache so neither side is served
	// pre-solved answers.
	if *geomBench {
		if !*exact {
			return fmt.Errorf("sweep: -geom-bench requires -exact (the tier only runs for exact batches)")
		}
		tg := time.Now()
		greps, gerr := prepd.SolveBatch(ctx, cands, cme.BatchOptions{Workers: *workers})
		geomNs := time.Since(tg).Nanoseconds()
		if gerr != nil {
			return fmt.Errorf("sweep -geom-bench: geom run: %v", gerr)
		}
		tf := time.Now()
		freps, ferr := prepd.SolveBatch(ctx, cands, cme.BatchOptions{Workers: *workers, NoGeom: true})
		fusedNs := time.Since(tf).Nanoseconds()
		if ferr != nil {
			return fmt.Errorf("sweep -geom-bench: fused run: %v", ferr)
		}
		row := geomBenchRow{Name: "geom_closed_form", GeomNs: geomNs, FusedNs: fusedNs,
			GoMaxProcs: runtime.GOMAXPROCS(0)}
		if geomNs > 0 {
			row.Speedup = float64(fusedNs) / float64(geomNs)
		}
		for i := range cands {
			if err := sweepSameReport(freps[i], greps[i], cands[i].Label); err != nil {
				return fmt.Errorf("geom tier diverged from the fused baseline: %w", err)
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
		}
		row.Gated = *geomGate > 0 && row.GoMaxProcs >= 4
		rep.GeomClosedForm = &row
		fmt.Fprintf(os.Stderr, "cachette sweep: geom_closed_form %d/%d candidates closed (%d anchors, %d fall-through refs); geom %v vs fused %v (%.2fx)\n",
			row.ClosedCands, len(cands), row.AnchorCands, row.FallthroughRefs,
			time.Duration(geomNs), time.Duration(fusedNs), row.Speedup)
		if row.Gated && row.Speedup < *geomGate {
			return fmt.Errorf("sweep -geom-bench: speedup %.2fx below the %.1fx gate", row.Speedup, *geomGate)
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
			want, err := soloSolve(*file, *consts, *name, *size, *iters, c, opt, plan)
			if err != nil {
				return fmt.Errorf("sweep -check: %s: %v", c.Label, err)
			}
			if err := sweepSameReport(want, reps[i], c.Label); err != nil {
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
		row := sweepResult{Label: c.Label, CacheSize: c.Config.SizeBytes, LineSize: c.Config.LineBytes,
			Assoc: c.Config.Assoc, Pad: padOf[i]}
		cp := obs.CandidateProvenance{Label: c.Label}
		r := reps[i]
		if r == nil {
			if berr != nil && berr.Errs[i] != nil {
				row.Error = berr.Errs[i].Error()
				cp.Error = row.Error
			}
			rep.Results = append(rep.Results, row)
			cprov = append(cprov, cp)
			fmt.Printf("%10d %6d %6d %8d %29s\n",
				c.Config.SizeBytes, c.Config.LineBytes, c.Config.Assoc, padOf[i], "error: "+row.Error)
			continue
		}
		row.MissRatio = r.MissRatio()
		row.Tier = r.Tier.String()
		row.ClosedForm = r.Geom.Closed()
		cp.Tier = row.Tier
		cp.Degraded = r.Degraded
		cp.MissRatioPct = row.MissRatio
		simCol := "-"
		if *sim {
			sr, err := simulateUnder(*file, *consts, *name, *size, *iters, c)
			if err != nil {
				return err
			}
			row.SimRatio = sr
			simCol = fmt.Sprintf("%10.2f", sr)
		}
		rep.Results = append(rep.Results, row)
		cprov = append(cprov, cp)
		fmt.Printf("%10d %6d %6d %8d %10.2f %6s %10s\n",
			c.Config.SizeBytes, c.Config.LineBytes, c.Config.Assoc, padOf[i], row.MissRatio, row.Tier, simCol)
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
		fmt.Fprintf(os.Stderr, "cachette sweep: wrote %s\n", *out)
	}
	if err := or.finish(ctx, p.Name, nil, cprov); err != nil {
		return err
	}
	// Per-candidate failures surface after the report is on disk: scripts
	// get the full grid either way, and the exit status still says "look".
	if berr != nil {
		return berr
	}
	return nil
}

// parseInt64List parses a comma-separated integer list.
func parseInt64List(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// soloSolve runs the classic per-candidate pipeline from scratch — load,
// inline, normalise, lay out (with the candidate's padding), analyse — the
// baseline the batch solver is measured and verified against.
func soloSolve(file, consts, name string, size, iters int64, c cme.Candidate, opt cme.Options, plan *sampling.Plan) (*cme.Report, error) {
	p, err := loadProgram(file, consts, name, size, iters)
	if err != nil {
		return nil, err
	}
	np, _, err := prepare(p)
	if err != nil {
		return nil, err
	}
	if c.Layout != nil {
		if err := layout.AssignProgram(np, *c.Layout); err != nil {
			return nil, err
		}
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

// sweepSameReport verifies bit-identity between a batch report and its
// independent twin. Reference identity is by position and ID (the programs
// are separate builds of the same source, so pointers differ).
func sweepSameReport(want, got *cme.Report, label string) error {
	if got == nil {
		return fmt.Errorf("sweep -check: %s: missing batch report", label)
	}
	if len(want.Refs) != len(got.Refs) {
		return fmt.Errorf("sweep -check: %s: %d refs vs %d", label, len(got.Refs), len(want.Refs))
	}
	for i, w := range want.Refs {
		g := got.Refs[i]
		if w.Ref.ID != g.Ref.ID || w.Volume != g.Volume || w.Analyzed != g.Analyzed ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl {
			return fmt.Errorf("sweep -check: %s: ref %s diverged: got {analyzed %d hits %d cold %d repl %d} want {analyzed %d hits %d cold %d repl %d}",
				label, w.Ref.ID, g.Analyzed, g.Hits, g.Cold, g.Repl, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
	return nil
}

// simulateUnder replays the exact simulator for one candidate on a fresh
// build of the program (simulation is display-only and documented slow, so
// a rebuild per candidate keeps the layout handling trivially correct).
func simulateUnder(file, consts, name string, size, iters int64, c cme.Candidate) (float64, error) {
	p, err := loadProgram(file, consts, name, size, iters)
	if err != nil {
		return 0, err
	}
	np, _, err := prepare(p)
	if err != nil {
		return 0, err
	}
	if c.Layout != nil {
		if err := layout.AssignProgram(np, *c.Layout); err != nil {
			return 0, err
		}
	}
	return trace.Simulate(np, c.Config).MissRatio(), nil
}
