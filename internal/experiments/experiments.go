// Package experiments regenerates every table of the paper's evaluation
// (§6 and §7): Table 2 (call classification), Table 3 (FindMisses vs
// simulator on the kernels), Table 4 (EstimateMisses on the kernels),
// Table 5 (whole-program statistics), Table 6 (EstimateMisses vs simulator
// on the whole programs) and Table 7 (probabilistic baseline vs
// EstimateMisses on MMT). The same entry points back the cachette CLI and
// the root benchmark suite.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/prob"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
	"cachemodel/internal/trace"
)

// Scale sets the problem sizes. The paper's sizes take minutes (its own
// FindMisses runs took up to 100 s and its simulations hours); Quick keeps
// every experiment under a few seconds for CI.
type Scale struct {
	Name                   string
	HydroJN, HydroKN       int64
	MGRIDM                 int64
	MMTN, MMTBJ, MMTBK     int64
	TomcatvN, TomcatvIters int64
	SwimN, SwimCycles      int64
	AppluN, AppluIt        int64
	// Cache for Tables 3, 4 and 6 (the paper: 32 KB, 32 B lines).
	Cache func(assoc int) cache.Config
	// Plan for EstimateMisses (the paper: c = 95%, w = 0.05).
	Plan sampling.Plan
}

// Quick is a seconds-scale configuration for tests and default CLI runs.
// The cache is scaled down with the problem so that the miss behaviour
// stays interesting.
var Quick = Scale{
	Name:    "quick",
	HydroJN: 24, HydroKN: 24,
	MGRIDM: 12,
	MMTN:   24, MMTBJ: 12, MMTBK: 12,
	TomcatvN: 24, TomcatvIters: 2,
	SwimN: 24, SwimCycles: 2,
	AppluN: 8, AppluIt: 1,
	Cache: func(assoc int) cache.Config {
		return cache.Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: assoc}
	},
	Plan: sampling.Plan{C: 0.95, W: 0.05},
}

// Medium sits between CI and the paper: tens of seconds.
var Medium = Scale{
	Name:    "medium",
	HydroJN: 60, HydroKN: 60,
	MGRIDM: 32,
	MMTN:   60, MMTBJ: 30, MMTBK: 30,
	TomcatvN: 64, TomcatvIters: 4,
	SwimN: 64, SwimCycles: 3,
	AppluN: 10, AppluIt: 2,
	Cache: cache.Default32K,
	Plan:  sampling.Plan{C: 0.95, W: 0.05},
}

// Paper uses the paper's kernel sizes (Hydro/MMT at 100, MGRID at 100) and
// whole-program sizes reduced to what finishes in minutes rather than the
// paper's five-hour simulations.
var Paper = Scale{
	Name:    "paper",
	HydroJN: 100, HydroKN: 100,
	MGRIDM: 100,
	MMTN:   100, MMTBJ: 100, MMTBK: 50,
	TomcatvN: 128, TomcatvIters: 10,
	SwimN: 128, SwimCycles: 5,
	AppluN: 12, AppluIt: 2,
	Cache: cache.Default32K,
	Plan:  sampling.Plan{C: 0.95, W: 0.05},
}

// Scales maps names to the predefined scales.
var Scales = map[string]Scale{"quick": Quick, "medium": Medium, "paper": Paper}

func assocName(k int) string {
	if k == 1 {
		return "direct"
	}
	return fmt.Sprintf("%d-way", k)
}

// ---------------------------------------------------------------------
// Table 3: FindMisses vs simulator on Hydro, MGRID and MMT.

// Table3Row is one line of Table 3.
type Table3Row struct {
	Program    string
	Assoc      int
	SimMisses  int64
	FindMisses int64
	SimRatio   float64 // percent
	FindRatio  float64 // percent
	AbsErr     float64 // percentage points
	Secs       float64 // FindMisses execution time
	SimSecs    float64
}

func kernelPrograms(sc Scale) []*ir.Program {
	return []*ir.Program{
		kernels.Hydro(sc.HydroJN, sc.HydroKN),
		kernels.MGRID(sc.MGRIDM),
		kernels.MMT(sc.MMTN, sc.MMTBJ, sc.MMTBK),
	}
}

// eachAssoc front-ends and Prepares every program once, then hands f the
// simulator's result (and its time) and an Analyzer for each
// associativity of the scale's cache, sharing reuse vectors across them.
func eachAssoc(sc Scale, progs []*ir.Program, f func(prog string, assoc int, sim *trace.SimResult, simSecs float64, a *cme.Analyzer) error) error {
	for _, p := range progs {
		np, _, err := spec.FrontEnd{}.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		prep, err := cme.Prepare(np, cme.Options{})
		if err != nil {
			return err
		}
		for _, assoc := range []int{1, 2, 4} {
			t0 := time.Now()
			sim := trace.Simulate(np, sc.Cache(assoc))
			simSecs := time.Since(t0).Seconds()
			a, err := prep.Analyzer(sc.Cache(assoc))
			if err == nil {
				err = f(p.Name, assoc, sim, simSecs, a)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// RunTable3 reproduces Table 3 at the given scale.
func RunTable3(sc Scale) ([]Table3Row, error) {
	var rows []Table3Row
	err := eachAssoc(sc, kernelPrograms(sc), func(prog string, assoc int, sim *trace.SimResult, simSecs float64, a *cme.Analyzer) error {
		rep := a.FindMisses()
		rows = append(rows, Table3Row{
			Program:    prog,
			Assoc:      assoc,
			SimMisses:  sim.Misses,
			FindMisses: rep.ExactMisses(),
			SimRatio:   sim.MissRatio(),
			FindRatio:  rep.MissRatio(),
			AbsErr:     abs(rep.MissRatio() - sim.MissRatio()),
			Secs:       rep.Elapsed.Seconds(),
			SimSecs:    simSecs,
		})
		return nil
	})
	return rows, err
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: cache misses from FindMisses and the simulator\n")
	fmt.Fprintf(w, "%-10s %-7s %12s %12s %10s %10s %7s %9s %9s\n",
		"Program", "Cache", "Sim#Miss", "Find#Miss", "Sim%MR", "Find%MR", "AbsErr", "Find(s)", "Sim(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7s %12d %12d %10.2f %10.2f %7.2f %9.2f %9.2f\n",
			r.Program, assocName(r.Assoc), r.SimMisses, r.FindMisses,
			r.SimRatio, r.FindRatio, r.AbsErr, r.Secs, r.SimSecs)
	}
}

// ---------------------------------------------------------------------
// Table 4: EstimateMisses on the kernels.

// Table4Row is one line of Table 4.
type Table4Row struct {
	Program  string
	Assoc    int
	SimRatio float64
	EstRatio float64
	AbsErr   float64
	Secs     float64
}

// RunTable4 reproduces Table 4 (c and w from the scale's plan).
func RunTable4(sc Scale) ([]Table4Row, error) {
	var rows []Table4Row
	err := eachAssoc(sc, kernelPrograms(sc), func(prog string, assoc int, sim *trace.SimResult, _ float64, a *cme.Analyzer) error {
		rep, err := a.EstimateMisses(sc.Plan)
		if err != nil {
			return err
		}
		rows = append(rows, Table4Row{
			Program:  prog,
			Assoc:    assoc,
			SimRatio: sim.MissRatio(),
			EstRatio: rep.MissRatio(),
			AbsErr:   abs(rep.MissRatio() - sim.MissRatio()),
			Secs:     rep.Elapsed.Seconds(),
		})
		return nil
	})
	return rows, err
}

// FormatTable4 renders Table 4.
func FormatTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: cache misses from EstimateMisses (c=95%%, w=0.05)\n")
	fmt.Fprintf(w, "%-10s %-7s %10s %10s %7s %9s\n",
		"Program", "Cache", "Sim%MR", "Est%MR", "AbsErr", "Exe(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7s %10.2f %10.2f %7.2f %9.2f\n",
			r.Program, assocName(r.Assoc), r.SimRatio, r.EstRatio, r.AbsErr, r.Secs)
	}
}

// ---------------------------------------------------------------------
// Table 5: whole-program statistics.

// Table5Row is one line of Table 5.
type Table5Row struct {
	Program     string
	Subroutines int
	Calls       int
	References  int
	NRefs       int // references after inlining + normalisation
}

// RunTable5 reports the statistics of the three whole-program models.
func RunTable5(sc Scale) ([]Table5Row, error) {
	progs := []*ir.Program{
		kernels.Tomcatv(sc.TomcatvN, sc.TomcatvIters),
		kernels.Swim(sc.SwimN, sc.SwimCycles),
		kernels.Applu(sc.AppluN, sc.AppluIt),
	}
	var rows []Table5Row
	for _, p := range progs {
		st := p.CollectStats()
		np, _, err := spec.FrontEnd{}.Run(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		rows = append(rows, Table5Row{
			Program:     p.Name,
			Subroutines: st.Subroutines,
			Calls:       st.Calls,
			References:  st.References,
			NRefs:       len(np.Refs),
		})
	}
	return rows, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5: three whole programs (model statistics)\n")
	fmt.Fprintf(w, "%-10s %12s %8s %12s %12s\n", "Program", "#subroutines", "#calls", "#references", "#refs-inlined")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %8d %12d %12d\n", r.Program, r.Subroutines, r.Calls, r.References, r.NRefs)
	}
}

// ---------------------------------------------------------------------
// Table 6: EstimateMisses vs simulator on the whole programs.

// Table6Row is one line of Table 6.
type Table6Row struct {
	Program  string
	Assoc    int
	SimRatio float64
	EstRatio float64
	AbsErr   float64
	ExeSecs  float64
	SimSecs  float64
}

// RunTable6 reproduces Table 6 at the given scale.
func RunTable6(sc Scale) ([]Table6Row, error) {
	progs := []*ir.Program{
		kernels.Tomcatv(sc.TomcatvN, sc.TomcatvIters),
		kernels.Swim(sc.SwimN, sc.SwimCycles),
		kernels.Applu(sc.AppluN, sc.AppluIt),
	}
	var rows []Table6Row
	err := eachAssoc(sc, progs, func(prog string, assoc int, sim *trace.SimResult, simSecs float64, a *cme.Analyzer) error {
		rep, err := a.EstimateMisses(sc.Plan)
		if err != nil {
			return err
		}
		rows = append(rows, Table6Row{
			Program:  prog,
			Assoc:    assoc,
			SimRatio: sim.MissRatio(),
			EstRatio: rep.MissRatio(),
			AbsErr:   abs(rep.MissRatio() - sim.MissRatio()),
			ExeSecs:  rep.Elapsed.Seconds(),
			SimSecs:  simSecs,
		})
		return nil
	})
	return rows, err
}

// FormatTable6 renders Table 6.
func FormatTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Table 6: whole programs, EstimateMisses vs simulator (c=95%%, w=0.05)\n")
	fmt.Fprintf(w, "%-10s %-7s %9s %9s %7s %9s %9s\n",
		"Program", "Cache", "Sim%MR", "E.M%MR", "AbsErr", "Exe(s)", "Sim(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7s %9.2f %9.2f %7.2f %9.2f %9.2f\n",
			r.Program, assocName(r.Assoc), r.SimRatio, r.EstRatio, r.AbsErr, r.ExeSecs, r.SimSecs)
	}
}

// ---------------------------------------------------------------------
// Table 7: probabilistic baseline vs EstimateMisses on MMT.

// Table7Config is one cache/blocking configuration of Table 7. Cs is in
// kilobytes and Ls in array elements (the paper's §2 units; REAL*8 gives
// LineBytes = 8·Ls).
type Table7Config struct {
	N, BJ, BK int64
	CsKB      int64
	LsElems   int64
	Assoc     int
}

// Table7Configs are the paper's sixteen rows.
var Table7Configs = []Table7Config{
	{200, 100, 100, 16, 8, 2},
	{200, 100, 100, 256, 16, 2},
	{200, 200, 100, 32, 8, 1},
	{200, 200, 100, 128, 8, 2},
	{200, 200, 100, 128, 32, 2},
	{200, 50, 200, 16, 4, 1},
	{200, 100, 200, 32, 8, 2},
	{200, 100, 200, 64, 16, 1},
	{400, 100, 100, 16, 8, 2},
	{400, 100, 100, 256, 16, 2},
	{400, 200, 100, 32, 8, 1},
	{400, 200, 100, 128, 8, 2},
	{400, 200, 100, 128, 32, 2},
	{400, 50, 200, 16, 4, 1},
	{400, 100, 200, 32, 8, 2},
	{400, 100, 200, 64, 16, 1},
}

// Table7Row is one line of Table 7.
type Table7Row struct {
	Cfg Table7Config
	// Ran records the effective (shrunk) parameters the row actually ran
	// with.
	Ran      Table7Config
	RealMR   float64 // simulator, percent
	ProbMR   float64
	EstMR    float64
	DeltaP   float64 // absolute error of the probabilistic method, percentage points
	DeltaE   float64 // absolute error of EstimateMisses, percentage points
	ProbSecs float64
	EstSecs  float64
}

// RunTable7 reproduces Table 7. shrink divides the problem sizes (1 =
// paper sizes; 4 gives N∈{50,100} for quick runs, preserving the
// block-to-cache ratios by scaling the cache too).
func RunTable7(shrink int64, configs []Table7Config) ([]Table7Row, error) {
	if shrink < 1 {
		shrink = 1
	}
	var rows []Table7Row
	for _, tc := range configs {
		n, bj, bk := tc.N/shrink, tc.BJ/shrink, tc.BK/shrink
		cfg := cache.Config{
			SizeBytes: tc.CsKB * 1024 / shrink,
			LineBytes: 8 * tc.LsElems,
			Assoc:     tc.Assoc,
		}
		if cfg.SizeBytes%(cfg.LineBytes*int64(cfg.Assoc)) != 0 {
			cfg.SizeBytes += cfg.LineBytes*int64(cfg.Assoc) - cfg.SizeBytes%(cfg.LineBytes*int64(cfg.Assoc))
		}
		ran := Table7Config{N: n, BJ: bj, BK: bk, CsKB: cfg.SizeBytes / 1024, LsElems: tc.LsElems, Assoc: tc.Assoc}
		np, _, err := spec.FrontEnd{}.Run(kernels.MMT(n, bj, bk))
		if err != nil {
			return nil, err
		}
		sim := trace.Simulate(np, cfg)
		pr, err := prob.Estimate(np, cfg, prob.Options{})
		if err != nil {
			return nil, err
		}
		a, err := cme.New(np, cfg, cme.Options{})
		if err != nil {
			return nil, err
		}
		est, err := a.EstimateMisses(sampling.Plan{C: 0.95, W: 0.05})
		if err != nil {
			return nil, err
		}
		row := Table7Row{
			Cfg:      tc,
			Ran:      ran,
			RealMR:   sim.MissRatio(),
			ProbMR:   pr.MissRatio(),
			EstMR:    est.MissRatio(),
			ProbSecs: pr.Elapsed.Seconds(),
			EstSecs:  est.Elapsed.Seconds(),
		}
		row.DeltaP = abs(pr.MissRatio() - sim.MissRatio())
		row.DeltaE = abs(est.MissRatio() - sim.MissRatio())
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable7 renders Table 7.
func FormatTable7(w io.Writer, rows []Table7Row) {
	fmt.Fprintf(w, "Table 7: probabilistic baseline vs EstimateMisses on MMT (effective sizes)\n")
	fmt.Fprintf(w, "%5s %4s %4s %5s %4s %2s %8s %8s %8s %8s %8s\n",
		"N", "BJ", "BK", "CsKB", "Ls", "k", "Real%MR", "Prob%MR", "Est%MR", "ΔP", "ΔE")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %4d %4d %5d %4d %2d %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Ran.N, r.Ran.BJ, r.Ran.BK, r.Ran.CsKB, r.Ran.LsElems, r.Ran.Assoc,
			r.RealMR, r.ProbMR, r.EstMR, r.DeltaP, r.DeltaE)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Summary renders every table at the given scale to w.
func Summary(w io.Writer, sc Scale, shrink int64) error {
	steps := []struct {
		name string
		run  func() error
	}{
		{"Table 2", func() error {
			rows := RunTable2()
			FormatTable2(w, rows)
			return nil
		}},
		{"Table 3", func() error {
			rows, err := RunTable3(sc)
			if err != nil {
				return err
			}
			FormatTable3(w, rows)
			return nil
		}},
		{"Table 4", func() error {
			rows, err := RunTable4(sc)
			if err != nil {
				return err
			}
			FormatTable4(w, rows)
			return nil
		}},
		{"Table 5", func() error {
			rows, err := RunTable5(sc)
			if err != nil {
				return err
			}
			FormatTable5(w, rows)
			return nil
		}},
		{"Table 6", func() error {
			rows, err := RunTable6(sc)
			if err != nil {
				return err
			}
			FormatTable6(w, rows)
			return nil
		}},
		{"Table 7", func() error {
			rows, err := RunTable7(shrink, Table7Configs)
			if err != nil {
				return err
			}
			FormatTable7(w, rows)
			return nil
		}},
	}
	for i, s := range steps {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
