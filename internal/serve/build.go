package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cme"
	"cachemodel/internal/spec"
)

// ProgramSpec names the program a request wants analysed: a built-in
// workload (Program) or inline FORTRAN source (Source, with compile-time
// Consts). Exactly one of the two must be set.
type ProgramSpec = spec.Program

// BudgetSpec is the per-request analysis budget. Zero fields inherit the
// server defaults; TimeoutMs is clamped to the server's MaxDeadline either
// way, so one tenant cannot monopolise a worker.
type BudgetSpec struct {
	TimeoutMs  int64 `json:"timeout_ms,omitempty"`
	MaxPoints  int64 `json:"max_points,omitempty"`
	MaxScan    int64 `json:"max_scan,omitempty"`
	NoFallback bool  `json:"no_fallback,omitempty"`
}

// AnalyzeRequest is the POST /v1/analyze body: one program, one cache
// geometry, one budget.
type AnalyzeRequest struct {
	ProgramSpec
	Budget BudgetSpec `json:"budget"`

	CacheBytes int64 `json:"cache_bytes,omitempty"` // default 32768
	LineBytes  int64 `json:"line_bytes,omitempty"`  // default 32
	Assoc      int   `json:"assoc,omitempty"`       // default 1

	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"` // default 0.95
	Width      float64 `json:"width,omitempty"`      // default 0.05
	Adaptive   bool    `json:"adaptive,omitempty"`

	Priority string `json:"priority,omitempty"` // "interactive" (default) | "batch"
}

// SweepRequest is the POST /v1/sweep body: one program against a cache
// design-space grid, mirroring `cachette sweep`. With a problem-size
// ladder (ns, or from/to/step) every geometry is answered at every ladder
// size by the closed-form problem-size tier, as one surface solve whose
// fit samples and fall-through sizes all charge the request's one Budget
// and go through the server's result cache; the program is then a family
// in SizeConst and its size is ignored.
type SweepRequest struct {
	ProgramSpec
	spec.Ladder
	Budget BudgetSpec `json:"budget"`

	CacheSizes []int64 `json:"cache_sizes,omitempty"` // default {4096..65536}
	LineSizes  []int64 `json:"line_sizes,omitempty"`  // default {32}
	Assocs     []int   `json:"assocs,omitempty"`      // default {1,2,4}
	PadArray   string  `json:"pad_array,omitempty"`
	Pads       []int64 `json:"pads,omitempty"`

	// SizeConst names the inline-source constant carrying a ladder's
	// problem size (default "N"); ignored for built-in programs.
	SizeConst string `json:"size_const,omitempty"`

	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Width      float64 `json:"width,omitempty"`
	Adaptive   bool    `json:"adaptive,omitempty"`

	Priority string `json:"priority,omitempty"`
}

// jobSpec is a fully validated, ready-to-run job: its priority, the
// candidate rows it answers and the armed budget, whose point cap is what
// admission reserves against the server's pool.
type jobSpec struct {
	prio  int
	cands []cme.Candidate
	bud   budget.Budget
	// prepare does an attempt's geometry-invariant work on the worker and
	// yields its flight. A grid looks its program up in the process's
	// prepared-program store and is keyed by Prepared.SolveKey; a ladder's
	// key is fixed at admission.
	prepare func(s *Server) (flight, error)
}

// flight is one attempt's solve as the flight group runs it: the content
// address that concurrent identical jobs share, and the leader's body.
type flight struct {
	key   string
	solve func(ctx context.Context, bud budget.Budget) ([]*cme.Report, error)
}

// limits are the server's admission bounds in the spec vocabulary.
func (o *Options) limits() spec.Limits {
	return spec.Limits{Who: "server", MaxSize: o.MaxProblemSize, MaxCandidates: o.MaxCandidates}
}

// newSpec admits what every request shares — priority and budget — into
// a jobSpec answering cands; the caller arms its prepare. Every job gets
// a deadline (MaxDeadline when unspecified) and a point cap
// (DefaultMaxPoints when unspecified): an unmetered job could neither be
// cancelled at a checkpoint nor admission-controlled, so "unlimited" is
// not a thing the server hands out.
func (o *Options) newSpec(prio string, bs BudgetSpec, cands []cme.Candidate) (*jobSpec, error) {
	js := &jobSpec{cands: cands, bud: budget.Budget{Deadline: o.MaxDeadline, MaxPoints: bs.MaxPoints,
		MaxScan: bs.MaxScan, NoFallback: bs.NoFallback}}
	switch strings.ToLower(prio) {
	case "", "interactive":
		js.prio = prioInteractive
	case "batch":
		js.prio = prioBatch
	default:
		return nil, fmt.Errorf("unknown priority %q (want interactive or batch)", prio)
	}
	if bs.TimeoutMs < 0 || bs.MaxPoints < 0 || bs.MaxScan < 0 {
		return nil, fmt.Errorf("budget fields must be non-negative")
	}
	if d := time.Duration(bs.TimeoutMs) * time.Millisecond; d > 0 && d < o.MaxDeadline {
		js.bud.Deadline = d
	}
	if js.bud.MaxPoints == 0 || js.bud.MaxPoints > o.DefaultMaxPoints {
		js.bud.MaxPoints = o.DefaultMaxPoints
	}
	return js, nil
}

// specFromAnalyze validates an analyze request into a jobSpec.
func (o *Options) specFromAnalyze(req *AnalyzeRequest) (*jobSpec, error) {
	cfg := spec.Cache(req.CacheBytes, req.LineBytes, req.Assoc)
	return o.gridSpec(req.Priority, req.Budget, []cme.Candidate{{Label: cfg.String(), Config: cfg}},
		&req.ProgramSpec, req.Exact, req.Confidence, req.Width, req.Adaptive)
}

// specFromSweep validates a sweep request into a jobSpec, mirroring
// `cachette sweep`: a grid keeps invalid geometries and fails them per
// candidate, pad 0 means the baseline layout, and a ladder is handed to
// ladderSpec.
func (o *Options) specFromSweep(req *SweepRequest) (*jobSpec, error) {
	grid := spec.Grid{CacheSizes: req.CacheSizes, LineSizes: req.LineSizes, Assocs: req.Assocs,
		PadArray: req.PadArray, Pads: req.Pads}
	wcs, ns, err := grid.Expand(req.Ladder.Requested(), o.limits())
	if err != nil {
		return nil, err
	}
	if ns != nil {
		return o.ladderSpec(req, wcs, ns)
	}
	if req.SizeConst != "" {
		return nil, fmt.Errorf("size_const needs a problem-size ladder (ns, or from/to/step)")
	}
	return o.gridSpec(req.Priority, req.Budget, spec.Solvers(wcs),
		&req.ProgramSpec, req.Exact, req.Confidence, req.Width, req.Adaptive)
}

// gridSpec admits a job that solves cands as one batch over the program
// ps names. Everything else is admitted before the program is built, so
// every refusal costs no build; the program itself is admitted by
// building it into the process's prepared-program store.
func (o *Options) gridSpec(prio string, bs BudgetSpec, cands []cme.Candidate, ps *ProgramSpec,
	exact bool, conf, width float64, adaptive bool) (*jobSpec, error) {

	js, err := o.newSpec(prio, bs, cands)
	if err != nil {
		return nil, err
	}
	plan, err := spec.Plan(exact, conf, width)
	if err != nil {
		return nil, err
	}
	prog := *ps
	if _, err := prog.Prepared(o.limits(), adaptive); err != nil {
		return nil, err
	}
	js.prepare = func(s *Server) (flight, error) {
		// Look the program up on every attempt rather than keep it: the
		// job table retains finished jobs, and a Prepared they held would
		// outlive its eviction from the store.
		prep, err := prog.Prepared(spec.Limits{}, adaptive)
		if err != nil {
			return flight{}, err
		}
		return flight{key: prep.SolveKey(js.cands, plan),
			solve: func(ctx context.Context, bud budget.Budget) ([]*cme.Report, error) {
				return prep.SolveBatch(ctx, js.cands, cme.BatchOptions{
					Plan: plan, Cache: s.cache, Workers: s.opt.SolveWorkers, Budget: bud})
			}}, nil
	}
	return js, nil
}

// ladderSpec admits a ladder sweep. The program is a problem-size family,
// probed once and answered at every geometry × ladder size by one
// cme.SolveSurface: the closed-form problem-size tier answers the ladder
// by O(1) evaluation, and every exact solve it needs (fit samples, sizes
// the closed form cannot cover) runs once per size for all geometries,
// through the server's result cache, under the job's one meter. Rows
// come in grid order, then ladder order. A ladder is exact, and every
// geometry must be valid.
func (o *Options) ladderSpec(req *SweepRequest, wcs []spec.Candidate, ns []int64) (*jobSpec, error) {
	if !req.Exact {
		return nil, fmt.Errorf("a problem-size ladder needs exact: true (the closed form is exact)")
	}
	fam, err := req.ProgramSpec.Family(req.SizeConst)
	if err != nil {
		return nil, err
	}
	geoms := spec.Solvers(wcs)
	h := sha256.New() // the flight key: family, geometries as integers, ladder in order
	fmt.Fprintf(h, "ladder|%s|%q|%v|%s|%d|%v", fam.Label, req.Source, req.Consts, fam.SizeConst, fam.Iters, ns)
	cands := make([]cme.Candidate, 0, len(geoms)*len(ns))
	for _, g := range geoms {
		if err := g.Config.Validate(); err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "|%d/%d/%d", g.Config.SizeBytes, g.Config.LineBytes, g.Config.Assoc)
		for _, n := range ns {
			cands = append(cands, cme.Candidate{Label: spec.LadderLabel(g.Label, n), Config: g.Config})
		}
	}
	js, err := o.newSpec(req.Priority, req.Budget, cands)
	if err != nil {
		return nil, err
	}
	key := "sc:" + hex.EncodeToString(h.Sum(nil))[:32]
	js.prepare = func(s *Server) (flight, error) {
		return flight{key: key, solve: func(ctx context.Context, bud budget.Budget) ([]*cme.Report, error) {
			reps, _, err := cme.SolveSurface(ctx, fam.Build, geoms, ns, cme.Options{},
				cme.BatchOptions{Cache: s.cache, Workers: s.opt.SolveWorkers, Budget: bud})
			return reps, err
		}}, nil
	}
	return js, nil
}
