package serve

import (
	"fmt"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/sampling"
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
// design-space grid, mirroring `cachette sweep`.
type SweepRequest struct {
	ProgramSpec
	Budget BudgetSpec `json:"budget"`

	CacheSizes []int64 `json:"cache_sizes,omitempty"` // default {4096..65536}
	LineSizes  []int64 `json:"line_sizes,omitempty"`  // default {32}
	Assocs     []int   `json:"assocs,omitempty"`      // default {1,2,4}
	PadArray   string  `json:"pad_array,omitempty"`
	Pads       []int64 `json:"pads,omitempty"`

	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Width      float64 `json:"width,omitempty"`
	Adaptive   bool    `json:"adaptive,omitempty"`

	Priority string `json:"priority,omitempty"`
}

// jobSpec is a fully validated, ready-to-solve job: the normalised
// program, the candidate grid, the sampling plan and the armed budget.
// Everything admission needs (cost) is computed here, before the job
// touches the queue.
type jobSpec struct {
	program string
	np      *ir.NProgram
	opt     cme.Options
	cands   []cme.Candidate
	plan    *sampling.Plan
	bud     budget.Budget
	cost    int64 // reserved against the server's point pool
	// scaling marks a size-ladder job: np is nil, cands carries one entry
	// per ladder size, and the solve goes through solveScaling instead of
	// Prepare + SolveBatch.
	scaling *scalingSpec
}

func parsePriority(s string) (int, error) {
	switch strings.ToLower(s) {
	case "", "interactive":
		return prioInteractive, nil
	case "batch":
		return prioBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// limits are the server's admission bounds in the spec vocabulary.
func (o *Options) limits() spec.Limits {
	return spec.Limits{Who: "server", MaxSize: o.MaxProblemSize, MaxCandidates: o.MaxCandidates}
}

// buildBudget maps a request budget onto budget.Budget under the server
// limits. Every job gets a deadline (MaxDeadline when unspecified) and a
// point cap (DefaultMaxPoints when unspecified): an unmetered job could
// neither be cancelled at a checkpoint nor admission-controlled, so
// "unlimited" is not a thing the server hands out.
func (o *Options) buildBudget(bs BudgetSpec) (budget.Budget, error) {
	if bs.TimeoutMs < 0 || bs.MaxPoints < 0 || bs.MaxScan < 0 {
		return budget.Budget{}, fmt.Errorf("budget fields must be non-negative")
	}
	b := budget.Budget{
		Deadline:   o.MaxDeadline,
		MaxPoints:  bs.MaxPoints,
		MaxScan:    bs.MaxScan,
		NoFallback: bs.NoFallback,
	}
	if d := time.Duration(bs.TimeoutMs) * time.Millisecond; d > 0 && d < o.MaxDeadline {
		b.Deadline = d
	}
	if b.MaxPoints == 0 || b.MaxPoints > o.DefaultMaxPoints {
		b.MaxPoints = o.DefaultMaxPoints
	}
	return b, nil
}

// specFromAnalyze validates an analyze request into a jobSpec.
func (o *Options) specFromAnalyze(req *AnalyzeRequest) (*jobSpec, error) {
	cfg := spec.Cache(req.CacheBytes, req.LineBytes, req.Assoc)
	cands := []cme.Candidate{{Label: cfg.String(), Config: cfg}}
	return o.newJobSpec(&req.ProgramSpec, req.Budget, cands, req.Exact, req.Confidence, req.Width, req.Adaptive)
}

// specFromSweep validates a sweep request into a jobSpec with the full
// candidate grid, mirroring `cachette sweep`: invalid geometries stay in
// the grid and fail per candidate, and pad 0 means the baseline layout.
func (o *Options) specFromSweep(req *SweepRequest) (*jobSpec, error) {
	grid := spec.Grid{CacheSizes: req.CacheSizes, LineSizes: req.LineSizes, Assocs: req.Assocs,
		PadArray: req.PadArray, Pads: req.Pads}
	wcs, err := grid.Candidates(o.limits())
	if err != nil {
		return nil, err
	}
	return o.newJobSpec(&req.ProgramSpec, req.Budget, spec.Solvers(wcs), req.Exact, req.Confidence, req.Width, req.Adaptive)
}

// newJobSpec admits the rest of a request — plan, budget, program — and
// only then runs the front end: every refusal costs no build.
func (o *Options) newJobSpec(ps *ProgramSpec, bs BudgetSpec, cands []cme.Candidate,
	exact bool, conf, width float64, adaptive bool) (*jobSpec, error) {

	plan, err := spec.Plan(exact, conf, width)
	if err != nil {
		return nil, err
	}
	bud, err := o.buildBudget(bs)
	if err != nil {
		return nil, err
	}
	np, err := ps.Prepare(o.limits())
	if err != nil {
		return nil, err
	}
	return &jobSpec{
		program: np.Name,
		np:      np,
		opt:     cme.Options{Adaptive: adaptive},
		cands:   cands,
		plan:    plan,
		bud:     bud,
		cost:    bud.MaxPoints,
	}, nil
}
