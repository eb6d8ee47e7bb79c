// Package dist is the horizontal execution fabric for design-space
// sweeps: a coordinator/worker layer that shards `cme.SolveBatch` work
// across processes and machines while preserving the repository's
// bit-identity guarantee.
//
// The coordinator decomposes a sweep into content-addressed work units —
// one candidate each, or one line-size fuse group of an exact sweep,
// keyed by the same SHA-256 `Prepared.SolveKey` scheme the result cache
// uses — and hands them to
// workers over HTTP/JSON leases with heartbeats. Expired leases are
// re-issued (work stealing from dead or slow shards), identical units
// within or across sweeps collapse onto one solve (content-addressed
// dedup), worker-reported failures are re-enqueued a bounded number of
// times, and lease/completion state is journalled to disk so the
// coordinator itself can be killed and restarted mid-sweep. Workers run
// `cme.Prepared`-based solves under the budget machinery, checkpoint
// per-unit results through `ResultCache.Save`, and post rendered rows
// back; the coordinator merges them in candidate order.
//
// Determinism argument (DESIGN.md §Distributed sweeps has the long form):
// every row is rendered by spec.Rows, the renderer serve uses too, so a
// merged row carries the same fields, set-count provenance included, as
// the /v1/sweep answer to the same grid. Rows exclude every
// nondeterministic field (elapsed time, budget spend), and the merge
// writes them by candidate index. For an unbudgeted sweep the unit
// partition is fixed: an exact sweep's unit is a whole line-size fuse
// group, so its batch picks the same set-count anchors as SolveLocal's
// whole-grid batch, and SolveBatch is bit-identical per candidate at any
// worker count. The merged report is then byte-identical to SolveLocal
// at any worker count or failure schedule, also when a worker answers
// from its result cache: the set-count tier plans before the cache is
// read, so its provenance depends on the grid alone. A budgeted sweep is
// cut into per-candidate units, so its rows never carry set-count
// provenance, and it may degrade; as for SolveBatch itself, it keeps no
// bit-identity guarantee.
package dist

import (
	"context"
	"errors"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cme"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
)

// ProgramSpec names the program a sweep analyses: a built-in workload
// (Program) or inline FORTRAN source (Source, with compile-time Consts).
// It is the serve layer's wire form, so clients can reuse payloads.
// Workers build it unbounded (spec.Limits{}): the coordinator admitted it.
type ProgramSpec = spec.Program

// SolveSpec is the result-affecting solve mode shared by a sweep and its
// units: it must travel with every unit so a worker reproduces exactly
// the solve the sweep key was derived from.
type SolveSpec struct {
	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"` // default 0.95 (sampled)
	Width      float64 `json:"width,omitempty"`      // default 0.05 (sampled)
	Adaptive   bool    `json:"adaptive,omitempty"`
	// Per-unit budget. A budgeted unit may degrade (recorded in row
	// provenance), and each candidate of a budgeted sweep is a unit of
	// its own, so its rows never carry set-count provenance; bit-identity
	// to a single-process run is only guaranteed for unbudgeted sweeps,
	// exactly as for SolveBatch itself.
	MaxPoints int64 `json:"max_points,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// plan validates the sampled-tier parameters (nil when exact).
func (s SolveSpec) plan() (*sampling.Plan, error) {
	return spec.Plan(s.Exact, s.Confidence, s.Width)
}

// options maps the spec to solver options.
func (s SolveSpec) options() cme.Options {
	return cme.Options{Adaptive: s.Adaptive}
}

// budget maps the spec's per-unit limits to a budget.
func (s SolveSpec) budget() budget.Budget {
	return budget.Budget{
		Deadline:  time.Duration(s.TimeoutMs) * time.Millisecond,
		MaxPoints: s.MaxPoints,
	}
}

// SweepSpec is one distributed sweep: a program against a cache
// design-space grid, mirroring `cachette sweep` / POST /v1/sweep.
type SweepSpec struct {
	ProgramSpec
	SolveSpec

	CacheSizes []int64 `json:"cache_sizes,omitempty"` // default {4096..65536}
	LineSizes  []int64 `json:"line_sizes,omitempty"`  // default {32}
	Assocs     []int   `json:"assocs,omitempty"`      // default {1,2,4}
	PadArray   string  `json:"pad_array,omitempty"`
	Pads       []int64 `json:"pads,omitempty"`

	// Prune turns on the advisor-driven search mode: a cheap sampled pass
	// over the geometry grid ranks candidates, advisor.Frontier keeps the
	// non-dominated prefix, and only survivors are sharded for the real
	// solve. Dominated candidates appear in the merged report with their
	// cheap-tier ratio and Pruned provenance. Rejected for pad grids (a
	// pad changes the layout, not the geometry the advisor ranks) and
	// incompatible with bit-identity checks by construction.
	Prune       bool    `json:"prune,omitempty"`
	PruneKeep   int     `json:"prune_keep,omitempty"`   // frontier floor (default 4)
	PruneMargin float64 `json:"prune_margin,omitempty"` // percent over best (default 10)
}

// pruneKeep and pruneMargin are the effective frontier knobs with
// defaults applied. The prune pass and the sweep id share them, so a spec
// spelling the default explicitly aliases one that leaves it zero.
func (s *SweepSpec) pruneKeep() int {
	if s.PruneKeep < 1 {
		return 4
	}
	return s.PruneKeep
}

func (s *SweepSpec) pruneMargin() float64 {
	if s.PruneMargin <= 0 {
		return 10
	}
	return s.PruneMargin
}

// grid materialises the candidate grid in deterministic order — the order
// is part of the sweep's content address and of the merged report —
// refusing a grid over lim before allocating it. Invalid geometries stay
// in the grid and fail per candidate, exactly as in `cachette sweep`.
func (s *SweepSpec) grid(lim spec.Limits) ([]WireCandidate, error) {
	g := spec.Grid{CacheSizes: s.CacheSizes, LineSizes: s.LineSizes, Assocs: s.Assocs,
		PadArray: s.PadArray, Pads: s.Pads}
	return g.Candidates(lim)
}

// WireCandidate is the explicit wire form of one cme.Candidate: geometry
// plus optional padding layout, self-contained so a worker reconstructs
// the exact candidate without sharing memory with the coordinator.
type WireCandidate = spec.Candidate

// RefRow and Row are the answer rows every front door shares (see
// spec.Row); the names stay for callers that spell them from this package.
type (
	RefRow = spec.RefRow
	Row    = spec.Row
)

// SolveLocal runs the sweep in this process — one SolveBatch over the
// whole grid, on the process's prepared form of the program — and
// renders the same wire rows a coordinator merges. It is the ground
// truth for `dist coordinate -check` and the 1-worker baseline for
// `bench -dist`: a distributed run is correct iff its merged rows match
// these bytes. Prune is rejected
// (pruned rows carry advisor estimates, which a plain batch never
// produces, so the comparison is meaningless by construction).
func (s *SweepSpec) SolveLocal(ctx context.Context, workers int) ([]Row, error) {
	if s.Prune {
		return nil, errors.New("dist: SolveLocal is incompatible with prune")
	}
	wcs, err := s.grid(spec.Limits{})
	if err != nil {
		return nil, err
	}
	prep, err := s.ProgramSpec.Prepared(spec.Limits{}, s.Adaptive)
	if err != nil {
		return nil, err
	}
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	cands := spec.Solvers(wcs)
	reps, err := prep.SolveBatch(ctx, cands, cme.BatchOptions{
		Plan: plan, Workers: workers, Budget: s.SolveSpec.budget(),
	})
	var be *cme.BatchError
	if err != nil && !errors.As(err, &be) {
		return nil, err
	}
	return spec.Rows(cands, reps, err), nil
}

// ReportSchemaV1 identifies the merged-report JSON document.
const ReportSchemaV1 = "cachette/dist-report/v1"

// MergedReport is the deterministic merge of a sweep's unit results: one
// row per candidate, in grid order. Rows are read-only: rows of one unit
// with equal per-reference counts may share one Refs slice with each
// other and with the coordinator's retained copy.
type MergedReport struct {
	Schema     string     `json:"schema"`
	Sweep      string     `json:"sweep"`
	Program    string     `json:"program"`
	Candidates int        `json:"candidates"`
	Rows       []Row      `json:"rows"`
	Stats      SweepStats `json:"stats"`
}
