// Package dist is the horizontal execution fabric for design-space
// sweeps: a coordinator/worker layer that shards `cme.SolveBatch` work
// across processes and machines while preserving the repository's
// bit-identity guarantee.
//
// The coordinator decomposes a sweep into content-addressed work units —
// consecutive runs of the candidate grid, keyed by the same SHA-256
// `Prepared.SolveKey` scheme the result cache uses — and hands them to
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
// SolveBatch is bit-identical per candidate at any worker count, a unit's
// batch over a candidate subset produces the same per-candidate reports
// as the full batch, the wire rows exclude every nondeterministic field
// (elapsed time, budget spend), and the merge writes rows by candidate
// index — so the merged report is byte-identical to a single-process
// SolveBatch run at any worker count or failure schedule.
package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/fparse"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/sampling"
)

// ProgramSpec names the program a sweep analyses: a built-in workload
// (Program) or inline FORTRAN source (Source, with compile-time Consts).
// It mirrors the serve layer's wire form so clients can reuse payloads.
type ProgramSpec struct {
	Program string           `json:"program,omitempty"`
	Source  string           `json:"source,omitempty"`
	Consts  map[string]int64 `json:"consts,omitempty"`
	Size    int64            `json:"size,omitempty"`  // default 32
	Iters   int64            `json:"iters,omitempty"` // default 2
}

// build instantiates and prepares the program (inline, normalise, assign
// the baseline layout). It applies no size bound: the coordinator admits
// a spec with checkSize first, and workers trust that admission.
func (s *ProgramSpec) build() (*ir.NProgram, error) {
	p, err := s.program()
	if err != nil {
		return nil, err
	}
	flat, _, err := inline.Flatten(p, inline.Options{})
	if err != nil {
		return nil, err
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		return nil, err
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		return nil, err
	}
	np.Name = p.Name
	return np, nil
}

// dims is the spec's problem size and iteration count, defaults applied.
func (s *ProgramSpec) dims() (size, iters int64, err error) {
	size, iters = s.Size, s.Iters
	if size == 0 {
		size = 32
	}
	if iters == 0 {
		iters = 2
	}
	if size < 1 || iters < 1 {
		return 0, 0, fmt.Errorf("size and iters must be positive (got %d, %d)", size, iters)
	}
	return size, iters, nil
}

// checkSize is the coordinator's admission bound on the problem size.
func (s *ProgramSpec) checkSize(maxSize int64) error {
	size, _, err := s.dims()
	if err != nil {
		return err
	}
	if size > maxSize {
		return fmt.Errorf("size %d exceeds the coordinator limit %d", size, maxSize)
	}
	return nil
}

// program instantiates the raw IR program from the spec.
func (s *ProgramSpec) program() (*ir.Program, error) {
	size, iters, err := s.dims()
	if err != nil {
		return nil, err
	}
	if s.Source != "" {
		if s.Program != "" {
			return nil, fmt.Errorf("set program or source, not both")
		}
		cm := map[string]int64{}
		for k, v := range s.Consts {
			cm[strings.ToUpper(k)] = v
		}
		return fparse.Parse(s.Source, cm)
	}
	switch strings.ToLower(s.Program) {
	case "":
		return nil, fmt.Errorf("missing program (or inline source)")
	case "tomcatv":
		return kernels.Tomcatv(size, iters), nil
	case "swim":
		return kernels.Swim(size, iters), nil
	case "applu":
		return kernels.Applu(size, iters), nil
	case "vcycle":
		return kernels.VCycle(size, iters), nil
	}
	for _, ks := range kernels.Suite() {
		if strings.EqualFold(ks.Name, s.Program) {
			return ks.Build(size), nil
		}
	}
	return nil, fmt.Errorf("unknown program %q", s.Program)
}

// SolveSpec is the result-affecting solve mode shared by a sweep and its
// units: it must travel with every unit so a worker reproduces exactly
// the solve the sweep key was derived from.
type SolveSpec struct {
	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"` // default 0.95 (sampled)
	Width      float64 `json:"width,omitempty"`      // default 0.05 (sampled)
	Adaptive   bool    `json:"adaptive,omitempty"`
	// Per-unit budget. A budgeted unit may degrade (recorded in row
	// provenance); bit-identity to a single-process run is only guaranteed
	// for unbudgeted sweeps, exactly as for SolveBatch itself.
	MaxPoints int64 `json:"max_points,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// plan validates the sampled-tier parameters (nil when exact).
func (s SolveSpec) plan() (*sampling.Plan, error) {
	if s.Exact {
		return nil, nil
	}
	conf, width := s.Confidence, s.Width
	if conf == 0 {
		conf = 0.95
	}
	if width == 0 {
		width = 0.05
	}
	plan := &sampling.Plan{C: conf, W: width}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
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

	// UnitSize is how many consecutive candidates one work unit carries
	// (default 1: maximal stealing granularity).
	UnitSize int `json:"unit_size,omitempty"`

	// NoColumnUnits opts out of geometry-column units. By default an
	// exact, unbudgeted sweep at the default unit size shards by geometry
	// column — every cache size sharing (line size, associativity, pad)
	// rides one unit — so the solving worker sees the whole size ladder
	// and the geometry-parametric closed-form tier answers most of it
	// from a few anchor solves. Counts are bit-identical either way (the
	// merged report never changes); this knob only restores the finer
	// per-candidate stealing granularity.
	NoColumnUnits bool `json:"no_column_units,omitempty"`

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
// is part of the sweep's content address and of the merged report.
// Invalid geometries stay in the grid and fail per candidate, exactly as
// in `cachette sweep`.
func (s *SweepSpec) grid() ([]WireCandidate, error) {
	css := s.CacheSizes
	if len(css) == 0 {
		css = []int64{4096, 8192, 16384, 32768, 65536}
	}
	lss := s.LineSizes
	if len(lss) == 0 {
		lss = []int64{32}
	}
	kss := s.Assocs
	if len(kss) == 0 {
		kss = []int{1, 2, 4}
	}
	padList := s.Pads
	if s.PadArray == "" && len(padList) > 0 {
		return nil, fmt.Errorf("pads given without pad_array")
	}
	if len(padList) == 0 {
		padList = []int64{0}
	}
	var wcs []WireCandidate
	for _, cs := range css {
		for _, ls := range lss {
			for _, k := range kss {
				cfg := cache.Config{SizeBytes: cs, LineBytes: ls, Assoc: k}
				for _, pad := range padList {
					wc := WireCandidate{Label: cfg.String(),
						CacheBytes: cs, LineBytes: ls, Assoc: k}
					if pad > 0 {
						wc.Label = fmt.Sprintf("%s+pad%d", cfg.String(), pad)
						wc.PadArray, wc.Pad = s.PadArray, pad
					}
					wcs = append(wcs, wc)
				}
			}
		}
	}
	return wcs, nil
}

// WireCandidate is the explicit wire form of one cme.Candidate: geometry
// plus optional padding layout, self-contained so a worker reconstructs
// the exact candidate without sharing memory with the coordinator.
type WireCandidate struct {
	Label      string `json:"label"`
	CacheBytes int64  `json:"cache_bytes"`
	LineBytes  int64  `json:"line_bytes"`
	Assoc      int    `json:"assoc"`
	PadArray   string `json:"pad_array,omitempty"`
	Pad        int64  `json:"pad,omitempty"`
}

// candidate reconstructs the solver candidate.
func (wc WireCandidate) candidate() cme.Candidate {
	c := cme.Candidate{Label: wc.Label,
		Config: cache.Config{SizeBytes: wc.CacheBytes, LineBytes: wc.LineBytes, Assoc: wc.Assoc}}
	if wc.Pad > 0 && wc.PadArray != "" {
		c.Layout = &layout.Options{PadOf: map[string]int64{wc.PadArray: wc.Pad}}
	}
	return c
}

// candidates converts a wire slice for the solver.
func candidates(wcs []WireCandidate) []cme.Candidate {
	out := make([]cme.Candidate, len(wcs))
	for i, wc := range wcs {
		out[i] = wc.candidate()
	}
	return out
}

// RefRow is the per-reference row of a candidate result: the raw counts,
// so bit-identity between a distributed and a single-process run is
// checkable from the merged report alone.
type RefRow struct {
	ID       string  `json:"id"`
	Volume   int64   `json:"volume"`
	Analyzed int64   `json:"analyzed"`
	Hits     int64   `json:"hits"`
	Cold     int64   `json:"cold"`
	Repl     int64   `json:"repl"`
	Tier     string  `json:"tier"`
	Ratio    float64 `json:"ratio,omitempty"`
}

// Row is one candidate's merged result. It deliberately carries no
// timing or budget-spend fields: everything in a Row is deterministic for
// an unbudgeted sweep, which is what makes the merged report
// byte-comparable across worker counts and failure schedules.
type Row struct {
	Label           string   `json:"label"`
	CacheBytes      int64    `json:"cache_bytes"`
	LineBytes       int64    `json:"line_bytes"`
	Assoc           int      `json:"assoc"`
	MissRatioPct    float64  `json:"miss_ratio_pct"`
	EstimatedMisses float64  `json:"estimated_misses"`
	Accesses        int64    `json:"accesses"`
	Tier            string   `json:"tier,omitempty"`
	Degraded        bool     `json:"degraded,omitempty"`
	Coverage        float64  `json:"coverage,omitempty"`
	Refs            []RefRow `json:"refs,omitempty"`
	Error           string   `json:"error,omitempty"`
	// Pruned marks a candidate the advisor frontier pass eliminated: the
	// ratio is the cheap-tier estimate, and no exact solve was spent.
	Pruned bool `json:"pruned,omitempty"`
}

// SolveLocal runs the sweep in this process — one Prepare, one
// SolveBatch over the whole grid — and renders the same wire rows a
// coordinator merges. It is the ground truth for `dist coordinate
// -check` and the 1-worker baseline for `bench -dist`: a distributed run
// is correct iff its merged rows match these bytes. Prune is rejected
// (pruned rows carry advisor estimates, which a plain batch never
// produces, so the comparison is meaningless by construction).
func (s *SweepSpec) SolveLocal(ctx context.Context, workers int) ([]Row, error) {
	if s.Prune {
		return nil, errors.New("dist: SolveLocal is incompatible with prune")
	}
	wcs, err := s.grid()
	if err != nil {
		return nil, err
	}
	np, err := s.ProgramSpec.build()
	if err != nil {
		return nil, err
	}
	prep, err := cme.Prepare(np, s.options())
	if err != nil {
		return nil, err
	}
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	reps, err := prep.SolveBatch(ctx, candidates(wcs), cme.BatchOptions{
		Plan: plan, Workers: workers, Budget: s.SolveSpec.budget(),
	})
	var be *cme.BatchError
	if err != nil && !errors.As(err, &be) {
		return nil, err
	}
	return RenderRows(wcs, reps, err), nil
}

// RenderRows renders a solve outcome into wire rows, index-aligned with
// cands. It is the single rendering path shared by workers and by
// single-process baselines, so "bit-identical" is a byte comparison of
// the rendered rows, not a field-by-field argument.
func RenderRows(cands []WireCandidate, reps []*cme.Report, err error) []Row {
	var batch *cme.BatchError
	errors.As(err, &batch)
	rows := make([]Row, len(cands))
	for i, wc := range cands {
		row := Row{Label: wc.Label, CacheBytes: wc.CacheBytes, LineBytes: wc.LineBytes, Assoc: wc.Assoc}
		var rep *cme.Report
		if i < len(reps) {
			rep = reps[i]
		}
		if rep == nil {
			switch {
			case batch != nil && batch.Errs[i] != nil:
				// Strip the solver's "candidate %d (label): " wrapper: the
				// index is batch-local, so it would differ between a unit's
				// sub-batch and the single-process full batch and break the
				// byte comparison. One unwrap removes exactly that layer.
				e := batch.Errs[i]
				if u := errors.Unwrap(e); u != nil {
					e = u
				}
				row.Error = e.Error()
			case err != nil:
				row.Error = err.Error()
			default:
				row.Error = "no report"
			}
			rows[i] = row
			continue
		}
		row.MissRatioPct = rep.MissRatio()
		row.EstimatedMisses = rep.EstimatedMisses()
		row.Accesses = rep.TotalAccesses()
		row.Tier = rep.Tier.String()
		row.Degraded = rep.Degraded
		row.Coverage = rep.Coverage()
		for _, rr := range rep.Refs {
			row.Refs = append(row.Refs, RefRow{ID: rr.Ref.ID, Volume: rr.Volume,
				Analyzed: rr.Analyzed, Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl,
				Tier: rr.Tier.String(), Ratio: rr.Ratio})
		}
		rows[i] = row
	}
	return rows
}

// ReportSchemaV1 identifies the merged-report JSON document.
const ReportSchemaV1 = "cachette/dist-report/v1"

// MergedReport is the deterministic merge of a sweep's unit results: one
// row per candidate, in grid order.
type MergedReport struct {
	Schema     string     `json:"schema"`
	Sweep      string     `json:"sweep"`
	Program    string     `json:"program"`
	Candidates int        `json:"candidates"`
	Rows       []Row      `json:"rows"`
	Stats      SweepStats `json:"stats"`
}
