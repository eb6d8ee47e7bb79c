// Package advisor turns the analytical model into optimisation guidance —
// the use the paper motivates ("our method can be used to guide compiler
// locality optimisations") and its authors' follow-up work (Ghosh et al.,
// "Automated cache optimizations using CME driven diagnosis") develops.
//
// Two facilities are provided:
//
//   - Diagnose is EstimateMisses with miss attribution: the solver's own
//     sampled solve (cme.Analyzer.AttributeMissesCtx) attributes every
//     sampled replacement miss to the arrays whose lines supplied the
//     evicting set contentions, so its counts are EstimateMisses' and its
//     interference matrix is one a compiler (or human) can act on;
//   - SearchPadding and SearchParameter drive the analytical model over a
//     transformation space (inter-array pads, tile sizes, ...) and return
//     the predicted-best choice, without ever simulating.
package advisor

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
)

// Interference is one cell of the interference matrix: sampled evidence
// that Interferer's lines evict Victim's data.
type Interference struct {
	Victim     *ir.Array
	Interferer *ir.Array
	// Contentions counts contending-line observations in sampled
	// replacement misses, scaled to the victim's full access count.
	Contentions float64
}

// Diagnosis summarises a sampled diagnostic pass.
type Diagnosis struct {
	Config cache.Config
	// Refs are the per-reference counts of the sampled solve: those
	// EstimateMisses reports under the same options and plan.
	Refs []*cme.RefReport
	// Estimated access-weighted totals of the references analysed.
	Accesses float64
	Hits     float64
	Cold     float64
	Repl     float64
	// Matrix is the interference list, heaviest first.
	Matrix []Interference
	// SelfInterference is the portion of replacement misses whose
	// contentions come from the victim array itself.
	SelfInterference float64
	Elapsed          time.Duration
}

// MissRatio returns the diagnosed miss ratio in percent.
func (d *Diagnosis) MissRatio() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return 100 * (d.Cold + d.Repl) / d.Accesses
}

// Top returns the n heaviest interference pairs.
func (d *Diagnosis) Top(n int) []Interference {
	if n > len(d.Matrix) {
		n = len(d.Matrix)
	}
	return d.Matrix[:n]
}

// Diagnose runs a sampled diagnostic analysis: EstimateMisses' sampled
// solve with every sampled replacement miss attributed to the arrays that
// supplied its contending lines, the evidence aggregated per (victim
// array, interferer array).
func Diagnose(np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan) (*Diagnosis, error) {
	return DiagnoseCtx(context.Background(), np, cfg, opt, plan, budget.Budget{})
}

// DiagnoseCtx is Diagnose under a context and a budget, with the sampled
// solver's checkpoints, workers and Adaptive sampling. Diagnosis needs
// pointwise attribution, so there is no cheaper tier to degrade to: an
// interrupted run returns the partial diagnosis (covering the points
// classified so far, scaled to their references' access counts) together
// with ErrCanceled or ErrBudgetExceeded.
func DiagnoseCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) (*Diagnosis, error) {
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return nil, err
	}
	// Per victim reference, contention counts per interfering array. A
	// reference's accesses are attributed by one goroutine, so each inner
	// map has a single writer.
	tallies := make(map[*ir.NRef]map[*ir.Array]int64, len(np.Refs))
	for _, r := range np.Refs {
		tallies[r] = map[*ir.Array]int64{}
	}
	rep, serr := a.AttributeMissesCtx(ctx, b, plan, func(r *ir.NRef, o cme.Outcome, culprits []*ir.NRef) {
		if o == cme.ReplacementMiss {
			t := tallies[r]
			for _, c := range culprits {
				t[c.Array]++
			}
		}
	})
	if rep == nil {
		return nil, serr
	}
	// Scale each reference's sample to its population in reference order,
	// so the sums do not depend on the worker count. Every replacement
	// miss has exactly Assoc culprits, each carrying 1/Assoc of it.
	d := &Diagnosis{Config: cfg, Refs: rep.Refs}
	cells := map[[2]*ir.Array]float64{}
	var self float64
	for _, rr := range rep.Refs {
		if rr.Analyzed == 0 {
			continue
		}
		scale := float64(rr.Volume) / float64(rr.Analyzed)
		d.Accesses += float64(rr.Volume)
		d.Hits += float64(rr.Hits) * scale
		d.Cold += float64(rr.Cold) * scale
		d.Repl += float64(rr.Repl) * scale
		for arr, n := range tallies[rr.Ref] {
			w := float64(n) * scale / float64(cfg.Assoc)
			cells[[2]*ir.Array{rr.Ref.Array, arr}] += w
			if arr == rr.Ref.Array {
				self += w
			}
		}
	}
	for k, v := range cells {
		d.Matrix = append(d.Matrix, Interference{Victim: k[0], Interferer: k[1], Contentions: v})
	}
	sort.Slice(d.Matrix, func(i, j int) bool {
		x, y := d.Matrix[i], d.Matrix[j]
		if x.Contentions != y.Contentions {
			return x.Contentions > y.Contentions
		}
		if x.Victim.Name != y.Victim.Name {
			return x.Victim.Name < y.Victim.Name
		}
		return x.Interferer.Name < y.Interferer.Name
	})
	if d.Repl > 0 {
		d.SelfInterference = self / d.Repl
	}
	d.Elapsed = rep.Elapsed
	return d, serr
}

// Choice is one evaluated transformation candidate.
type Choice struct {
	Label     string
	MissRatio float64 // predicted, percent
	// ClosedForm reports that the ratio came from closed-form
	// evaluation rather than an enumerating solve: the scaling tier's
	// fitted polynomials in SearchParameterCtx (the candidate was dominated
	// under the symbolic estimate, so no per-size solve was spent on it),
	// or the set-count tier in SearchConfigs (every reference of the
	// geometry copied from its line size's anchor or pure cold).
	ClosedForm bool
}

// SearchPadding evaluates inter-array paddings analytically and returns
// the candidates sorted by predicted miss ratio (best first). build must
// return a fresh Program each call (layout mutates array bases).
func SearchPadding(build func() *ir.Program, array string, pads []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, error) {

	return SearchPaddingCtx(context.Background(), build, array, pads, cfg, opt, plan, budget.Budget{})
}

// SearchPaddingCtx is SearchPadding under a context and a budget. The
// deadline (and the context) spans the whole search; the point and scan
// caps apply per candidate, since each candidate is an independent
// estimate. An interrupted search returns the candidates evaluated so far
// (sorted) together with the interruption error, so a caller can still
// act on the best choice seen.
//
// Unbudgeted searches ride the batch solver: the program is prepared once
// (normalise, reuse vectors, polyhedra) and every padding is a layout
// candidate of one cme.SolveBatch sweep, which keeps the worker pool
// saturated across candidates and shares all geometry-invariant state.
// Budgeted searches keep the per-candidate path, whose incremental
// degradation semantics SolveBatch deliberately does not replicate.
func SearchPaddingCtx(ctx context.Context, build func() *ir.Program, array string, pads []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) ([]Choice, error) {

	if b.IsZero() {
		np, _, err := spec.FrontEnd{}.Run(build())
		if err != nil {
			return nil, err
		}
		p, err := cme.Prepare(np, opt)
		if err != nil {
			return nil, err
		}
		cands := make([]cme.Candidate, len(pads))
		for i, pad := range pads {
			cands[i] = cme.Candidate{
				Label:  fmt.Sprintf("pad=%d", pad),
				Config: cfg,
				Layout: &layout.Options{PadOf: map[string]int64{array: pad}},
			}
		}
		reps, err := p.SolveBatch(ctx, cands, cme.BatchOptions{Plan: &plan})
		var out []Choice
		for i, rep := range reps {
			if rep != nil && rep.CompleteRefs() == len(rep.Refs) {
				out = append(out, Choice{Label: cands[i].Label, MissRatio: rep.MissRatio()})
			}
		}
		sortChoices(out)
		return out, err
	}

	var out []Choice
	for _, pad := range pads {
		np, _, err := spec.FrontEnd{Layout: layout.Options{PadOf: map[string]int64{array: pad}}}.Run(build())
		if err != nil {
			return nil, err
		}
		rep, err := estimateCtx(ctx, np, cfg, opt, plan, b)
		if err != nil {
			sortChoices(out)
			return out, err
		}
		out = append(out, Choice{Label: fmt.Sprintf("pad=%d", pad), MissRatio: rep})
	}
	sortChoices(out)
	return out, nil
}

// SearchConfigs sweeps cache geometries against one program: the batch
// formulation of the "which cache would this code like" question. The
// program is prepared once; every geometry is one candidate of a single
// SolveBatch sweep. A nil plan solves exactly — and exact sweeps engage
// the set-count closed-form tier automatically, so the stable geometries
// of a line size cost one anchor solve plus a copy per remaining
// geometry (Choice.ClosedForm marks those candidates). Results
// come back sorted by predicted miss ratio, best first.
func SearchConfigs(ctx context.Context, build func() *ir.Program, cfgs []cache.Config,
	opt cme.Options, plan *sampling.Plan) ([]Choice, error) {

	np, _, err := spec.FrontEnd{}.Run(build())
	if err != nil {
		return nil, err
	}
	p, err := cme.Prepare(np, opt)
	if err != nil {
		return nil, err
	}
	cands := make([]cme.Candidate, len(cfgs))
	for i, cfg := range cfgs {
		cands[i] = cme.Candidate{Label: cfg.String(), Config: cfg}
	}
	reps, err := p.SolveBatch(ctx, cands, cme.BatchOptions{Plan: plan})
	var out []Choice
	for i, rep := range reps {
		if rep != nil && rep.CompleteRefs() == len(rep.Refs) {
			out = append(out, Choice{Label: cands[i].Label, MissRatio: rep.MissRatio(),
				ClosedForm: rep.Geom.Closed()})
		}
	}
	sortChoices(out)
	return out, err
}

// SearchParameter evaluates a parameterised family of programs (tile
// sizes, loop orders, ...) and returns the candidates sorted by predicted
// miss ratio.
func SearchParameter(build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, error) {

	return SearchParameterCtx(context.Background(), build, params, cfg, opt, plan, budget.Budget{})
}

// SearchParameterCtx is SearchParameter under a context and a budget, with
// the same semantics as SearchPaddingCtx: global deadline, per-candidate
// point/scan caps, and partial (sorted) results on interruption.
//
// Unbudgeted searches try the closed-form scaling tier first: when the
// family is affine in the parameter, every candidate is priced by
// closed-form evaluation and only the non-dominated (best) candidate
// pays for a per-size solve — the ROADMAP's "prune before paying for
// exact". Families the tier cannot lift (tile sizes inside min() bounds,
// structure changes) take the per-candidate path unchanged.
func SearchParameterCtx(ctx context.Context, build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) ([]Choice, error) {

	if b.IsZero() {
		if out, ok, err := searchParameterClosed(ctx, build, params, cfg, opt, plan); ok {
			return out, err
		}
	}
	var out []Choice
	for _, v := range params {
		np, _, err := spec.FrontEnd{}.Run(build(v))
		if err != nil {
			return nil, err
		}
		rep, err := estimateCtx(ctx, np, cfg, opt, plan, b)
		if err != nil {
			sortChoices(out)
			return out, err
		}
		out = append(out, Choice{Label: fmt.Sprintf("%d", v), MissRatio: rep})
	}
	sortChoices(out)
	return out, nil
}

// searchParameterClosed is the scaling-tier fast path of
// SearchParameterCtx. ok=false means the family is not liftable (or no
// candidate was covered) and the caller should run the plain search.
func searchParameterClosed(ctx context.Context, build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, bool, error) {

	s, err := cme.PrepareScaling(func(n int64) (*ir.NProgram, error) {
		np, _, err := spec.FrontEnd{}.Run(build(n))
		return np, err
	}, cfg, opt, cme.ScalingOptions{})
	if err != nil || !s.ClosedFormEligible() {
		return nil, false, nil
	}
	// The closed form only covers sizes at or beyond the fit window, and
	// EvalClosedCtx refuses smaller ones without solving anything: when
	// every requested parameter is that small, nothing is covered and the
	// plain per-candidate search runs instead.
	type cand struct {
		v      int64
		ratio  float64
		closed bool
	}
	cands := make([]cand, len(params))
	covered := 0
	for i, v := range params {
		cands[i] = cand{v: v}
		rep, ok, err := s.EvalClosedCtx(ctx, v)
		if err != nil || !ok {
			continue // fit failed or out of chamber: priced by a real solve below
		}
		cands[i].ratio, cands[i].closed = rep.MissRatio(), true
		covered++
	}
	if covered == 0 {
		return nil, false, nil
	}
	// The best symbolic candidate is confirmed by the standard estimator;
	// dominated candidates keep their closed-form ratio and skip the solve.
	best := -1
	for i, c := range cands {
		if c.closed && (best < 0 || c.ratio < cands[best].ratio) {
			best = i
		}
	}
	var out []Choice
	for i, c := range cands {
		label := fmt.Sprintf("%d", c.v)
		if c.closed && i != best {
			out = append(out, Choice{Label: label, MissRatio: c.ratio, ClosedForm: true})
			continue
		}
		np, _, err := spec.FrontEnd{}.Run(build(c.v))
		if err != nil {
			return nil, true, err
		}
		ratio, err := estimateCtx(ctx, np, cfg, opt, plan, budget.Budget{})
		if err != nil {
			sortChoices(out)
			return out, true, err
		}
		out = append(out, Choice{Label: label, MissRatio: ratio})
	}
	sortChoices(out)
	return out, true, nil
}

// Frontier selects the non-dominated prefix of a best-first choice list
// (as returned by the Search* functions): the best max(1, keep) choices
// always survive, plus every further choice whose predicted miss ratio is
// within marginPct percent (relative) of the best. Everything else is
// dominated — a cheaper-tier estimate already places it far enough behind
// the frontier that paying for an exact solve on it cannot change the
// answer. The distributed sweep coordinator uses this to prune a
// candidate grid under the sampled tier before sharding exact solves.
func Frontier(sorted []Choice, keep int, marginPct float64) []Choice {
	if len(sorted) == 0 {
		return nil
	}
	if keep < 1 {
		keep = 1
	}
	cut := sorted[0].MissRatio * (1 + marginPct/100)
	n := 0
	for i, c := range sorted {
		if i < keep || c.MissRatio <= cut {
			n = i + 1
			continue
		}
		break
	}
	return sorted[:n]
}

func sortChoices(cs []Choice) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].MissRatio < cs[j].MissRatio })
}

func estimateCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) (float64, error) {
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return 0, err
	}
	rep, err := a.EstimateMissesCtx(ctx, b, plan)
	if err != nil {
		return 0, err
	}
	return rep.MissRatio(), nil
}
