package cme

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/obs"
	"cachemodel/internal/poly"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

// BatchError reports the candidates a SolveBatch call could not solve
// (invalid configuration, failed layout, analyzer construction error).
// The batch continues past such candidates: their reports stay nil while
// every other candidate is solved normally, so callers can surface
// per-candidate failures instead of losing the whole sweep.
type BatchError struct {
	Errs map[int]error // candidate index → its error
}

func (e *BatchError) Error() string {
	idxs := make([]int, 0, len(e.Errs))
	for i := range e.Errs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var b strings.Builder
	fmt.Fprintf(&b, "%d of batch candidates failed:", len(e.Errs))
	for _, i := range idxs {
		fmt.Fprintf(&b, " [%d] %v;", i, e.Errs[i])
	}
	return strings.TrimSuffix(b.String(), ";")
}

// Candidate is one point of a design-space sweep: a cache geometry plus an
// optional inter-array layout. A nil Layout keeps the layout the program
// was Prepared under.
type Candidate struct {
	Label  string
	Config cache.Config
	// Layout, when non-nil, is applied (layout.AssignProgram) before this
	// candidate is solved. Candidates with equal layouts are grouped and
	// solved under one base-address assignment; SolveBatch restores the
	// baseline layout before returning.
	Layout *layout.Options
}

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Plan selects the sampled solver (EstimateMisses semantics, honouring
	// the Prepared Options' Seed and Adaptive flags); nil runs the exact
	// solver (FindMisses semantics) for every candidate.
	Plan *sampling.Plan
	// Cache, when non-nil, is consulted per (candidate, reference) before
	// solving and updated afterwards, so candidates repeated across
	// SolveBatch calls (or across processes, via Save/Load) are free.
	Cache *ResultCache
	// Workers sets the solver pool size (0 = GOMAXPROCS). Results are
	// bit-identical at any worker count.
	Workers int
	// Budget caps the whole batch (shared across candidates). On
	// exhaustion each candidate's unfinished references walk the same
	// degradation ladder as the solo solvers (sampled fallback, then
	// bounded), with per-candidate Degraded/Tier provenance. The zero
	// value imposes no limits.
	Budget budget.Budget
	// NoGeom disables the set-count closed-form tier (see
	// geom.go), forcing every exact candidate through the fused
	// enumerating solver — the ablation baseline for benchmarks and
	// equivalence tests. Users opt out with Options.NoSymbolic; the tier
	// is also off automatically for sampled plans, fault-hooked budgets
	// and dynamic reuse.
	NoGeom bool
}

// SolveBatch evaluates every candidate against the Prepared program and
// returns one Report per candidate, index-aligned with cands.
//
// The solve is organised to keep one worker pool saturated across the
// whole sweep instead of draining it per candidate:
//
//   - candidates are grouped by layout (array bases are global state, so
//     layout groups run sequentially, and a batch with a candidate layout
//     holds the Prepared exclusively; everything below is within a group);
//   - exact-tier candidates sharing a line size are FUSED: the cold
//     equation and the deciding reuse vector of an access depend only on
//     the line size, so one interval walk classifies the access for every
//     fused candidate at once, each with its own distinct-line scratch,
//     stopping position and verdict — bit-identical to per-candidate
//     FindMisses, including the logical scan counts;
//   - the work items of all fused groups — (candidate group, reference,
//     tile) — feed one pool, and the per-tile partial counts merge
//     deterministically in item order.
//
// FindMisses and EstimateMisses are this solver run on a batch of one.
// Sampled candidates (Plan != nil) are not fused — each (candidate,
// reference) is one pool item — but they share the Prepared state and the
// per-reference sample points (the sampling RNG is seeded per reference,
// independent of geometry), and remain bit-identical to per-candidate
// EstimateMisses under the same seed.
//
// Duplicate candidates inside one call are solved once and copied.
// SolveBatch honours ctx cancellation (returning cerr.ErrCanceled with
// the completed candidates' reports in place) and opt.Budget (degrading
// per candidate like the solo solvers). A candidate that cannot be
// solved at all — invalid configuration, failed layout — does not abort
// the batch: its report stays nil and the call returns a *BatchError
// naming every such candidate alongside the solved reports.
//
// Concurrent calls on one Prepared are safe: batches of baseline
// candidates run side by side, and a batch with a candidate layout waits
// for them and runs alone.
func (p *Prepared) SolveBatch(ctx context.Context, cands []Candidate, opt BatchOptions) ([]*Report, error) {
	return p.solveBatch(ctx, nil, cands, opt)
}

// solveBatch is SolveBatch charging m, or a meter of its own armed from
// opt.Budget when m is nil (a surface charges one meter for every size).
func (p *Prepared) solveBatch(ctx context.Context, m *budget.Meter, cands []Candidate, opt BatchOptions) ([]*Report, error) {
	start := time.Now()
	col := obs.FromContext(ctx)
	ctx, span := obs.StartSpan(ctx, "solve.batch")
	defer span.End()
	errs := map[int]error{}
	for i := range cands {
		if err := cands[i].Config.Validate(); err != nil {
			errs[i] = fmt.Errorf("candidate %d (%s): %w", i, cands[i].Label, err)
		}
	}
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	span.SetAttr("candidates", len(cands))
	span.SetAttr("workers", workers)
	mBatchCands.Add(int64(len(cands)))
	if opt.Plan != nil {
		if err := opt.Plan.Validate(); err != nil {
			return nil, err
		}
	}
	mode := p.batchMode(opt.Plan)

	// Candidate layouts mutate global array bases: such a batch holds the
	// Prepared exclusively and runs under a restore guard. A batch of
	// baseline candidates only reads the bases Prepare warmed, so batches
	// like it run side by side.
	var snap *baseSnapshot
	if relayouts(cands) {
		p.layoutMu.Lock()
		defer p.layoutMu.Unlock()
		snap = p.snapshotBases()
		defer func() {
			snap.restore()
			p.warmAddresses()
		}()
	} else {
		p.layoutMu.RLock()
		defer p.layoutMu.RUnlock()
	}

	if m == nil {
		m = budget.NewMeter(ctx, opt.Budget)
	}
	reports := make([]*Report, len(cands))
	// Layout groups over the solvable candidates, in first-appearance
	// order.
	var order []string
	members := map[string][]int{}
	for i := range cands {
		if errs[i] != nil {
			continue
		}
		key := layoutKey(cands[i].Layout)
		if _, ok := members[key]; !ok {
			order = append(order, key)
		}
		members[key] = append(members[key], i)
	}
	for _, key := range order {
		idxs := members[key]
		if err := p.applyLayout(cands[idxs[0]].Layout, snap); err != nil {
			// A failed layout sinks only its group's candidates.
			for _, ci := range idxs {
				errs[ci] = fmt.Errorf("candidate %d (%s): %w", ci, cands[ci].Label, err)
			}
			continue
		}
		if err := p.solveLayoutGroup(ctx, m, col, cands, idxs, mode, opt, workers, reports, errs); err != nil {
			// Cancellation / hard budget failure: abort the whole batch.
			stampBatch(reports, start)
			return reports, err
		}
	}
	stampBatch(reports, start)
	if len(errs) > 0 {
		return reports, &BatchError{Errs: errs}
	}
	return reports, nil
}

// stampBatch stamps the shared elapsed time on every solved report.
func stampBatch(reports []*Report, start time.Time) {
	for _, rep := range reports {
		if rep != nil {
			rep.Elapsed = time.Since(start)
		}
	}
}

// baseSnapshot remembers every array base so candidate layouts can be
// rolled back. Alias targets outside np.Arrays are included: layout
// resolves alias chains to concrete bases, and those concrete arrays may
// only be reachable through the chain.
type baseSnapshot struct {
	arrays []*ir.Array
	bases  []int64
}

func (p *Prepared) snapshotBases() *baseSnapshot {
	seen := map[*ir.Array]bool{}
	var arrays []*ir.Array
	add := func(a *ir.Array) {
		if !seen[a] {
			seen[a] = true
			arrays = append(arrays, a)
		}
	}
	for _, a := range p.np.Arrays {
		add(a)
		for t := a.Alias; t != nil; t = t.Alias {
			add(t)
		}
	}
	s := &baseSnapshot{arrays: arrays, bases: make([]int64, len(arrays))}
	for i, a := range arrays {
		s.bases[i] = a.Base
	}
	return s
}

func (s *baseSnapshot) restore() {
	for i, a := range s.arrays {
		a.Base = s.bases[i]
	}
}

// warmAddresses sequentially rebuilds every reference's cached linearised
// address for the bases currently in effect, so parallel workers (and
// later callers) only ever read the cache.
func (p *Prepared) warmAddresses() {
	idx := make([]int64, p.np.Depth)
	for _, r := range p.np.Refs {
		r.AddressAt(idx)
	}
}

// relayouts reports whether any candidate applies a layout of its own.
func relayouts(cands []Candidate) bool {
	for _, c := range cands {
		if c.Layout != nil {
			return true
		}
	}
	return false
}

// applyLayout applies a candidate layout (nil = the Prepared baseline) and
// re-warms addresses. Without a snapshot the batch never left the
// baseline, so there is nothing to restore.
func (p *Prepared) applyLayout(lo *layout.Options, snap *baseSnapshot) error {
	switch {
	case lo != nil:
		if err := layout.AssignProgram(p.np, *lo); err != nil {
			return err
		}
	case snap != nil:
		snap.restore()
	default:
		return nil
	}
	p.warmAddresses()
	return nil
}

// layoutKey derives a grouping key for a layout candidate: equal options
// produce equal assignments, so equal keys may share one application.
func layoutKey(lo *layout.Options) string {
	if lo == nil {
		return "baseline"
	}
	names := make([]string, 0, len(lo.PadOf))
	for n := range lo.PadOf {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "s%d:a%d:p%d:z%d", lo.Start, lo.Align, lo.InterPad, lo.AssumedSizeElems)
	for _, n := range names {
		fmt.Fprintf(&b, ":%s=%d", n, lo.PadOf[n])
	}
	return b.String()
}

// candKey identifies duplicate candidates within one layout group.
func candKey(cfg cache.Config) string {
	return fmt.Sprintf("%d/%d/%d", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc)
}

// solveLayoutGroup solves the candidates of one layout group (bases
// already applied and warmed) and fills their reports. Per-candidate
// construction failures land in errs; the returned error is reserved for
// whole-batch aborts (cancellation, NoFallback budget exhaustion).
func (p *Prepared) solveLayoutGroup(ctx context.Context, m *budget.Meter, col *obs.Collector, cands []Candidate, idxs []int, mode solveMode, opt BatchOptions, workers int, reports []*Report, errs map[int]error) error {
	// Deduplicate identical (geometry, mode) candidates inside the group.
	firstOf := map[string]int{}
	var solve []int // candidate indices that actually solve
	dupOf := map[int]int{}
	for _, ci := range idxs {
		k := candKey(cands[ci].Config)
		if fi, ok := firstOf[k]; ok {
			dupOf[ci] = fi
		} else {
			firstOf[k] = ci
			solve = append(solve, ci)
		}
	}
	mBatchDedup.Add(int64(len(dupOf)))

	states := make([]*batchCand, 0, len(solve))
	for _, ci := range solve {
		a, err := p.Analyzer(cands[ci].Config)
		if err != nil {
			errs[ci] = fmt.Errorf("candidate %d (%s): %w", ci, cands[ci].Label, err)
			continue
		}
		cs := newBatchCand(a, ci, cands[ci].Label, mode.sampled)
		states = append(states, cs)
		reports[ci] = cs.rep
	}

	// Set-count tier (geom.go): plan line sizes first. It clears the need
	// masks of the (member, ref) pairs it will answer in closed form, so
	// the fused pass below only solves the anchors and the unstable
	// members; finishGeom fills (or refuses and re-solves) after. Planning
	// comes before the result cache, so which pairs the tier answers, and
	// the provenance it stamps, depend on the grid alone and never on
	// what an earlier solve left in the cache. Only exact batches without
	// a fault hook are eligible: plain deadline/point/scan budgets are
	// fine (an interrupted anchor fails the census check and falls through
	// per reference, and a closed-form fill costs the meter nothing), but
	// injected faults must see the enumerating solver to keep fault-parity
	// tests meaningful.
	var gp []*geomClass
	if !mode.sampled && !opt.NoGeom && opt.Budget.Hook == nil && !p.opt.NoSymbolic && p.dyn == nil {
		gp = p.planGeom(states)
	}
	if opt.Cache != nil {
		for _, cs := range states {
			cs.keys = make([]rcKey, len(p.np.Refs))
			for ri, r := range p.np.Refs {
				cs.keys[ri] = refKey(p.Digest(), r, p.np, cands[cs.ci].Config, mode)
				if !cs.need[ri] {
					continue // the set-count tier answers it
				}
				if v, ok := opt.Cache.get(cs.keys[ri]); ok {
					v.fill(cs.rep.Refs[ri])
					cs.need[ri] = false
				}
			}
		}
	}

	if mode.sampled {
		p.solveSampled(m, col, "solve.batch", states, *opt.Plan, workers, nil)
	} else {
		p.solveExactFused(m, col, "solve.batch", states, workers)
		if gp != nil {
			p.finishGeom(m, col, workers, gp)
		}
	}
	// Publish solved results to the cache BEFORE any degradation:
	// complete refs only, still at the requested tier, so neither a
	// cancelled run nor a degraded one can poison the store (a degraded
	// ref is re-completed at a cheaper tier under the same key, and no
	// stored entry is ever bounded).
	if opt.Cache != nil {
		for _, cs := range states {
			for ri := range p.np.Refs {
				if cs.need[ri] && cs.rep.Refs[ri].Complete {
					opt.Cache.put(cs.keys[ri], snapRef(cs.rep.Refs[ri]))
				}
			}
		}
	}
	// Degradation ladder for whatever the budget cut short, per candidate.
	fallback := sampling.DefaultFallback
	if mode.sampled {
		fallback = mode.plan
	}
	derr := p.degradeBatch(ctx, m, states, fallback)
	for dup, src := range dupOf {
		if reports[src] == nil {
			errs[dup] = errs[src]
			continue
		}
		reports[dup] = copyReport(reports[src], cands[dup].Config)
	}
	return derr
}

// degradeBatch walks the degradation ladder for every candidate with
// budget-interrupted references: one shared Grace re-arms the meter,
// incomplete exact-tier refs are resampled under the fallback plan (the
// paper's widened interval after an exact pass), and whatever still
// cannot finish is settled on the counts it reached: an interrupted
// sample stays TierSampled at the size it reached (its interval widens
// with it), and every other reference becomes TierBounded. A meter
// grants one Grace: once it has been spent (by an earlier layout group,
// or an earlier size of a surface), a second exhaustion settles at once.
// Cancellation, isolated panics, injected transient faults and NoFallback
// budgets abort instead of degrading — their partial counts carry no
// guarantee worth papering over. Every report leaves with its aggregate
// provenance stamped.
func (p *Prepared) degradeBatch(ctx context.Context, m *budget.Meter, states []*batchCand, fallback sampling.Plan) error {
	settle := func() {
		for _, cs := range states {
			cs.rep.settle(m)
		}
	}
	err := m.Err()
	if err == nil {
		settle()
		return nil
	}
	if errors.Is(err, cerr.ErrCanceled) || errors.Is(err, cerr.ErrPanic) ||
		errors.Is(err, cerr.ErrTransient) || m.NoFallback() {
		settle()
		return err
	}
	_, dspan := obs.StartSpan(ctx, "degrade")
	defer dspan.End()
	// TierSampled rung, for references an exact pass left unfinished
	// (skipped when the interrupted pass already was the sampling pass).
	// Every candidate with an unfinished reference is degraded.
	resample := false
	for _, cs := range states {
		for _, rr := range cs.rep.Refs {
			if !rr.Complete {
				cs.rep.Degraded = true
				resample = resample || rr.Tier == TierExact
			}
		}
	}
	if resample && m.Spent().Graces == 0 {
		m.Grace()
		for _, cs := range states {
			// Once the grace runs out, the other candidates' resamples
			// would each classify a flush of points only to be discarded.
			if m.Err() != nil {
				break
			}
			if !cs.rep.Degraded {
				continue
			}
			if serr := cs.a.resampleIncomplete(m, cs.rep, fallback); errors.Is(serr, cerr.ErrCanceled) {
				settle()
				return serr
			}
		}
	}
	// Bounded rung: no further work, so it cannot exhaust.
	for _, cs := range states {
		for _, rr := range cs.rep.Refs {
			if rr.Complete {
				continue
			}
			if !rr.Sampled || rr.Analyzed == 0 {
				rr.Tier, rr.Sampled = TierBounded, false
				mDegradeBounded.Inc()
			} else {
				mDegradeSampled.Inc()
			}
			rr.Complete = true
		}
	}
	settle()
	tier := TierExact
	for _, cs := range states {
		tier = max(tier, cs.rep.Tier)
	}
	dspan.SetAttr("tier", tier.String())
	return nil
}

// copyReport deep-copies a report for a duplicate candidate.
func copyReport(src *Report, cfg cache.Config) *Report {
	out := &Report{Config: cfg, Sampled: src.Sampled, Tier: src.Tier, Elapsed: src.Elapsed,
		Degraded: src.Degraded, BudgetSpent: src.BudgetSpent}
	if src.Geom != nil {
		g := *src.Geom
		out.Geom = &g
	}
	out.Refs = make([]*RefReport, len(src.Refs))
	for i, rr := range src.Refs {
		cp := *rr
		out.Refs[i] = &cp
	}
	return out
}

// batchCand is the solve state of one non-duplicate candidate within a
// layout group: its analyzer, its report under construction, its result
// cache keys (nil without a cache), and the per-reference need mask
// (false where the result cache already supplied the answer).
type batchCand struct {
	ci    int
	label string
	a     *Analyzer
	rep   *Report
	keys  []rcKey
	need  []bool
}

// newBatchCand opens the solve state of one candidate: an empty report
// with every reference still needed.
func newBatchCand(a *Analyzer, ci int, label string, sampled bool) *batchCand {
	n := len(a.np.Refs)
	cs := &batchCand{ci: ci, label: label, a: a,
		rep:  &Report{Config: a.cfg, Sampled: sampled, Refs: make([]*RefReport, n)},
		need: make([]bool, n),
	}
	for ri, r := range a.np.Refs {
		cs.rep.Refs[ri] = &RefReport{Ref: r, Volume: a.p.spaces[r.Stmt].Volume()}
		cs.need[ri] = true
	}
	return cs
}

// runLabeled runs one pool work item, behind pprof labels naming its
// candidate(s), reference and tile when Options.ProfileLabels is set, so
// CPU profiles attribute samples to individual work items.
func (p *Prepared) runLabeled(cand, ref, tile string, run func()) {
	if !p.opt.ProfileLabels {
		run()
		return
	}
	labels := pprof.Labels("ref", ref, "tile", tile)
	if cand != "" {
		labels = pprof.Labels("candidate", cand, "ref", ref, "tile", tile)
	}
	pprof.Do(context.Background(), labels, func(context.Context) { run() })
}

// solveSampled runs the sampled solver of Fig. 6 (right) for every needed
// (candidate, reference) pair as one pool of items, reporting progress
// under stage. Each item samples with its own one-candidate classifier;
// the sampling RNG is seeded per reference, independently of the
// geometry, so a candidate's report does not depend on the batch around
// it or on the worker count. A non-nil sink attributes every classified
// access (AttributeMissesCtx); batches pass nil.
func (p *Prepared) solveSampled(m *budget.Meter, col *obs.Collector, stage string, states []*batchCand, plan sampling.Plan, workers int, sink Attribution) {
	type item struct {
		cs *batchCand
		ri int
	}
	var items []item
	var planned int64
	for _, cs := range states {
		for ri, r := range p.np.Refs {
			if cs.need[ri] {
				items = append(items, item{cs, ri})
				_, n, _ := planFor(plan, p.spaces[r.Stmt].Volume())
				planned += n
			}
		}
	}
	queue := make(chan item, len(items))
	for _, it := range items {
		queue <- it
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guardWorker(m)
			walker := trace.NewWalker(p.np)
			pb := m.Probe()
			defer pb.Drain()
			for it := range queue {
				if m.Err() != nil {
					return // the meter tripped
				}
				a := it.cs.a
				fc := a.newClassifier(walker, sink != nil)
				work := a.sampleWorker(plan, sink)
				r := p.np.Refs[it.ri]
				rr := it.cs.rep.Refs[it.ri]
				p.runLabeled(it.cs.label, r.ID, "full", func() { work(fc, r, rr, pb) })
				fc.release()
				cur := r.ID
				if it.cs.label != "" {
					cur = it.cs.label + "/" + cur
				}
				col.AddProgress(stage, rr.Analyzed, planned, cur)
			}
		}()
	}
	wg.Wait()
}

// fuseGroup is the unit of exact solving: the candidates of one layout
// group that share a line size (a solo solve is a group of one). Within
// the group, an access's memory line, its cold equations and hence its
// deciding reuse vector are identical for every candidate, so one
// interval walk decides them all.
type fuseGroup struct {
	lineBytes int64
	ls        *lineShared
	cands     []*batchCand
	// active[ri] lists the candidate positions (into cands) that still
	// need reference ri (result-cache misses).
	active [][]int
}

// solveExactFused is the exact solver of Fig. 6 (left), shared by
// FindMisses (one candidate) and SolveBatch: candidates are bucketed by
// line size, each bucket's (reference, tile) items are solved for all
// bucket candidates in one pass, and all buckets share one pool. Every
// reference's RIS is split into tiles in proportion to its share of the
// program's points, and the per-tile partial counts are summed into
// per-candidate reports in fixed item order, so the merged reports are
// bit-identical at any worker count. A reference is Complete only if all
// its tiles ran to completion. Progress is reported under stage.
func (p *Prepared) solveExactFused(m *budget.Meter, col *obs.Collector, stage string, states []*batchCand, workers int) {
	groups := map[int64]*fuseGroup{}
	var order []*fuseGroup
	for _, cs := range states {
		lb := cs.a.cfg.LineBytes
		g := groups[lb]
		if g == nil {
			g = &fuseGroup{lineBytes: lb, ls: cs.a.ls}
			groups[lb] = g
			order = append(order, g)
		}
		g.cands = append(g.cands, cs)
	}
	for _, g := range order {
		g.active = make([][]int, len(p.np.Refs))
		for ri := range p.np.Refs {
			for pos, cs := range g.cands {
				if cs.need[ri] {
					g.active[ri] = append(g.active[ri], pos)
				}
			}
		}
	}

	// Work items: (group, ref, tile), tiled proportionally to volume so
	// one dominant nest spreads across the pool.
	type tileItem struct {
		g    *fuseGroup
		ri   int
		tile poly.Tile
		// parts[k] holds the partial counts of g.active[ri][k]'s candidate.
		parts []RefReport
		done  bool
	}
	var totVol int64
	for _, r := range p.np.Refs {
		totVol += p.spaces[r.Stmt].Volume()
	}
	target := int64(tileFactor * workers)
	var items []*tileItem
	for _, g := range order {
		for ri, r := range p.np.Refs {
			if len(g.active[ri]) == 0 {
				continue
			}
			vol := p.spaces[r.Stmt].Volume()
			n := 1
			if totVol > 0 {
				n = int((vol*target + totVol - 1) / totVol)
				if n < 1 {
					n = 1
				}
			}
			// Keep the reference's best replication dimension contiguous so
			// tiling does not truncate symbolic runs. The choice derives
			// from the symbolic info regardless of NoSymbolic, so both
			// modes tile identically.
			for _, t := range p.spaces[r.Stmt].TilesAvoiding(n, p.symInfo(g.ls)[r].avoid) {
				items = append(items, &tileItem{g: g, ri: ri, tile: t,
					parts: make([]RefReport, len(g.active[ri]))})
			}
		}
	}
	// Progress denominator: every (active candidate, ref) pair classifies
	// the ref's full volume.
	var progTotal int64
	for _, g := range order {
		for ri, r := range p.np.Refs {
			progTotal += int64(len(g.active[ri])) * p.spaces[r.Stmt].Volume()
		}
	}
	queue := make(chan *tileItem, len(items))
	for _, it := range items {
		queue <- it
	}
	close(queue)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guardWorker(m)
			walker := trace.NewWalker(p.np)
			fcs := map[*fuseGroup]*fusedClassifier{}
			defer func() {
				for _, fc := range fcs {
					fc.release()
				}
			}()
			pb := m.Probe()
			defer pb.Drain()
			for it := range queue {
				if m.Err() != nil {
					return // the meter tripped
				}
				fc := fcs[it.g]
				if fc == nil {
					fc = newFusedClassifier(it.g, walker, p)
					fcs[it.g] = fc
				}
				var rerr error
				p.runLabeled(it.g.candLabel(it.ri), p.np.Refs[it.ri].ID, tileLabel(it.tile), func() {
					rerr = fc.runTile(it.ri, it.tile, it.g.active[it.ri], it.parts, pb)
				})
				if rerr != nil {
					return // meter tripped; the merge leaves this ref incomplete
				}
				it.done = true
				var delta int64
				for k := range it.parts {
					delta += it.parts[k].Analyzed
				}
				col.AddProgress(stage, delta, progTotal, p.np.Refs[it.ri].ID)
			}
		}()
	}
	wg.Wait()

	// Deterministic merge in item order.
	complete := map[*fuseGroup][]bool{}
	for _, g := range order {
		cc := make([]bool, len(p.np.Refs))
		for i := range cc {
			cc[i] = true
		}
		complete[g] = cc
	}
	for _, it := range items {
		for k, pos := range it.g.active[it.ri] {
			rr := it.g.cands[pos].rep.Refs[it.ri]
			rr.Analyzed += it.parts[k].Analyzed
			rr.Hits += it.parts[k].Hits
			rr.Cold += it.parts[k].Cold
			rr.Repl += it.parts[k].Repl
		}
		if !it.done {
			complete[it.g][it.ri] = false
		}
	}
	for _, g := range order {
		for ri := range p.np.Refs {
			for _, pos := range g.active[ri] {
				rr := g.cands[pos].rep.Refs[ri]
				rr.Tier = TierExact
				rr.Complete = complete[g][ri]
			}
		}
	}
}

// candLabel renders the fused candidates active for a reference as one
// profile label value.
func (g *fuseGroup) candLabel(ri int) string {
	names := make([]string, len(g.active[ri]))
	for k, pos := range g.active[ri] {
		names[k] = g.cands[pos].label
	}
	return strings.Join(names, "+")
}
