package serve

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
	"cachemodel/internal/spec"
)

// ScalingRequest is the POST /v1/scaling body: one program family, one
// cache geometry, one size ladder. The server lifts the family to
// piecewise quasi-polynomials once and answers every ladder size by O(1)
// evaluation — sizes the closed form cannot cover fall through to
// per-size solves under the job's budget.
type ScalingRequest struct {
	ProgramSpec            // Size is ignored: the ladder carries the sizes
	Budget      BudgetSpec `json:"budget"`

	CacheBytes int64 `json:"cache_bytes,omitempty"` // default 32768
	LineBytes  int64 `json:"line_bytes,omitempty"`  // default 32
	Assoc      int   `json:"assoc,omitempty"`       // default 1

	// The ladder: explicit Ns, or From/To/Step (defaults 64/512/64).
	Ns   []int64 `json:"ns,omitempty"`
	From int64   `json:"from,omitempty"`
	To   int64   `json:"to,omitempty"`
	Step int64   `json:"step,omitempty"`

	// SizeConst names the inline-source constant carrying the problem
	// size (default "N"); ignored for built-in programs.
	SizeConst string `json:"size_const,omitempty"`

	Priority string `json:"priority,omitempty"`
}

// scalingSpec is the scaling-specific half of a jobSpec: the program
// family and the ladder, plus the solve's content key.
type scalingSpec struct {
	build cme.BuildFunc
	ns    []int64
	key   string
}

// specFromScaling validates a scaling request into a jobSpec. The jobSpec
// carries one candidate per ladder size (all the same geometry), so the
// generic result rendering and admission paths apply unchanged; np stays
// nil and attempt() branches on spec.scaling instead.
func (o *Options) specFromScaling(req *ScalingRequest) (*jobSpec, error) {
	fam, err := req.ProgramSpec.Family(req.SizeConst)
	if err != nil {
		return nil, err
	}
	ladder := spec.Ladder{Ns: req.Ns, From: cmp.Or(req.From, 64), To: cmp.Or(req.To, 512), Step: cmp.Or(req.Step, 64)}
	ns, err := ladder.Sizes(o.limits())
	if err != nil {
		return nil, err
	}
	cfg := spec.Cache(req.CacheBytes, req.LineBytes, req.Assoc)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bud, err := o.buildBudget(req.Budget)
	if err != nil {
		return nil, err
	}
	cands := make([]cme.Candidate, len(ns))
	for i, n := range ns {
		cands[i] = cme.Candidate{Label: fmt.Sprintf("N=%d", n), Config: cfg}
	}
	return &jobSpec{
		program: fam.Label,
		opt:     cme.Options{},
		cands:   cands,
		bud:     bud,
		cost:    bud.MaxPoints,
		scaling: &scalingSpec{build: fam.Build, ns: ns,
			key: scalingKey(fam.Label, req.Source, req.Consts, fam.SizeConst, fam.Iters, cfg, ns)},
	}, nil
}

// scalingKey content-addresses a scaling solve for singleflight dedup:
// family identity, geometry and ladder.
func scalingKey(label, source string, consts map[string]int64, sizeConst string,
	iters int64, cfg cache.Config, ns []int64) string {

	h := sha256.New()
	fmt.Fprintf(h, "scaling|%s|%s|%s|%d|%s|", label, source, sizeConst, iters, cfg)
	keys := make([]string, 0, len(consts))
	for k := range consts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d,", k, consts[k])
	}
	// The ladder is part of the key in order: results are index-aligned.
	for _, n := range ns {
		fmt.Fprintf(h, "%d;", n)
	}
	return "sc:" + hex.EncodeToString(h.Sum(nil))[:32]
}

// solveScaling is the flight leader's body for a scaling job: one
// symbolic lift, then the ladder. Budget semantics: the job budget meters
// every internal exact solve (fit samples and fall-through sizes), so a
// tight budget degrades per size instead of stalling the worker.
func (s *Server) solveScaling(ctx context.Context, col *obs.Collector, spec *jobSpec, bud budget.Budget) (out *solveOutcome) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			out = &solveOutcome{err: cerr.FromPanic(r)}
		}
	}()
	ctx = obs.NewContext(ctx, col)
	opt := spec.opt
	opt.Workers = s.opt.SolveWorkers
	sc := spec.scaling
	solver, err := cme.PrepareScaling(sc.build, spec.cands[0].Config, opt, cme.ScalingOptions{Budget: bud})
	if err != nil {
		return &solveOutcome{err: err}
	}
	reps, err := solver.SolveLadder(ctx, sc.ns)
	return &solveOutcome{reports: reps, err: err}
}

func (s *Server) handleScaling(w http.ResponseWriter, r *http.Request) {
	var req ScalingRequest
	if !decodeBody(w, r, &req) {
		return
	}
	prio, err := parsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, kindInvalid, err.Error(), 0)
		return
	}
	spec, err := s.opt.specFromScaling(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, kindInvalid, err.Error(), 0)
		return
	}
	s.enqueue(w, r, spec, prio)
}
