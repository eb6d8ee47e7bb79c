package main

import (
	"context"
	"fmt"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
)

// solo drives the solo solvers, one (program, cache) answer per request:
// exact-kernels with FindMisses, estimate-programs with EstimateMisses.
type solo struct {
	progs    []*program
	cfgs     []cache.Config
	estimate bool
}

func newExact(b *bench) workload { return &solo{progs: b.fx.exactProgs, cfgs: b.fx.exactCfgs} }

func newEstimate(b *bench) workload {
	return &solo{progs: b.fx.estimateProgs, cfgs: b.fx.estimateCfgs, estimate: true}
}

func (s *solo) setup(b *bench) error { return b.buildAll(s.progs) }

func (s *solo) close() error { return nil }

func (s *solo) kind() string {
	if s.estimate {
		return "estimate"
	}
	return "exact"
}

func (s *solo) warmup(b *bench) error {
	b.call(s.kind(), func(root span) ([]answer, error) {
		return s.solve(b, root, s.progs[0], s.cfgs[0], -1)
	})
	return nil
}

// timed runs passes over every (program, cache) pair in a seeded order.
func (s *solo) timed(b *bench) error {
	order := b.rngFor("order")
	n := len(s.progs) * len(s.cfgs)
	return b.passes(func(pass int) error {
		for _, i := range order.Perm(n) {
			p, c := s.progs[i/len(s.cfgs)], s.cfgs[i%len(s.cfgs)]
			b.call(s.kind(), func(root span) ([]answer, error) { return s.solve(b, root, p, c, pass) })
		}
		return nil
	})
}

// solve answers one request. The traced run generates reuse vectors
// explicitly and hands them to cme.New, so the generation shows as its
// own layer without being done twice.
func (s *solo) solve(b *bench, root span, p *program, c cache.Config, pass int) ([]answer, error) {
	opt := cme.Options{Workers: b.nproc}
	if s.estimate {
		// Every pass samples afresh, reproducibly per seed.
		opt.Seed = b.opt.seed*1_000_003 + int64(pass) + 2
	}
	if b.opt.trace {
		sp := root.child("reuse.generate")
		opt.Vectors = reuse.Generate(p.np, c, opt.Reuse)
		sp.end()
	}
	sp := root.child("cme.new")
	a, err := cme.New(p.np, c, opt)
	sp.end()
	if err != nil {
		return nil, err
	}
	var rep *cme.Report
	if s.estimate {
		sp = root.child("cme.estimate_misses")
		rep, err = a.EstimateMissesCtx(context.Background(), budget.Budget{}, sampling.Plan{C: 0.95, W: 0.05})
	} else {
		sp = root.child("cme.find_misses")
		rep, err = a.FindMissesCtx(context.Background(), budget.Budget{})
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	if rep.Degraded {
		return nil, fmt.Errorf("%s %s: degraded to tier %s", p.key(), cfgKey(c), rep.Tier)
	}
	return []answer{answerFromReport(p, c, rep, !s.estimate)}, nil
}

func (s *solo) verify(b *bench) error { return b.verifyAnswers() }
