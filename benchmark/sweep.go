package main

import (
	"context"
	"fmt"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/dist"
	"cachemodel/internal/ir"
)

// sweepReq is one design-space sweep: a program against a cache grid,
// enumerated in the dist package's grid order (sizes outermost, then line
// sizes, then associativities).
type sweepReq struct {
	prog   *program
	kind   string // "column" or "grid"
	sizes  []int64
	lines  []int64
	assocs []int
}

func (s sweepReq) configs() []cache.Config {
	var out []cache.Config
	for _, sz := range s.sizes {
		for _, l := range s.lines {
			for _, k := range s.assocs {
				out = append(out, cfg(sz, l, k))
			}
		}
	}
	return out
}

func (s sweepReq) candidates() []cme.Candidate {
	var out []cme.Candidate
	for _, c := range s.configs() {
		out = append(out, cme.Candidate{Label: c.String(), Config: c})
	}
	return out
}

func (s sweepReq) spec() *dist.SweepSpec {
	return &dist.SweepSpec{
		ProgramSpec: dist.ProgramSpec{Program: s.prog.name, Size: s.prog.size, Iters: max(s.prog.iters, 1)},
		SolveSpec:   dist.SolveSpec{Exact: true},
		CacheSizes:  s.sizes, LineSizes: s.lines, Assocs: s.assocs,
	}
}

// Sweep geometry. A column holds colLen cache sizes colStep apart under
// one line size and associativity, long enough for the geometry tier
// (cme.DefaultGeomMinColumn); a grid holds gridSizes sizes under every
// line size and associativity, so its columns are too short for the tier
// and it runs on the fused solver alone.
const (
	colLen    = 16
	colStep   = 2 << 10
	gridSizes = 3
)

var (
	sweepLines  = []int64{32, 64}
	sweepAssocs = []int{1, 2}
)

// sweepDraws hands out the column and grid requests of design-sweep and
// dist-sweep; both workloads draw the same sequence for a seed.
type sweepDraws struct{ d *configDraws }

func newSweepDraws(b *bench) *sweepDraws {
	return &sweepDraws{newConfigDraws(b.rngFor("geometry"), 16<<10, 64<<10)}
}

// next draws one pass's sweeps: a column and a grid per program.
func (g *sweepDraws) next(progs []*program) []sweepReq {
	var out []sweepReq
	for _, p := range progs {
		line, assoc := g.d.combo(p, sweepLines, sweepAssocs)
		out = append(out,
			sweepReq{prog: p, kind: "column", lines: []int64{line}, assocs: []int{assoc},
				sizes: g.d.column(p, colLen, colStep, line, assoc)},
			sweepReq{prog: p, kind: "grid", lines: sweepLines, assocs: sweepAssocs,
				sizes: g.d.grid(p, gridSizes, sweepLines, sweepAssocs)})
	}
	return out
}

// designSweep solves sweeps in process: Prepare + SolveBatch per column or
// grid, plus one problem-size ladder per pass through the scaling tier.
type designSweep struct {
	progs   []*program
	ladders []ladder
	draws   *sweepDraws
	// closed and column count geometry-tier candidates answered in closed
	// form and all candidates the tier planned (cme.geom_closed_pct).
	closed, column int
}

func newDesign(b *bench) workload {
	return &designSweep{progs: b.fx.sweepProgs, ladders: b.fx.ladders, draws: newSweepDraws(b)}
}

func (d *designSweep) setup(b *bench) error { return b.buildAll(d.progs) }

func (d *designSweep) close() error { return nil }

// warmupSweeps are the warm-up requests of the sweep workloads. Their
// sizes lie below every timed draw, so a warm-up answer can never be
// reused by a timed request.
func warmupSweeps(p *program) []sweepReq {
	col := sweepReq{prog: p, kind: "column", lines: []int64{32}, assocs: []int{1}}
	for i := int64(0); i < colLen; i++ {
		col.sizes = append(col.sizes, 4<<10+i*512)
	}
	grid := sweepReq{prog: p, kind: "grid", lines: sweepLines, assocs: sweepAssocs,
		sizes: []int64{12 << 10, 13 << 10, 14 << 10}}
	return []sweepReq{col, grid}
}

func (d *designSweep) warmup(b *bench) error {
	for _, s := range warmupSweeps(d.progs[0]) {
		b.call(s.kind, func(root span) ([]answer, error) { return d.solve(b, root, s) })
	}
	b.call("ladder", func(root span) ([]answer, error) { return d.ladder(root, d.ladders[0]) })
	return nil
}

func (d *designSweep) timed(b *bench) error {
	order := b.rngFor("order")
	return b.passes(func(pass int) error {
		sweeps := d.draws.next(d.progs)
		l := d.ladders[pass%len(d.ladders)]
		for _, i := range order.Perm(len(sweeps) + 1) {
			if i == len(sweeps) {
				b.call("ladder", func(root span) ([]answer, error) { return d.ladder(root, l) })
				continue
			}
			s := sweeps[i]
			b.call(s.kind, func(root span) ([]answer, error) { return d.solve(b, root, s) })
		}
		return nil
	})
}

func (d *designSweep) solve(b *bench, root span, s sweepReq) ([]answer, error) {
	sp := root.child("cme.prepare")
	prep, err := cme.Prepare(s.prog.np, cme.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("cme.solve_batch")
	reps, err := prep.SolveBatch(context.Background(), s.candidates(), cme.BatchOptions{Workers: b.nproc})
	sp.end()
	if err != nil {
		return nil, err
	}
	var out []answer
	for i, c := range s.configs() {
		if g := reps[i].Geom; g != nil && b.tr.phase.Load() == phaseTimed {
			d.column++
			if g.Closed() {
				d.closed++
			}
		}
		out = append(out, answerFromReport(s.prog, c, reps[i], true))
	}
	return out, nil
}

// ladder solves a problem-size ladder: one symbolic solve, then one answer
// per size.
func (d *designSweep) ladder(root span, l ladder) ([]answer, error) {
	build := func(n int64) (*ir.NProgram, error) { return frontEnd(span{}, l.at(n).irProgram()) }
	sp := root.child("cme.prepare_scaling")
	solver, err := cme.PrepareScaling(build, l.cfg, cme.Options{}, cme.ScalingOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("cme.solve_ladder")
	reps, err := solver.SolveLadder(context.Background(), l.sizes)
	sp.end()
	if err != nil {
		return nil, err
	}
	if len(reps) != len(l.sizes) {
		return nil, fmt.Errorf("ladder %s: %d reports for %d sizes", l.name, len(reps), len(l.sizes))
	}
	var out []answer
	for i, n := range l.sizes {
		out = append(out, answerFromReport(l.at(n), l.cfg, reps[i], true))
	}
	return out, nil
}

func (d *designSweep) verify(b *bench) error {
	if d.column > 0 {
		b.custom["cme.geom_closed_pct"] = 100 * float64(d.closed) / float64(d.column)
	}
	return b.verifyAnswers()
}
