package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cachemodel/internal/cache"
	"cachemodel/internal/fparse"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

// program is one fixture: a built-in kernel or whole program at a fixed
// size, optionally served as FORTRAN source text.
type program struct {
	name  string
	size  int64
	iters int64 // whole programs only; 0 for kernels
	// uniform reports that every reference is uniformly generated, so the
	// exact solvers must match the simulator reference by reference.
	uniform bool
	// source, when set, is the program printed as FORTRAN; the benchmark
	// parses it instead of calling the built-in constructor.
	source string
	np     *ir.NProgram
}

func (p *program) key() string {
	k := fmt.Sprintf("%s/%d", p.name, p.size)
	if p.iters > 0 {
		k += fmt.Sprintf("/%d", p.iters)
	}
	if p.source != "" {
		k = "src:" + k
	}
	return k
}

// kernel and whole name the two kinds of fixture.
func kernel(name string, size int64) *program {
	for _, s := range kernels.Suite() {
		if s.Name == name {
			return &program{name: name, size: size, uniform: s.Uniform}
		}
	}
	panic("unknown kernel " + name)
}

func whole(name string, size, iters int64) *program {
	return &program{name: name, size: size, iters: iters}
}

// irProgram instantiates the program's IR from its built-in constructor.
func (p *program) irProgram() *ir.Program {
	switch p.name {
	case "tomcatv":
		return kernels.Tomcatv(p.size, p.iters)
	case "swim":
		return kernels.Swim(p.size, p.iters)
	case "applu":
		return kernels.Applu(p.size, p.iters)
	case "vcycle":
		return kernels.VCycle(p.size, p.iters)
	}
	for _, s := range kernels.Suite() {
		if s.Name == p.name {
			return s.Build(p.size)
		}
	}
	panic("unknown program " + p.name)
}

// build runs the front end on p under spans: the FORTRAN parser for
// source fixtures, then inlining, normalisation and layout.
func (b *bench) build(parent span, p *program) error {
	var prog *ir.Program
	if p.source != "" {
		s := parent.child("fparse.parse")
		var err error
		prog, err = fparse.Parse(p.source, nil)
		s.end()
		if err != nil {
			return fmt.Errorf("parse %s: %w", p.key(), err)
		}
	} else {
		s := parent.child("kernels.build")
		prog = p.irProgram()
		s.end()
	}
	np, err := frontEnd(parent, prog)
	if err != nil {
		return fmt.Errorf("front end %s: %w", p.key(), err)
	}
	p.np = np
	b.setupRefs += len(np.Refs)
	return nil
}

// frontEnd inlines, normalises and lays out prog. The spans hang off
// parent; a zero parent records none.
func frontEnd(parent span, prog *ir.Program) (*ir.NProgram, error) {
	s := parent.child("inline.flatten")
	flat, _, err := inline.Flatten(prog, inline.Options{})
	s.end()
	if err != nil {
		return nil, err
	}
	s = parent.child("normalize.normalize")
	np, err := normalize.Normalize(flat)
	s.end()
	if err != nil {
		return nil, err
	}
	s = parent.child("layout.assign")
	err = layout.AssignProgram(np, layout.Options{})
	s.end()
	if err != nil {
		return nil, err
	}
	np.Name = prog.Name
	return np, nil
}

// buildAll runs the front end on every fixture under one set-up span.
func (b *bench) buildAll(progs []*program) error {
	root := b.tr.root(clientLane, 0, "bench.setup")
	defer root.end()
	for _, p := range progs {
		if err := b.build(root, p); err != nil {
			return err
		}
	}
	return nil
}

// printSource renders a built-in kernel as FORTRAN source, the form a
// client would submit inline.
func printSource(p *program) *program {
	src := *p
	src.source = fparse.Print(p.irProgram())
	src.np = nil
	return &src
}

// ladder is a problem-size ladder solved by the closed-form scaling tier.
type ladder struct {
	name  string
	sizes []int64
	cfg   cache.Config
}

// at is the ladder's program at one size.
func (l ladder) at(n int64) *program {
	if l.name == "tomcatv" || l.name == "swim" {
		return whole(l.name, n, 1)
	}
	return kernel(l.name, n)
}

// fixtures are the inputs of every workload at one scale. The full scale
// is the benchmark; the smoke scale runs the same code on tiny inputs for
// the tests.
type fixtures struct {
	setups int
	// spin is how long every CPU is kept busy before set-up (see spinUp).
	spin time.Duration

	exactProgs []*program
	exactCfgs  []cache.Config

	estimateProgs []*program
	estimateCfgs  []cache.Config

	sweepProgs []*program
	ladders    []ladder

	serveSampled, serveExact, serveInline, serveSweep []*program
	// serveRate is the open-loop arrival rate in requests per second and
	// serveMin the least number of requests a run sends. The full rate is
	// about 30% of the capacity measured on 2 CPUs: at half capacity, the
	// 20-30% slowdowns a shared machine goes through pushed the queue
	// towards saturation and doubled the latencies of some runs.
	serveRate float64
	serveMin  int
	// serveRepeat is the share of serve requests that repeat an earlier
	// body.
	serveRepeat float64
	serveDrain  time.Duration
}

func cfg(size, line int64, assoc int) cache.Config {
	return cache.Config{SizeBytes: size, LineBytes: line, Assoc: assoc}
}

// scales builds each scale's fixtures afresh, so runs in one process
// never share built programs.
//
// Uniformly generated kernels take sizes whose arrays fill whole 64-byte
// lines. Arrays that share a line reuse each other's data in a way the
// per-array reuse analysis does not model, and FindMisses then overcounts;
// the exactness contract the oracle checks holds for line-aligned arrays.
var scales = map[string]func() *fixtures{
	"full": func() *fixtures {
		return &fixtures{
			setups: 25,
			spin:   2 * time.Second,
			exactProgs: []*program{
				kernel("hydro", 40), kernel("mgrid", 16), kernel("jacobi2d", 48), kernel("sor2d", 48),
				kernel("mmijk", 24), kernel("mmjki", 24), kernel("lk21", 24), kernel("lk7", 65536),
				kernel("daxpy", 65536),
				kernel("mmt", 32), kernel("cholesky", 48), kernel("dgefa", 32), kernel("lk6", 192),
				kernel("dgesl", 192), kernel("transpose", 128), whole("tomcatv", 24, 2), whole("swim", 24, 2),
			},
			exactCfgs: []cache.Config{cfg(8<<10, 32, 1), cfg(32<<10, 32, 2), cfg(32<<10, 64, 4)},
			estimateProgs: []*program{
				whole("tomcatv", 96, 4), whole("swim", 96, 3), whole("vcycle", 64, 2),
				kernel("hydro", 200), kernel("mmt", 100), kernel("mgrid", 48),
			},
			estimateCfgs: []cache.Config{cfg(32<<10, 32, 1), cfg(32<<10, 64, 2)},
			sweepProgs: []*program{
				whole("tomcatv", 12, 1), kernel("hydro", 16), whole("swim", 12, 1), kernel("jacobi2d", 24),
			},
			// The ladders' tiny cache keeps the set-wrap period at 16, so
			// a ladder stepping by 16 stays in one residue class and the
			// scaling tier answers it in closed form after one fit.
			ladders: []ladder{
				{"hydro", []int64{24, 40, 56, 72, 88}, cfg(128, 16, 1)},
				{"tomcatv", []int64{24, 40, 56, 72}, cfg(128, 16, 1)},
			},
			serveSampled: []*program{whole("tomcatv", 32, 1), whole("swim", 32, 1), whole("vcycle", 16, 1)},
			serveExact: []*program{
				kernel("hydro", 24), kernel("jacobi2d", 24), kernel("sor2d", 24), kernel("mmjki", 16),
				kernel("mgrid", 16), kernel("mmt", 16), kernel("transpose", 32),
			},
			serveInline: []*program{
				kernel("hydro", 16), kernel("jacobi2d", 16), kernel("sor2d", 16), kernel("lk21", 16), kernel("mmijk", 16),
			},
			serveSweep:  []*program{kernel("sor2d", 32), kernel("jacobi2d", 32)},
			serveRate:   10,
			serveMin:    200,
			serveRepeat: 0.4,
			serveDrain:  60 * time.Second,
		}
	},
	"smoke": func() *fixtures {
		return &fixtures{
			setups:        2,
			exactProgs:    []*program{kernel("hydro", 16), kernel("daxpy", 256), kernel("mmt", 8), whole("tomcatv", 8, 1)},
			exactCfgs:     []cache.Config{cfg(1<<10, 32, 1), cfg(2<<10, 32, 2)},
			estimateProgs: []*program{whole("tomcatv", 16, 1), kernel("hydro", 32)},
			estimateCfgs:  []cache.Config{cfg(2<<10, 32, 1)},
			sweepProgs:    []*program{kernel("hydro", 8), whole("tomcatv", 8, 1)},
			ladders:       []ladder{{"hydro", []int64{24, 40}, cfg(128, 16, 1)}},
			serveSampled:  []*program{whole("tomcatv", 12, 1)},
			serveExact:    []*program{kernel("hydro", 8), kernel("mmt", 8)},
			serveInline:   []*program{kernel("jacobi2d", 16)},
			serveSweep:    []*program{kernel("hydro", 8)},
			serveRate:     200,
			serveMin:      24,
			serveRepeat:   0.4,
			serveDrain:    20 * time.Second,
		}
	},
}

// configDraws hands out cache configurations without replacement: no
// (program, configuration) pair is drawn twice in a run, so neither dist
// dedup nor a result cache can answer a later request from an earlier
// one. Sizes are multiples of 256 bytes from lo upwards; the range widens
// when it runs short, so a run of any length can draw.
//
// Solve cost depends strongly on the cache geometry, so the draws are
// spread evenly rather than independently: sizes follow a golden-ratio
// sequence from a seeded start, and each program's (line, assoc) pairs
// cycle in a seeded order. Every seed then solves a similar mix, and runs
// with different seeds compare.
type configDraws struct {
	rng  *rand.Rand
	lo   int64
	hi   int64
	x    float64 // position in the size sequence, in [0, 1)
	used map[string]bool
	// combos is each program's seeded order of (line, assoc) pairs;
	// drawn counts the pairs it has been handed.
	combos map[*program][]int
	drawn  map[*program]int
}

const sizeGrain = 256

func newConfigDraws(rng *rand.Rand, lo, hi int64) *configDraws {
	return &configDraws{rng: rng, lo: lo, hi: hi, x: rng.Float64(), used: map[string]bool{},
		combos: map[*program][]int{}, drawn: map[*program]int{}}
}

// size draws one size; tries counts the caller's failed attempts so far.
func (d *configDraws) size(tries int) int64 {
	if tries > 0 && tries%64 == 0 {
		d.hi += 32 << 10
	}
	d.x = math.Mod(d.x+0.6180339887498949, 1)
	return d.lo + sizeGrain*int64(d.x*float64((d.hi-d.lo)/sizeGrain+1))
}

// combo hands out p's next (line, assoc) pair.
func (d *configDraws) combo(p *program, lines []int64, assocs []int) (int64, int) {
	n := len(lines) * len(assocs)
	if d.combos[p] == nil {
		d.combos[p] = d.rng.Perm(n)
	}
	c := d.combos[p][d.drawn[p]%n]
	d.drawn[p]++
	return lines[c/len(assocs)], assocs[c%len(assocs)]
}

// take marks every configuration of the grid used, or reports false
// without marking any if one of them already was.
func (d *configDraws) take(p *program, sizes, lines []int64, assocs []int) bool {
	var keys []string
	for _, s := range sizes {
		for _, l := range lines {
			for _, k := range assocs {
				key := p.key() + " " + cfgKey(cfg(s, l, k))
				if d.used[key] {
					return false
				}
				keys = append(keys, key)
			}
		}
	}
	for _, k := range keys {
		d.used[k] = true
	}
	return true
}

// grid draws n distinct sizes that are fresh under every (line, assoc).
func (d *configDraws) grid(p *program, n int, lines []int64, assocs []int) []int64 {
	var sizes []int64
	for tries := 0; len(sizes) < n; tries++ {
		if s := d.size(tries); d.take(p, []int64{s}, lines, assocs) {
			sizes = append(sizes, s)
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return sizes
}

// column draws count sizes step bytes apart that are all fresh under
// (line, assoc).
func (d *configDraws) column(p *program, count int, step, line int64, assoc int) []int64 {
	for tries := 0; ; tries++ {
		origin := d.size(tries)
		sizes := make([]int64, count)
		for i := range sizes {
			sizes[i] = origin + int64(i)*step
		}
		if d.take(p, sizes, []int64{line}, []int{assoc}) {
			return sizes
		}
	}
}
