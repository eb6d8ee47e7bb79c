package spec

import (
	"cmp"
	"fmt"
	"math"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/layout"
)

// Grid is a cache design space: every cache size × line size ×
// associativity, each crossed with one layout per entry of Pads (pad 0 is
// the baseline layout). Empty geometry axes take the defaults of
// `cachette sweep`; Pads needs PadArray.
type Grid struct {
	CacheSizes []int64 // default {4096..65536}
	LineSizes  []int64 // default {32}
	Assocs     []int   // default {1,2,4}
	PadArray   string
	Pads       []int64
}

// Candidate is one grid point in wire form: geometry plus an optional
// padding layout, self-contained so a remote solver reconstructs the
// exact candidate.
type Candidate struct {
	Label      string `json:"label"`
	CacheBytes int64  `json:"cache_bytes"`
	LineBytes  int64  `json:"line_bytes"`
	Assoc      int    `json:"assoc"`
	PadArray   string `json:"pad_array,omitempty"`
	Pad        int64  `json:"pad,omitempty"`
}

// Solver is the candidate as the batch solver takes it.
func (c Candidate) Solver() cme.Candidate {
	sc := cme.Candidate{Label: c.Label,
		Config: cache.Config{SizeBytes: c.CacheBytes, LineBytes: c.LineBytes, Assoc: c.Assoc}}
	if c.Pad > 0 && c.PadArray != "" {
		sc.Layout = &layout.Options{PadOf: map[string]int64{c.PadArray: c.Pad}}
	}
	return sc
}

// Solvers converts a candidate list for the batch solver.
func Solvers(cs []Candidate) []cme.Candidate {
	out := make([]cme.Candidate, len(cs))
	for i, c := range cs {
		out[i] = c.Solver()
	}
	return out
}

// Candidates expands the grid in its canonical order — cache size, then
// line size, then associativity, then pad — which is part of every
// sweep's content address and report. Invalid geometries stay in the grid
// and fail per candidate. The size of the grid is checked against
// lim.MaxCandidates (and against int overflow) before anything is
// allocated.
func (g Grid) Candidates(lim Limits) ([]Candidate, error) {
	cs, _, err := g.Expand(nil, lim)
	return cs, err
}

// Ladder is a problem-size ladder: explicit Ns, or From to To (inclusive)
// by Step. On the wire it is spelled ns, or from/to/step.
type Ladder struct {
	Ns   []int64 `json:"ns,omitempty"`
	From int64   `json:"from,omitempty"`
	To   int64   `json:"to,omitempty"`
	Step int64   `json:"step,omitempty"`
}

// Requested is the ladder a request spells, with the wire defaults (64
// to 512 by 64) for bounds it leaves out; nil when it spells none.
func (l Ladder) Requested() *Ladder {
	if len(l.Ns) == 0 && l.From == 0 && l.To == 0 && l.Step == 0 {
		return nil
	}
	l.From, l.To, l.Step = cmp.Or(l.From, 64), cmp.Or(l.To, 512), cmp.Or(l.Step, 64)
	return &l
}

// Sizes expands the ladder after admitting it under lim: at most
// lim.MaxCandidates entries, each in [1, lim.MaxSize].
func (l Ladder) Sizes(lim Limits) ([]int64, error) {
	n, err := l.count(lim)
	if err == nil && lim.MaxCandidates > 0 && n > int64(lim.MaxCandidates) {
		err = lim.refuse(fmt.Sprintf("size ladder of %d entries", n), int64(lim.MaxCandidates))
	}
	if err != nil {
		return nil, err
	}
	return l.build(n), nil
}

// count admits the ladder's entries under lim.MaxSize and counts them. A
// range is counted arithmetically, so a huge one costs nothing.
func (l Ladder) count(lim Limits) (int64, error) {
	check := func(n int64) error {
		if n < 1 {
			return fmt.Errorf("bad ladder size %d: sizes must be >= 1", n)
		}
		if lim.MaxSize > 0 && n > lim.MaxSize {
			return lim.refuse(fmt.Sprintf("ladder size %d", n), lim.MaxSize)
		}
		return nil
	}
	if len(l.Ns) > 0 {
		for _, n := range l.Ns {
			if err := check(n); err != nil {
				return 0, err
			}
		}
		return int64(len(l.Ns)), nil
	}
	if l.From < 1 || l.Step <= 0 || l.To < l.From {
		return 0, fmt.Errorf("bad ladder: from %d to %d step %d (want 1 <= from <= to, step > 0)",
			l.From, l.To, l.Step)
	}
	if err := check(l.To); err != nil {
		return 0, err
	}
	return (l.To-l.From)/l.Step + 1, nil
}

// build materialises n counted entries; indexing by count keeps a huge
// step from wrapping.
func (l Ladder) build(n int64) []int64 {
	if len(l.Ns) > 0 {
		return l.Ns
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = l.From + int64(i)*l.Step
	}
	return out
}

// LadderLabel labels one row of a ladder sweep: the geometry's label and
// the problem size.
func LadderLabel(geometry string, n int64) string {
	return fmt.Sprintf("%s N=%d", geometry, n)
}

// Expand admits the grid — crossed, when l is not nil, with the
// problem-size ladder l — under lim and expands it: the grid's candidates
// and the ladder's sizes (nil without a ladder). A ladder sweep answers
// every geometry at every ladder size, in grid order, then ladder order,
// and has no pad axis. The number of answers — grid size times ladder
// length — is sized by checked multiplication against lim.MaxCandidates
// before either is built.
func (g Grid) Expand(l *Ladder, lim Limits) ([]Candidate, []int64, error) {
	css, lss, kss, pads := g.CacheSizes, g.LineSizes, g.Assocs, g.Pads
	if len(css) == 0 {
		css = []int64{4096, 8192, 16384, 32768, 65536}
	}
	if len(lss) == 0 {
		lss = []int64{32}
	}
	if len(kss) == 0 {
		kss = []int{1, 2, 4}
	}
	if g.PadArray == "" && len(pads) > 0 {
		return nil, nil, fmt.Errorf("pads given without pad_array")
	}
	if l != nil && g.PadArray != "" {
		return nil, nil, fmt.Errorf("a problem-size ladder cannot be crossed with a pad axis (pad_array %q)", g.PadArray)
	}
	if len(pads) == 0 {
		pads = []int64{0}
	}
	rungs := int64(1)
	if l != nil {
		var err error
		if rungs, err = l.count(lim); err != nil {
			return nil, nil, err
		}
	}
	limit, n := int64(math.MaxInt), int64(1)
	if lim.MaxCandidates > 0 {
		limit = int64(lim.MaxCandidates)
	}
	for _, k := range []int64{int64(len(css)), int64(len(lss)), int64(len(kss)), int64(len(pads)), rungs} {
		if n > limit/k {
			what := fmt.Sprintf("candidate grid of %d×%d×%d×%d", len(css), len(lss), len(kss), len(pads))
			if l != nil {
				what += fmt.Sprintf(" × %d ladder sizes", rungs)
			}
			return nil, nil, lim.refuse(what, limit)
		}
		n *= k
	}
	out := make([]Candidate, 0, n/rungs)
	for _, cs := range css {
		for _, ls := range lss {
			for _, k := range kss {
				label := cache.Config{SizeBytes: cs, LineBytes: ls, Assoc: k}.String()
				for _, pad := range pads {
					c := Candidate{Label: label, CacheBytes: cs, LineBytes: ls, Assoc: k}
					if pad > 0 {
						c.Label = fmt.Sprintf("%s+pad%d", label, pad)
						c.PadArray, c.Pad = g.PadArray, pad
					}
					out = append(out, c)
				}
			}
		}
	}
	if l == nil {
		return out, nil, nil
	}
	return out, l.build(rungs), nil
}
