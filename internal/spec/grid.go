package spec

import (
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
		return nil, fmt.Errorf("pads given without pad_array")
	}
	if len(pads) == 0 {
		pads = []int64{0}
	}
	limit := lim.MaxCandidates
	if limit <= 0 {
		limit = math.MaxInt
	}
	n := 1
	for _, k := range []int{len(css), len(lss), len(kss), len(pads)} {
		if n > limit/k {
			return nil, lim.refuse(fmt.Sprintf("candidate grid of %d×%d×%d×%d",
				len(css), len(lss), len(kss), len(pads)), int64(limit))
		}
		n *= k
	}
	out := make([]Candidate, 0, n)
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
	return out, nil
}

// Ladder is a problem-size ladder: explicit Ns, or From to To (inclusive)
// by Step.
type Ladder struct {
	Ns             []int64
	From, To, Step int64
}

// Sizes expands the ladder after admitting it under lim: at most
// lim.MaxCandidates entries, each in [1, lim.MaxSize]. A range is counted
// arithmetically before it is built, so a huge one is refused without
// allocating, and indexing by count keeps a huge step from wrapping.
func (l Ladder) Sizes(lim Limits) ([]int64, error) {
	maxLen := int64(lim.MaxCandidates)
	if maxLen <= 0 {
		maxLen = math.MaxInt64
	}
	check := func(n int64) error {
		if n < 1 {
			return fmt.Errorf("bad ladder size %d: sizes must be >= 1", n)
		}
		if lim.MaxSize > 0 && n > lim.MaxSize {
			return lim.refuse(fmt.Sprintf("ladder size %d", n), lim.MaxSize)
		}
		return nil
	}
	tooLong := func(n int64) error {
		return lim.refuse(fmt.Sprintf("size ladder of %d entries", n), maxLen)
	}
	if len(l.Ns) > 0 {
		if int64(len(l.Ns)) > maxLen {
			return nil, tooLong(int64(len(l.Ns)))
		}
		for _, n := range l.Ns {
			if err := check(n); err != nil {
				return nil, err
			}
		}
		return l.Ns, nil
	}
	if l.From < 1 || l.Step <= 0 || l.To < l.From {
		return nil, fmt.Errorf("bad ladder: from %d to %d step %d (want 1 <= from <= to, step > 0)",
			l.From, l.To, l.Step)
	}
	if err := check(l.To); err != nil {
		return nil, err
	}
	count := (l.To-l.From)/l.Step + 1
	if count > maxLen {
		return nil, tooLong(count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = l.From + int64(i)*l.Step
	}
	return out, nil
}
