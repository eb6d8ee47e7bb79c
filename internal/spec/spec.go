// Package spec is the request vocabulary every front door shares: how a
// program is named (a built-in workload, or inline FORTRAN with
// compile-time constants), how it becomes an analysable program (the
// paper's front end: abstract inlining, normalisation, layout), how a
// cache design-space grid and a problem-size ladder are spelled and
// expanded, and the sampled tier's default plan. The cachette CLI, the
// analysis server and the distributed coordinator all build their
// requests here, so a program, a grid or a ladder means the same thing —
// the same candidates, in the same order, with the same labels — wherever
// it arrives.
//
// Admission comes before work: every expansion is sized against the
// caller's Limits arithmetically, before anything is allocated, and a
// program is checked before it is built. A hostile request is refused in
// microseconds instead of reaching the allocator.
package spec

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"

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

// Wire defaults for fields a request leaves zero.
const (
	DefaultSize       = 32
	DefaultIters      = 2
	DefaultConfidence = 0.95
	DefaultWidth      = 0.05
)

// Limits are a front door's admission bounds; a zero bound is unlimited.
// Who names the front door in refusals ("server", "coordinator").
type Limits struct {
	Who           string
	MaxSize       int64 // largest problem size, also per ladder entry
	MaxCandidates int   // largest candidate grid or size ladder
}

func (l Limits) refuse(what string, limit int64) error {
	return fmt.Errorf("%s exceeds the %s limit (max %d)", what, cmp.Or(l.Who, "admission"), limit)
}

// ErrUnknownProgram is wrapped by the refusal of an unknown built-in name.
var ErrUnknownProgram = errors.New("unknown program")

// Program names the program a request analyses: a built-in workload
// (Program) or inline FORTRAN source (Source, with compile-time Consts).
// Exactly one of the two must be set. It is the wire form shared by
// POST /v1/analyze, /v1/sweep and /v1/dist/sweep.
type Program struct {
	Program string           `json:"program,omitempty"`
	Source  string           `json:"source,omitempty"`
	Consts  map[string]int64 `json:"consts,omitempty"`
	Size    int64            `json:"size,omitempty"`  // default 32
	Iters   int64            `json:"iters,omitempty"` // default 2
}

// Check admits p under lim without building it: one source, a known
// built-in name, positive dimensions within the size limit.
func (p *Program) Check(lim Limits) error {
	size, iters := p.dims()
	if size < 1 || iters < 1 {
		return fmt.Errorf("size and iters must be positive (got %d, %d)", size, iters)
	}
	if lim.MaxSize > 0 && size > lim.MaxSize {
		return lim.refuse(fmt.Sprintf("size %d", size), lim.MaxSize)
	}
	return p.checkSource()
}

// dims is the problem size and iteration count, defaults applied.
func (p *Program) dims() (size, iters int64) {
	size, iters = p.Size, p.Iters
	if size == 0 {
		size = DefaultSize
	}
	if iters == 0 {
		iters = DefaultIters
	}
	return size, iters
}

func (p *Program) checkSource() error {
	switch {
	case p.Source != "" && p.Program != "":
		return fmt.Errorf("set program or source, not both")
	case p.Source != "":
		return nil
	case p.Program == "":
		return fmt.Errorf("missing program (or inline source)")
	case builtin(p.Program) == nil:
		return fmt.Errorf("%w %q", ErrUnknownProgram, p.Program)
	}
	return nil
}

// Build admits p under lim, then instantiates it: inline source through
// the FORTRAN front end, otherwise the built-in workload at its size.
func (p *Program) Build(lim Limits) (*ir.Program, error) {
	if err := p.Check(lim); err != nil {
		return nil, err
	}
	size, iters := p.dims()
	return p.instance(size, iters, "")
}

// instance builds p at size: a built-in directly, a source with sizeConst
// (when set) bound to size — a fixed Consts entry of the same name wins.
func (p *Program) instance(size, iters int64, sizeConst string) (*ir.Program, error) {
	if p.Source == "" {
		return builtin(p.Program)(size, iters), nil
	}
	cm := map[string]int64{}
	if sizeConst != "" {
		cm[sizeConst] = size
	}
	for k, v := range p.Consts {
		cm[strings.ToUpper(k)] = v
	}
	return fparse.Parse(p.Source, cm)
}

// Prepare admits and builds p, then runs the baseline front end on it.
func (p *Program) Prepare(lim Limits) (*ir.NProgram, error) {
	prog, err := p.Build(lim)
	if err != nil {
		return nil, err
	}
	np, _, err := FrontEnd{}.Run(prog)
	return np, err
}

// builtin looks a workload up by name (case-insensitively): the four whole
// programs take an iteration count, the kernel suite ignores it. Nil when
// the name is unknown.
func builtin(name string) func(size, iters int64) *ir.Program {
	switch strings.ToLower(name) {
	case "tomcatv":
		return kernels.Tomcatv
	case "swim":
		return kernels.Swim
	case "applu":
		return kernels.Applu
	case "vcycle":
		return kernels.VCycle
	}
	for _, ks := range kernels.Suite() {
		if strings.EqualFold(ks.Name, name) {
			build := ks.Build
			return func(size, _ int64) *ir.Program { return build(size) }
		}
	}
	return nil
}

// FrontEnd is the paper's front end (§2–3): abstract inlining of every
// analysable call, loop-nest normalisation, then data layout. The zero
// value is the baseline every front door analyses.
type FrontEnd struct {
	Inline inline.Options
	Layout layout.Options
}

// Run takes p through the front end; the result carries p's name.
func (fe FrontEnd) Run(p *ir.Program) (*ir.NProgram, *inline.Stats, error) {
	flat, stats, err := inline.Flatten(p, fe.Inline)
	if err != nil {
		return nil, nil, err
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		return nil, nil, err
	}
	if err := layout.AssignProgram(np, fe.Layout); err != nil {
		return nil, nil, err
	}
	np.Name = p.Name
	return np, stats, nil
}

// Family is a problem-size family for the scaling tier (cme.PrepareScaling).
type Family struct {
	Build     cme.BuildFunc
	Label     string // the built-in name as given, or "source"
	Iters     int64  // effective iteration count
	SizeConst string // effective size constant (upper case)
}

// Family checks p as a problem-size family and returns it: instance n is
// the built-in at size n, or the source with sizeConst (default "N")
// bound to n. p.Size is ignored. The ladder's sizes are admitted
// separately (Ladder.Sizes), so instances are built unbounded.
func (p Program) Family(sizeConst string) (*Family, error) {
	_, iters := p.dims()
	if iters < 1 {
		return nil, fmt.Errorf("iters must be positive (got %d)", iters)
	}
	if err := p.checkSource(); err != nil {
		return nil, err
	}
	f := &Family{Label: p.Program, Iters: iters, SizeConst: strings.ToUpper(sizeConst)}
	if f.SizeConst == "" {
		f.SizeConst = "N"
	}
	if p.Source != "" {
		f.Label = "source"
	}
	f.Build = func(n int64) (*ir.NProgram, error) {
		prog, err := p.instance(n, iters, f.SizeConst)
		if err != nil {
			return nil, err
		}
		np, _, err := FrontEnd{}.Run(prog)
		return np, err
	}
	return f, nil
}

// ParseConsts parses compile-time constants written NAME=value,NAME=value
// (names upper-cased). An empty string is no constants.
func ParseConsts(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	cm := map[string]int64{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -const entry %q (want NAME=value)", kv)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -const value in %q: %v", kv, err)
		}
		cm[strings.ToUpper(name)] = v
	}
	return cm, nil
}

// Plan is a request's sampled-tier plan: nil when exact, otherwise the
// confidence and width with zeros defaulted to the paper's 0.95 / 0.05,
// validated.
func Plan(exact bool, conf, width float64) (*sampling.Plan, error) {
	if exact {
		return nil, nil
	}
	if conf == 0 {
		conf = DefaultConfidence
	}
	if width == 0 {
		width = DefaultWidth
	}
	plan := &sampling.Plan{C: conf, W: width}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Cache is a request's single cache geometry, zeros defaulted to the
// paper's 32 KB direct-mapped cache with 32-byte lines. It is not
// validated here: an invalid geometry fails as that candidate's error.
func Cache(sizeBytes, lineBytes int64, assoc int) cache.Config {
	cfg := cache.Config{SizeBytes: sizeBytes, LineBytes: lineBytes, Assoc: assoc}
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 32 * 1024
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 32
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 1
	}
	return cfg
}
