package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/spec"
)

// The flags shared by the subcommands spell requests in the spec
// vocabulary (internal/spec) — the same programs, constants, grids and
// ladders the server and the dist coordinator accept as JSON. `cachette
// -h` describes them once.

// cliLimits admits command-line sweeps and ladders: at most 65536
// answers (grid × problem-size ladder) or ladder entries, sized
// arithmetically before anything is materialised, so a huge range is an
// argument error rather than an allocation.
var cliLimits = spec.Limits{Who: "cachette", MaxCandidates: 65536}

// programFlags are the -program/-file/-const/-size/-iters flags.
type programFlags struct {
	name, file, consts *string
	size, iters        *int64
}

// addProgramFlags registers the program flags with their per-subcommand
// defaults; size 0 registers no -size flag (the ladder carries sizes).
func addProgramFlags(fs *flag.FlagSet, name string, size, iters int64) *programFlags {
	pf := &programFlags{
		name:   fs.String("program", name, "built-in program name (cachette list)"),
		file:   fs.String("file", "", "FORTRAN source file to use instead of a built-in"),
		consts: fs.String("const", "", "compile-time constants for -file: NAME=value,..."),
		iters:  fs.Int64("iters", iters, "outer iterations (whole programs)"),
	}
	if size > 0 {
		pf.size = fs.Int64("size", size, "problem size")
	}
	return pf
}

// request is the program the flags name, in wire form: the source of
// -file with its -const values, otherwise the built-in. As on the wire,
// a zero -size or -iters means the default (dist coordinate sends it).
func (pf *programFlags) request() (spec.Program, error) {
	p := spec.Program{Program: *pf.name, Iters: *pf.iters}
	if pf.size != nil {
		p.Size = *pf.size
	}
	if *pf.file == "" {
		return p, nil
	}
	src, err := os.ReadFile(*pf.file)
	if err != nil {
		return p, err
	}
	p.Program, p.Source = "", string(src)
	p.Consts, err = spec.ParseConsts(*pf.consts)
	return p, err
}

// local is the request for an in-process run, where a -size or -iters
// below 1 is an error rather than the wire default.
func (pf *programFlags) local() (spec.Program, error) {
	if pf.size != nil && *pf.size < 1 {
		return spec.Program{}, fmt.Errorf("-size %d: must be at least 1", *pf.size)
	}
	if *pf.iters < 1 {
		return spec.Program{}, fmt.Errorf("-iters %d: must be at least 1", *pf.iters)
	}
	return pf.request()
}

// load instantiates the program the flags name.
func (pf *programFlags) load() (*ir.Program, error) {
	p, err := pf.local()
	if err != nil {
		return nil, err
	}
	prog, err := p.Build(spec.Limits{})
	if errors.Is(err, spec.ErrUnknownProgram) {
		err = fmt.Errorf("%w (try: cachette list)", err)
	}
	return prog, err
}

// family is the problem-size family the flags name (ladders).
func (pf *programFlags) family(sizeConst string) (*spec.Family, error) {
	p, err := pf.local()
	if err != nil {
		return nil, err
	}
	return p.Family(sizeConst)
}

// label names the program in reports: the file, else the built-in.
func (pf *programFlags) label() string {
	if *pf.file != "" {
		return *pf.file
	}
	return *pf.name
}

// gridFlags are the -sizes/-lines/-assocs/-pad-array/-pads flags.
type gridFlags struct {
	sizes, lines, assocs, padArray, pads *string
}

func addGridFlags(fs *flag.FlagSet) *gridFlags {
	return &gridFlags{
		sizes:    fs.String("sizes", "4096,8192,16384,32768,65536", "cache sizes in bytes, comma separated"),
		lines:    fs.String("lines", "32", "line sizes in bytes, comma separated"),
		assocs:   fs.String("assocs", "1,2,4", "associativities, comma separated"),
		padArray: fs.String("pad-array", "", "array to pad: crosses the geometry grid with one layout candidate per -pads entry"),
		pads:     fs.String("pads", "", "paddings in elements for -pad-array, comma separated (0 = the baseline layout)"),
	}
}

// grid parses the flags into a grid; -pads counts only with -pad-array.
func (gf *gridFlags) grid() (spec.Grid, error) {
	g := spec.Grid{PadArray: *gf.padArray}
	var err error
	if g.CacheSizes, err = parseInt64List(*gf.sizes); err != nil {
		return g, err
	}
	if g.LineSizes, err = parseInt64List(*gf.lines); err != nil {
		return g, err
	}
	ks, err := parseInt64List(*gf.assocs)
	if err != nil {
		return g, err
	}
	for _, k := range ks {
		g.Assocs = append(g.Assocs, int(k))
	}
	if g.PadArray != "" {
		g.Pads, err = parseInt64List(*gf.pads)
	}
	return g, err
}

// ladderFlags registers the problem-size ladder flags shared by `sweep`
// and `bench -scaling` and returns a closure producing the ladder.
func ladderFlags(fs *flag.FlagSet) func() (spec.Ladder, error) {
	from := fs.Int64("from", 512, "smallest problem size of the ladder")
	to := fs.Int64("to", 1472, "largest problem size of the ladder")
	step := fs.Int64("step", 64, "ladder stride")
	ns := fs.String("ns", "", "explicit comma-separated size list (overrides -from/-to/-step)")
	return func() (spec.Ladder, error) {
		l := spec.Ladder{From: *from, To: *to, Step: *step}
		var err error
		if l.Ns, err = parseInt64List(*ns); err != nil {
			return l, fmt.Errorf("bad -ns list: %v", err)
		}
		return l, nil
	}
}

// parseInt64List parses a comma-separated integer list.
func parseInt64List(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// sameCounts is every -check's bit-identity test: got must list want's
// references in want's order (by ID; inlining can repeat an ID) with the
// same volume, analysed points, hits, cold and replacement misses. Every
// caller compares builds of one program, so the orders agree. label
// prefixes every failure.
func sameCounts(label string, want, got *cme.Report) error {
	if got == nil {
		return fmt.Errorf("%s: missing report", label)
	}
	if len(want.Refs) != len(got.Refs) {
		return fmt.Errorf("%s: %d refs vs %d", label, len(got.Refs), len(want.Refs))
	}
	for i, w := range want.Refs {
		g := got.Refs[i]
		if w.Ref.ID != g.Ref.ID || w.Volume != g.Volume || w.Analyzed != g.Analyzed ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl {
			return fmt.Errorf("%s: ref %s diverged: got {%s vol %d analyzed %d hits %d cold %d repl %d} want {vol %d analyzed %d hits %d cold %d repl %d}",
				label, w.Ref.ID, g.Ref.ID, g.Volume, g.Analyzed, g.Hits, g.Cold, g.Repl,
				w.Volume, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
	return nil
}
