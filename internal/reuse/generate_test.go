package reuse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/normalize"
)

// pinnedFixture is one normalised program of the pinned corpus, with the
// line sizes and option sets it is pinned under (nil: all of them).
type pinnedFixture struct {
	name  string
	np    *ir.NProgram
	lines []int64
	opts  []Options
}

// frontEnd flattens and normalises a program (no layout: Generate never
// reads array bases).
func frontEnd(tb testing.TB, p *ir.Program) *ir.NProgram {
	tb.Helper()
	flat, _, err := inline.Flatten(p, inline.Options{})
	if err != nil {
		tb.Fatalf("%s: inline: %v", p.Name, err)
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		tb.Fatalf("%s: normalize: %v", p.Name, err)
	}
	return np
}

// pinnedCorpus is every suite kernel at sizes 10, 17 and 24 plus the four
// whole programs at small sizes. Applu's 5×5 unrolled blocks make sets of
// hundreds of references (over a million vectors at 64 B lines), so it is
// pinned at one line size with the options that keep every vector kind.
func pinnedCorpus(tb testing.TB) []pinnedFixture {
	var out []pinnedFixture
	for _, spec := range kernels.Suite() {
		for _, n := range []int64{10, 17, 24} {
			out = append(out, pinnedFixture{name: fmt.Sprintf("%s/%d", spec.Name, n), np: frontEnd(tb, spec.Build(n))})
		}
	}
	out = append(out,
		pinnedFixture{name: "tomcatv/12x2", np: frontEnd(tb, kernels.Tomcatv(12, 2))},
		pinnedFixture{name: "swim/10x1", np: frontEnd(tb, kernels.Swim(10, 1))},
		pinnedFixture{name: "vcycle/16x1", np: frontEnd(tb, kernels.VCycle(16, 1))},
		pinnedFixture{name: "applu/6x1", np: frontEnd(tb, kernels.Applu(6, 1)),
			lines: []int64{16}, opts: []Options{{}, {NoCrossColumn: true}}},
	)
	return out
}

// each calls fn for every (line size, option set) the fixture is pinned
// under.
func (f pinnedFixture) each(fn func(cfg cache.Config, opt Options)) {
	lines, opts := f.lines, f.opts
	if lines == nil {
		lines = pinnedLines
	}
	if opts == nil {
		opts = pinnedOptions
	}
	for _, lb := range lines {
		cfg := cache.Config{SizeBytes: lb, LineBytes: lb, Assoc: 1}
		for _, opt := range opts {
			fn(cfg, opt)
		}
	}
}

// pinnedLines are the line sizes of the pinned corpus: 8 B lines hold one
// REAL*8 element (no spatial vectors), 24 B is a non-power-of-two line.
var pinnedLines = []int64{8, 16, 24, 32, 64, 128}

// pinnedOptions are the option sets of the pinned corpus.
var pinnedOptions = []Options{
	{},
	{NoCrossColumn: true},
	{KernelSpan: 2},
	{NoGroup: true},
	{NoSpatial: true},
}

// hashLists writes every reference's vector list, in program order, to h:
// each vector's rendering, its producer's position and both flags.
func hashLists(h hash.Hash, np *ir.NProgram, out map[*ir.NRef][]*Vector) {
	for _, r := range np.Refs {
		vs := out[r]
		fmt.Fprintf(h, "%s:%d\n", r.ID, len(vs))
		for _, v := range vs {
			fmt.Fprintf(h, "%s|%d|%t|%t\n", v, v.Producer.Seq, v.Spatial, v.Cross)
		}
	}
}

// pinnedDigest is the SHA-256 of every reference's vector list over the
// pinned corpus, line sizes and option sets. It pins Generate's output
// bit for bit: vectors, their order, their producers and their flags.
const pinnedDigest = "a8d5dd81bcc5603f98cb4e6cfb605f42dc12c17f0dad2a732c3eaa777efcb568"

// TestGeneratePinned fails when any generated vector list changes.
// Vector lists feed Prepared.Digest consumers, result caches and every
// count, so a change here is a change of analysis results and must be a
// deliberate re-pin.
func TestGeneratePinned(t *testing.T) {
	h := sha256.New()
	vectors := 0
	for _, f := range pinnedCorpus(t) {
		f.each(func(cfg cache.Config, opt Options) {
			fmt.Fprintf(h, "== %s line=%d opt=%+v\n", f.name, cfg.LineBytes, opt)
			out := Generate(f.np, cfg, opt)
			hashLists(h, f.np, out)
			for _, vs := range out {
				vectors += len(vs)
			}
		})
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != pinnedDigest {
		t.Errorf("Generate output digest over %d vectors = %s, want %s", vectors, got, pinnedDigest)
	}
}

// TestGenerateProperties checks the list invariants on the pinned corpus:
// every list is strictly ordered (interleaved order, then the later
// producer first), so no (producer, displacement) appears twice; every
// vector is ⪰ 0; and no (producer, consumer) pair exceeds MaxPerPair.
func TestGenerateProperties(t *testing.T) {
	for _, f := range pinnedCorpus(t) {
		if f.lines == nil {
			f.lines = []int64{8, 24, 64}
		}
		f.each(func(cfg cache.Config, opt Options) {
			maxPer := opt.withDefaults().MaxPerPair
			for rc, vs := range Generate(f.np, cfg, opt) {
				perPair := map[*ir.NRef]int{}
				for i, v := range vs {
					if v.Consumer != rc {
						t.Fatalf("%s line=%d %+v: %s lists %v of consumer %s", f.name, cfg.LineBytes, opt, rc.ID, v, v.Consumer.ID)
					}
					if !v.nonNegative() {
						t.Errorf("%s line=%d %+v: negative vector %v", f.name, cfg.LineBytes, opt, v)
					}
					if i > 0 && listOrder(vs[i-1], v) >= 0 {
						t.Errorf("%s line=%d %+v: %s not strictly ordered at %d: %v then %v", f.name, cfg.LineBytes, opt, rc.ID, i, vs[i-1], v)
					}
					if perPair[v.Producer]++; perPair[v.Producer] > maxPer {
						t.Errorf("%s line=%d %+v: pair %s<-%s exceeds MaxPerPair %d", f.name, cfg.LineBytes, opt, rc.ID, v.Producer.ID, maxPer)
					}
				}
			}
		})
	}
}

// tomcatv24 is the solver benchmark's fixture, Tomcatv at N = 24 over 8
// iterations.
func tomcatv24(tb testing.TB) *ir.NProgram { return frontEnd(tb, kernels.Tomcatv(24, 8)) }

// TestGenerateAllocs bounds Generate's allocations per generated vector on
// Tomcatv 24×8: candidates are tested before a Vector exists, memo hits
// allocate nothing, and each list is one sort and one compaction into an
// exactly sized backing array.
func TestGenerateAllocs(t *testing.T) {
	np := tomcatv24(t)
	for _, lb := range []int64{32, 64} {
		cfg := cache.Config{SizeBytes: lb, LineBytes: lb, Assoc: 1}
		vectors := 0
		for _, vs := range Generate(np, cfg, Options{}) {
			vectors += len(vs)
		}
		allocs := testing.AllocsPerRun(3, func() { Generate(np, cfg, Options{}) })
		if per := allocs / float64(vectors); per > 8 {
			t.Errorf("line %d B: %.0f allocations for %d vectors = %.2f per vector, want <= 8", lb, allocs, vectors, per)
		} else {
			t.Logf("line %d B: %.2f allocations per vector (%d vectors)", lb, per, vectors)
		}
	}
}

// BenchmarkGenerate times Generate on Tomcatv 24×8 at 32 B lines.
func BenchmarkGenerate(b *testing.B) {
	np := tomcatv24(b)
	cfg := cache.Config{SizeBytes: 32, LineBytes: 32, Assoc: 1}
	b.ReportAllocs()
	b.ResetTimer()
	vectors := 0
	for i := 0; i < b.N; i++ {
		vectors = 0
		for _, vs := range Generate(np, cfg, Options{}) {
			vectors += len(vs)
		}
	}
	b.ReportMetric(float64(vectors), "vectors")
}
