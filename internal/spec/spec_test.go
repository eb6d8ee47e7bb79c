package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// serveLimits are the analysis server's default admission bounds
// (serve.Options: MaxProblemSize 1024, MaxCandidates 256).
var serveLimits = Limits{Who: "server", MaxSize: 1024, MaxCandidates: 256}

// TestGridOrderAndLabels pins the canonical expansion: cache size, then
// line size, then associativity, then pad, with pad 0 the unlabelled
// baseline. The order is part of every sweep's content address.
func TestGridOrderAndLabels(t *testing.T) {
	g := Grid{CacheSizes: []int64{2048, 4096}, LineSizes: []int64{32}, Assocs: []int{1, 2},
		PadArray: "ZA", Pads: []int64{0, 3}}
	cs, err := g.Candidates(serveLimits)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, c := range cs {
		labels = append(labels, c.Label)
	}
	want := []string{
		"2KB/32B/direct", "2KB/32B/direct+pad3", "2KB/32B/2-way", "2KB/32B/2-way+pad3",
		"4KB/32B/direct", "4KB/32B/direct+pad3", "4KB/32B/2-way", "4KB/32B/2-way+pad3",
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels %q, want %q", labels, want)
	}
	if sc := cs[1].Solver(); sc.Layout == nil || sc.Layout.PadOf["ZA"] != 3 {
		t.Fatalf("pad candidate lost its layout: %+v", sc)
	}
	if sc := cs[0].Solver(); sc.Layout != nil {
		t.Fatalf("baseline candidate carries a layout: %+v", sc)
	}

	def, err := Grid{}.Candidates(Limits{})
	if err != nil || len(def) != 15 || def[0].Label != "4KB/32B/direct" || def[14].Label != "64KB/32B/4-way" {
		t.Fatalf("default grid: %d candidates, err %v", len(def), err)
	}
	if _, err := (Grid{Pads: []int64{1}}).Candidates(Limits{}); err == nil {
		t.Fatal("pads without pad_array admitted")
	}
}

// TestGridRefusesBeforeAllocating: products past the limit, including
// ones that overflow int, are refused from the axis lengths alone.
func TestGridRefusesBeforeAllocating(t *testing.T) {
	big := make([]int64, 1<<16)
	bigK := make([]int, 1<<16)
	for _, g := range []Grid{
		{CacheSizes: big[:1000], LineSizes: big[:1000], Assocs: bigK[:1000]},
		{CacheSizes: big, LineSizes: big, Assocs: bigK, PadArray: "A", Pads: big},
	} {
		if _, err := g.Candidates(serveLimits); err == nil || !strings.Contains(err.Error(), "server limit") {
			t.Fatalf("grid admitted: %v", err)
		}
		// Unlimited still refuses what int cannot count.
		if len(g.Pads) > 0 {
			if _, err := g.Candidates(Limits{}); err == nil {
				t.Fatal("overflowing grid admitted without a limit")
			}
		}
	}
	if cs, err := (Grid{CacheSizes: big[:16], LineSizes: big[:4], Assocs: bigK[:4]}).Candidates(serveLimits); err != nil || len(cs) != 256 {
		t.Fatalf("grid at the limit: %d, %v", len(cs), err)
	}
}

func TestLadder(t *testing.T) {
	for _, tc := range []struct {
		l    Ladder
		want []int64
		err  string
	}{
		{l: Ladder{From: 64, To: 256, Step: 64}, want: []int64{64, 128, 192, 256}},
		{l: Ladder{Ns: []int64{9, 3}, From: -1}, want: []int64{9, 3}},
		{l: Ladder{From: 0, To: 64, Step: 8}, err: "bad ladder"},
		{l: Ladder{From: 512, To: 128, Step: 64}, err: "bad ladder"},
		{l: Ladder{From: 1, To: 64, Step: 0}, err: "bad ladder"},
		{l: Ladder{Ns: []int64{64, 0}}, err: "sizes must be >= 1"},
		{l: Ladder{Ns: []int64{99999}}, err: "ladder size 99999 exceeds the server limit"},
		{l: Ladder{From: 1, To: 1 << 62, Step: 1}, err: "ladder size"},
		{l: Ladder{From: 1, To: 1024, Step: 1}, err: "size ladder of 1024 entries exceeds the server limit (max 256)"},
	} {
		got, err := tc.l.Sizes(serveLimits)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%+v: err %v, want %q", tc.l, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v: %v, %v; want %v", tc.l, got, err, tc.want)
		}
	}
	// Without a size bound a huge range is still counted, not built.
	if _, err := (Ladder{From: 1, To: 1<<63 - 1, Step: 1}).Sizes(Limits{Who: "cachette", MaxCandidates: 65536}); err == nil ||
		!strings.Contains(err.Error(), "(max 65536)") {
		t.Fatalf("huge range: %v", err)
	}
}

// TestGridExpand: a ladder sweep answers every geometry at every ladder
// size; the product is refused past the limit before anything is built,
// and a ladder refuses a pad axis by name.
func TestGridExpand(t *testing.T) {
	g := Grid{CacheSizes: []int64{1536, 2048}, LineSizes: []int64{32}, Assocs: []int{1}}
	cs, ns, err := g.Expand(&Ladder{From: 8, To: 24, Step: 8}, serveLimits)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Label != "1536B/32B/direct" || !reflect.DeepEqual(ns, []int64{8, 16, 24}) {
		t.Fatalf("expanded %+v × %v", cs, ns)
	}
	if got := LadderLabel(cs[1].Label, ns[2]); got != "2KB/32B/direct N=24" {
		t.Fatalf("ladder label %q", got)
	}
	if _, ns, err := g.Expand(nil, serveLimits); err != nil || ns != nil {
		t.Fatalf("grid-only sweep: sizes %v, err %v", ns, err)
	}

	big := make([]int64, 1<<16)
	for i := range big {
		big[i] = 64
	}
	sixteen, four := big[:16], big[:4]
	grid256 := Grid{CacheSizes: sixteen, LineSizes: four, Assocs: []int{1, 2, 4, 8}}
	for _, l := range []*Ladder{{Ns: big}, {Ns: big[:2]}, {From: 1, To: 1 << 62, Step: 1}} {
		_, _, err := grid256.Expand(l, Limits{Who: "server", MaxCandidates: 256})
		if err == nil || !strings.Contains(err.Error(), "exceeds the server limit (max 256)") {
			t.Errorf("256-entry grid × %d-entry ladder: %v", len(l.Ns), err)
		}
	}
	// Without a limit the product is still refused where int cannot count it.
	_, _, err = Grid{CacheSizes: big, LineSizes: big, Assocs: make([]int, 1<<16)}.Expand(
		&Ladder{From: 1, To: 1<<62 + 1, Step: 1}, Limits{})
	if err == nil {
		t.Fatal("overflowing grid × ladder admitted without a limit")
	}

	padded := g
	padded.PadArray, padded.Pads = "ZA", []int64{0, 3}
	if _, _, err := padded.Expand(&Ladder{Ns: []int64{8}}, serveLimits); err == nil ||
		!strings.Contains(err.Error(), "pad axis") {
		t.Fatalf("ladder × pad axis: %v", err)
	}
}

func TestLadderRequested(t *testing.T) {
	if l := (Ladder{}).Requested(); l != nil {
		t.Fatalf("empty ladder requested: %+v", l)
	}
	if l := (Ladder{To: 128}).Requested(); l == nil || !reflect.DeepEqual(*l, Ladder{From: 64, To: 128, Step: 64}) {
		t.Fatalf("defaults: %+v", l)
	}
	if l := (Ladder{From: -64}).Requested(); l == nil || l.From != -64 {
		t.Fatalf("negative from lost: %+v", l)
	}
}

func TestProgramCheck(t *testing.T) {
	for _, tc := range []struct {
		p   Program
		err string
	}{
		{p: Program{Program: "HYDRO"}},
		{p: Program{Source: "X"}},
		{p: Program{}, err: "missing program"},
		{p: Program{Program: "hydro", Source: "X"}, err: "not both"},
		{p: Program{Program: "nope"}, err: `unknown program "nope"`},
		{p: Program{Program: "hydro", Size: 99999}, err: "size 99999 exceeds the server limit (max 1024)"},
		{p: Program{Program: "hydro", Iters: -1}, err: "must be positive"},
	} {
		err := tc.p.Check(serveLimits)
		if (err == nil) != (tc.err == "") || (err != nil && !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%+v: err %v, want %q", tc.p, err, tc.err)
		}
	}
	np, err := (&Program{Program: "jacobi2d", Size: 8}).Prepare(serveLimits)
	if err != nil || np.Name == "" || len(np.Refs) == 0 {
		t.Fatalf("Prepare: %v", err)
	}
}

func TestFamilyBindsSizeConst(t *testing.T) {
	src := "      PROGRAM P\n      REAL A(N)\n      DO I = 1, N\n        A(I) = 0.0\n      ENDDO\n      END\n"
	f, err := Program{Source: src, Size: -5}.Family("")
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != "source" || f.SizeConst != "N" || f.Iters != DefaultIters {
		t.Fatalf("family %+v", f)
	}
	small, err1 := f.Build(8)
	large, err2 := f.Build(16)
	if err1 != nil || err2 != nil {
		t.Fatalf("build: %v %v", err1, err2)
	}
	if a, b := small.Arrays[0].Elems(), large.Arrays[0].Elems(); a != 8 || b != 16 {
		t.Fatalf("size constant not bound: %d and %d elements, want 8 and 16", a, b)
	}
	if _, err := (Program{Program: "nope"}).Family(""); err == nil {
		t.Fatal("unknown family admitted")
	}
}

func TestParseConstsAndPlan(t *testing.T) {
	cm, err := ParseConsts("n=100, M=50")
	if err != nil || !reflect.DeepEqual(cm, map[string]int64{"N": 100, "M": 50}) {
		t.Fatalf("ParseConsts: %v, %v", cm, err)
	}
	for _, bad := range []string{"N", "N=x", "N=1,"} {
		if _, err := ParseConsts(bad); err == nil {
			t.Errorf("ParseConsts(%q) admitted", bad)
		}
	}
	if p, err := Plan(false, 0, 0); err != nil || p.C != DefaultConfidence || p.W != DefaultWidth {
		t.Fatalf("default plan: %+v, %v", p, err)
	}
	if p, err := Plan(true, 7, 7); p != nil || err != nil {
		t.Fatalf("exact plan: %+v, %v", p, err)
	}
	if _, err := Plan(false, 2, 0); err == nil {
		t.Fatal("confidence 2 admitted")
	}
}

// admissionRequest is the sweep wire form: a program, a grid and a ladder.
type admissionRequest struct {
	Program
	Ladder
	CacheSizes []int64 `json:"cache_sizes,omitempty"`
	LineSizes  []int64 `json:"line_sizes,omitempty"`
	Assocs     []int   `json:"assocs,omitempty"`
	PadArray   string  `json:"pad_array,omitempty"`
	Pads       []int64 `json:"pads,omitempty"`
	SizeConst  string  `json:"size_const,omitempty"`
	Exact      bool    `json:"exact,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Width      float64 `json:"width,omitempty"`
}

// FuzzSweepAdmission feeds arbitrary JSON through decoding and every
// admission step under the server's default limits: each must refuse
// with an error or admit at most MaxCandidates answers — grid size times
// ladder length — with ladder sizes inside the size bound, and none may
// panic.
func FuzzSweepAdmission(f *testing.F) {
	for _, seed := range []string{
		`{"program":"hydro","size":16,"cache_sizes":[2048,4096],"line_sizes":[32],"assocs":[1,2]}`,
		`{"program":"tomcatv","pad_array":"X","pads":[0,1,2],"exact":true}`,
		`{"source":"X","consts":{"n":4},"ns":[64,128],"size_const":"m"}`,
		`{"program":"hydro","from":1,"to":9223372036854775807,"step":1}`,
		`{"program":"hydro","cache_sizes":[1,1,1,1],"line_sizes":[1,1,1,1],"assocs":[1,1,1,1],"pad_array":"A","pads":[1,1,1,1,1]}`,
		`{"program":"hydro","cache_sizes":[1,2,3,4,5,6,7,8],"assocs":[1,2],"from":64,"to":1024,"step":64,"exact":true}`,
		`{"program":"nope","size":-1,"iters":-1,"confidence":3,"width":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req admissionRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		_ = req.Program.Check(serveLimits)
		_, _ = req.Program.Family(req.SizeConst)
		_, _ = Plan(req.Exact, req.Confidence, req.Width)
		g := Grid{CacheSizes: req.CacheSizes, LineSizes: req.LineSizes, Assocs: req.Assocs,
			PadArray: req.PadArray, Pads: req.Pads}
		if cs, err := g.Candidates(serveLimits); err == nil && len(cs) > serveLimits.MaxCandidates {
			t.Fatalf("grid of %d candidates admitted", len(cs))
		}
		if ns, err := req.Ladder.Sizes(serveLimits); err == nil && len(ns) > serveLimits.MaxCandidates {
			t.Fatalf("ladder of %d sizes admitted", len(ns))
		}
		cs, ns, err := g.Expand(req.Ladder.Requested(), serveLimits)
		if err != nil {
			return
		}
		if answers := len(cs) * max(len(ns), 1); answers > serveLimits.MaxCandidates {
			t.Fatalf("grid of %d × ladder of %d sizes admitted", len(cs), len(ns))
		}
		for _, n := range ns {
			if n < 1 || n > serveLimits.MaxSize {
				t.Fatalf("ladder size %d admitted", n)
			}
		}
	})
}
