package kernels

import (
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/trace"
)

// prepAligned prepares a program with line-aligned array bases, so that
// no memory line spans two arrays (required for the per-reference
// exactness check: cross-array line sharing is the one effect reuse
// vectors cannot see).
func prepAligned(t *testing.T, p *ir.Program, lineBytes int64) *ir.NProgram {
	t.Helper()
	flat, _, err := inline.Flatten(p, inline.Options{})
	if err != nil {
		t.Fatalf("%s: inline: %v", p.Name, err)
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		t.Fatalf("%s: normalize: %v", p.Name, err)
	}
	if err := layout.AssignProgram(np, layout.Options{Align: lineBytes}); err != nil {
		t.Fatalf("%s: layout: %v", p.Name, err)
	}
	return np
}

// TestSuiteValidation runs every built-in kernel through FindMisses and
// the simulator, the independent oracle, on power-of-two and
// non-power-of-two set counts at one and two workers: uniformly generated
// kernels must match the simulator reference by reference; the rest must
// never undercount in total.
func TestSuiteValidation(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		{SizeBytes: 2048, LineBytes: 64, Assoc: 2},
		{SizeBytes: 1536, LineBytes: 32, Assoc: 2}, // 24 sets
		{SizeBytes: 1920, LineBytes: 64, Assoc: 1}, // 30 sets
	}
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, cfg := range cfgs {
				np := prepAligned(t, spec.Build(16), cfg.LineBytes)
				sim := trace.Simulate(np, cfg)
				for _, workers := range []int{1, 2} {
					a, err := cme.New(np, cfg, cme.Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					rep := a.FindMisses()
					if rep.TotalAccesses() != sim.Accesses {
						t.Fatalf("[%v] w=%d: accesses %d vs %d", cfg, workers, rep.TotalAccesses(), sim.Accesses)
					}
					if !spec.Uniform {
						if rep.ExactMisses() < sim.Misses {
							t.Errorf("[%v] w=%d: FindMisses %d < simulator %d (must be conservative)",
								cfg, workers, rep.ExactMisses(), sim.Misses)
						}
						continue
					}
					for _, rr := range rep.Refs {
						var simAcc, simMiss int64
						if st := sim.PerRef[rr.Ref]; st != nil {
							simAcc, simMiss = st.Accesses, st.Misses
						}
						if rr.Volume != simAcc || rr.Misses() != simMiss {
							t.Errorf("[%v] w=%d: %s: %d accesses, %d misses; simulator %d, %d (uniform kernel must be exact)",
								cfg, workers, rr.Ref.ID, rr.Volume, rr.Misses(), simAcc, simMiss)
						}
					}
				}
			}
		})
	}
}

// transposeReread writes B as the transpose of A, then re-reads B in the
// other order: the re-read's producer is non-uniform but uniquely
// solvable, so only non-uniform reuse resolution finds it.
func transposeReread(n int64) *ir.Program {
	b := ir.NewSub("TRREAD")
	A := b.Real8("A", n, n)
	B := b.Real8("B", n, n)
	i, j := ir.Var("I"), ir.Var("J")
	b.Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(B, j, i), ir.R(A, i, j)).
		End().End().
		Do("I", ir.Con(1), ir.Con(n)).
		Do("J", ir.Con(1), ir.Con(n)).
		Assign("S2", nil, ir.R(B, i, j)).
		End().End()
	p := ir.NewProgram("TRREAD")
	p.Add(b.Build())
	return p
}

// TestClassifyDetailMatchesClassify: the attributing classifier must reach
// Classify's outcome at every point of every suite kernel and of a
// transpose re-read, under exact LRU, under the paper's verbatim
// replacement equations, and with non-uniform producers resolved.
func TestClassifyDetailMatchesClassify(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}
	opts := []cme.Options{{}, {PaperLRU: true}, {Reuse: reuse.Options{NonUniform: true}}}
	specs := append(Suite(), Spec{Name: "trread", Build: func(int64) *ir.Program { return transposeReread(24) }})
	for _, spec := range specs {
		np := prepAligned(t, spec.Build(12), cfg.LineBytes)
		for _, opt := range opts {
			a, err := cme.New(np, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			differ, points := 0, 0
			for _, r := range np.Refs {
				a.Space(r.Stmt).Enumerate(func(idx []int64) bool {
					points++
					if got, _ := a.ClassifyDetail(r, idx); got != a.Classify(r, idx) {
						differ++
					}
					return true
				})
			}
			if differ != 0 {
				t.Errorf("%s PaperLRU=%v NonUniform=%v: ClassifyDetail differs from Classify on %d of %d points",
					spec.Name, opt.PaperLRU, opt.Reuse.NonUniform, differ, points)
			}
		}
	}
}

// TestSuiteEstimates: EstimateMisses stays within the interval on every
// suite kernel at one representative configuration.
func TestSuiteEstimates(t *testing.T) {
	cfg := cache.Config{SizeBytes: 2048, LineBytes: 32, Assoc: 2}
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			np := prepAligned(t, spec.Build(20), cfg.LineBytes)
			a, err := cme.New(np, cfg, cme.Options{})
			if err != nil {
				t.Fatal(err)
			}
			exact := a.FindMisses()
			est, err := a.EstimateMisses(quickPlan())
			if err != nil {
				t.Fatal(err)
			}
			d := est.MissRatio() - exact.MissRatio()
			if d < 0 {
				d = -d
			}
			if d > 6 {
				t.Errorf("estimate %.2f%% vs exact %.2f%%", est.MissRatio(), exact.MissRatio())
			}
		})
	}
}

func quickPlan() sampling.Plan { return sampling.Plan{C: 0.95, W: 0.05} }

// TestSuiteNamesUnique guards the registry.
func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suite() {
		if seen[s.Name] {
			t.Errorf("duplicate kernel name %s", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
	}
	if len(seen) < 20 {
		t.Errorf("suite has only %d kernels", len(seen))
	}
}

// TestSuiteNonUniformUpgrade: with the §8 future-work extension enabled
// (unique-producer non-uniform reuse), the transpose kernel joins the
// exactly-analysable set; everything else stays at least conservative.
func TestSuiteNonUniformUpgrade(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	np := prepAligned(t, transposeK(16), cfg.LineBytes)
	a, err := cme.New(np, cfg, cme.Options{Reuse: reuse.Options{NonUniform: true}})
	if err != nil {
		t.Fatal(err)
	}
	rep := a.FindMisses()
	sim := trace.Simulate(np, cfg)
	if rep.ExactMisses() != sim.Misses {
		t.Errorf("transpose with NonUniform: analysis %d != simulator %d", rep.ExactMisses(), sim.Misses)
	}
}
