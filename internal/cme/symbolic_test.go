package cme

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
	"cachemodel/internal/trace"
)

// oddConfigs are non-power-of-two geometries: 24-byte lines force the
// `%` fallbacks in the trace walker and the classifier's set congruence,
// and 48 sets × 3 ways exercises the non-mask set reduction.
func oddConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 3456, LineBytes: 24, Assoc: 3}, // 144 lines, 48 sets, 3-way
		{SizeBytes: 1536, LineBytes: 24, Assoc: 2}, // 64 lines, 32 sets, odd line
	}
}

// TestSymbolicEquivalence sweeps every built-in kernel under the golden and
// the non-power-of-two geometries and checks the symbolic region fast path
// is bit-identical to full per-point enumeration at several worker counts.
func TestSymbolicEquivalence(t *testing.T) {
	const n = 8
	configs := append(goldenConfigs(), oddConfigs()...)
	for _, spec := range kernels.Suite() {
		for _, cfg := range configs {
			label := spec.Name + " [" + cfg.String() + "]"
			_, base := prepKernel(t, spec.Build(n), cfg, Options{Workers: 1, NoSymbolic: true})
			want := base.FindMisses()
			for _, workers := range []int{1, 3, 8} {
				_, sym := prepKernel(t, spec.Build(n), cfg, Options{Workers: workers})
				sameRefReports(t, label+" symbolic", want, sym.FindMisses())
			}
		}
	}
}

// TestSymbolicOddGeometry pins the solver against the reference simulator
// under non-power-of-two geometry, symbolic fast path on and off. With
// 24-byte lines the arrays of copyThenRead(48) stay line-aligned (384 =
// 16·24), so its analysis is exact; stencil1D(64) and transpose2D straddle
// array boundaries or walk transposed, where the reuse-vector model is
// conservative by construction — those are held to the conservative bound
// plus on/off bit-identity.
func TestSymbolicOddGeometry(t *testing.T) {
	for _, prog := range batchPrograms {
		for _, cfg := range oddConfigs() {
			label := prog.name + " [" + cfg.String() + "]"
			np, on := prep(t, prog.build(), cfg, Options{})
			npOff, off := prep(t, prog.build(), cfg, Options{NoSymbolic: true})
			sameRefReports(t, label+" on/off", off.FindMisses(), on.FindMisses())
			checkConservative(t, np, on, cfg)
			checkConservative(t, npOff, off, cfg)
			if prog.name == "copyread" {
				checkExact(t, np, on, cfg)
				checkExact(t, npOff, off, cfg)
			}
			// The sharded simulator's set partitioning must survive odd
			// set counts too.
			sim := trace.Simulate(np, cfg)
			shard := trace.SimulateSharded(np, cfg, 3)
			if sim.Accesses != shard.Accesses || sim.Misses != shard.Misses {
				t.Errorf("%s: sharded simulator %d/%d != sequential %d/%d",
					label, shard.Accesses, shard.Misses, sim.Accesses, sim.Misses)
			}
		}
	}
}

// TestSymbolicBudgetParity: under a binding point or scan cap the
// symbolic path charges each replicated region to the meter only when the
// whole region fits and enumerates it otherwise, and a probe trips at the
// first check past a cap, so it must degrade at exactly the point
// enumeration does and produce a bit-identical report, including
// per-reference provenance — after replicating some regions, or the test
// compares enumeration with itself.
func TestSymbolicBudgetParity(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	fixtures := map[string]*ir.Program{"tomcatv-steps": kernels.Tomcatv(12, 8)}
	for _, s := range kernels.Suite() {
		switch s.Name {
		case "hydro", "sor2d", "transpose":
			fixtures[s.Name] = s.Build(10)
		}
	}
	symC := obs.Default.Counter("cme_points_symbolic_total")
	for name, prog := range fixtures {
		_, plain := prepKernel(t, prog, cfg, Options{Workers: 1, NoSymbolic: true})
		_, sym := prepKernel(t, prog, cfg, Options{Workers: 1})
		full, err := plain.FindMissesCtx(context.Background(), budget.Budget{MaxScan: 1 << 50})
		if err != nil {
			t.Fatalf("%s: measuring run failed: %v", name, err)
		}
		if full.BudgetSpent.Scan == 0 {
			t.Fatalf("%s: full run reported no scan work", name)
		}
		// transpose replicates nothing even unbudgeted: it keeps the
		// enumerate-only case (no dimension replicates) under test.
		s0 := symC.Value()
		sym.FindMisses()
		replicates := symC.Value() > s0
		for _, b := range []budget.Budget{
			{MaxScan: full.BudgetSpent.Scan / 2},
			{MaxPoints: full.BudgetSpent.Points / 4},
			{MaxPoints: full.BudgetSpent.Points / 2},
		} {
			label := fmt.Sprintf("%s %+v", name, b)
			want, werr := plain.FindMissesCtx(context.Background(), b)
			s0 := symC.Value()
			got, gerr := sym.FindMissesCtx(context.Background(), b)
			if replicates && symC.Value() == s0 {
				t.Errorf("%s: the symbolic run replicated no point before it tripped", label)
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: errors diverged: %v vs %v", label, werr, gerr)
			}
			if !want.Degraded {
				t.Fatalf("%s: budget did not force degradation", label)
			}
			sameRefReports(t, label+" budgeted symbolic", want, got)
		}
		if !replicates && name != "transpose" {
			t.Errorf("%s: the unbudgeted symbolic run replicated nothing", name)
		}
	}
}

// TestSymbolicFaultParity injects budget exhaustion at fixed checkpoints of
// a single-worker run (single worker so the checkpoint order is
// deterministic) and checks the symbolic path fails at the same checkpoint
// with a bit-identical partial report.
func TestSymbolicFaultParity(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	for _, at := range []int64{1, 7, 50, 400} {
		run := func(opt Options) (*Report, error) {
			_, a := prepKernel(t, kernels.Hydro(16, 16), cfg, opt)
			inj := faultinject.ExhaustAt(at)
			rep, err := a.FindMissesCtx(context.Background(),
				budget.Budget{Hook: inj.Hook(), NoFallback: true})
			if !inj.Fired() {
				t.Fatalf("at=%d: injector never fired (%d checkpoints seen)", at, inj.Checkpoints())
			}
			return rep, err
		}
		want, werr := run(Options{Workers: 1, NoSymbolic: true})
		got, gerr := run(Options{Workers: 1})
		if !errors.Is(werr, cerr.ErrBudgetExceeded) || !errors.Is(gerr, cerr.ErrBudgetExceeded) {
			t.Fatalf("at=%d: errs = %v / %v, want ErrBudgetExceeded", at, werr, gerr)
		}
		sameRefReports(t, "fault parity", want, got)
	}
}

// TestSolveBatchSymbolicEquivalence runs the batch design-space sweep with
// the fused symbolic fast path on and off, over the golden candidates plus
// non-power-of-two geometries, and requires bit-identical reports.
func TestSolveBatchSymbolicEquivalence(t *testing.T) {
	cands := sweepCandidates()
	for _, cfg := range oddConfigs() {
		cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
	}
	for _, prog := range batchPrograms {
		_, on := prepBatch(t, prog.build(), Options{})
		_, off := prepBatch(t, prog.build(), Options{NoSymbolic: true})
		gotReps, err := on.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: SolveBatch: %v", prog.name, err)
		}
		wantReps, err := off.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: SolveBatch (nosymbolic): %v", prog.name, err)
		}
		for i, c := range cands {
			sameCounts(t, prog.name+"/"+c.Label, gotReps[i], wantReps[i])
		}
	}
}

// TestSymbolicCoverageCounters: solving a kernel with loop-invariant inner
// reuse must route a nonzero share of points through the symbolic counters,
// and the symbolic/enumerated split must cover every classified point.
// (Package tests run sequentially, so global counter deltas are safe.)
func TestSymbolicCoverageCounters(t *testing.T) {
	symC := obs.Default.Counter("cme_points_symbolic_total")
	enumC := obs.Default.Counter("cme_points_enumerated_total")
	classC := obs.Default.Counter("cme_points_classified_total")
	s0, e0, c0 := symC.Value(), enumC.Value(), classC.Value()

	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Tomcatv(12, 4), cfg, Options{Workers: 1})
	rep := a.FindMisses()

	sym, enum, class := symC.Value()-s0, enumC.Value()-e0, classC.Value()-c0
	if sym <= 0 {
		t.Errorf("symbolic fast path never fired: %d symbolic of %d classified", sym, class)
	}
	if sym+enum != class {
		t.Errorf("symbolic %d + enumerated %d != classified %d", sym, enum, class)
	}
	var analyzed int64
	for _, rr := range rep.Refs {
		analyzed += rr.Analyzed
	}
	if class != analyzed {
		t.Errorf("classified counter %d != report analyzed %d", class, analyzed)
	}

	// With the fast path disabled every point must be enumerated.
	s1, e1, c1 := symC.Value(), enumC.Value(), classC.Value()
	_, off := prepKernel(t, kernels.Tomcatv(12, 4), cfg, Options{Workers: 1, NoSymbolic: true})
	off.FindMisses()
	if d := symC.Value() - s1; d != 0 {
		t.Errorf("NoSymbolic run still counted %d points symbolically", d)
	}
	if e, c := enumC.Value()-e1, classC.Value()-c1; e != c {
		t.Errorf("NoSymbolic run: enumerated %d != classified %d", e, c)
	}
}
