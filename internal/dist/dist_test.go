package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
)

// testSpec is the shared small workload: fast enough for exact solves,
// rich enough (several arrays, replacement misses) that a merge bug would
// show up in the counts.
func testSpec() *SweepSpec {
	return &SweepSpec{
		ProgramSpec: ProgramSpec{Program: "hydro", Size: 16},
		SolveSpec:   SolveSpec{Exact: true},
		CacheSizes:  []int64{2048, 4096, 8192},
		LineSizes:   []int64{32},
		Assocs:      []int{1, 2},
	}
}

// baselineRows renders the single-process SolveBatch answer for a spec —
// the byte-level ground truth every distributed schedule must reproduce.
func baselineRows(t *testing.T, spec *SweepSpec) []Row {
	t.Helper()
	wcs, err := spec.grid()
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	np, err := spec.ProgramSpec.build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prep, err := cme.Prepare(np, spec.options())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	plan, err := spec.plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	reps, err := prep.SolveBatch(context.Background(), candidates(wcs), cme.BatchOptions{Plan: plan})
	return RenderRows(wcs, reps, err)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(blob)
}

// runWorkers runs n workers against a coordinator URL until each exits,
// failing the test on any error other than a clean shutdown.
func runWorkers(t *testing.T, url string, n int, mutate func(i int, o *WorkerOptions)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		opt := WorkerOptions{Coordinator: url, ID: fmt.Sprintf("w%d", i), Poll: 20 * time.Millisecond}
		if mutate != nil {
			mutate(i, &opt)
		}
		w, err := NewWorker(opt)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

func newTestCoordinator(t *testing.T, opt Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	opt.ShutdownWhenDone = true
	opt.Logf = t.Logf
	c, err := New(opt)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// TestBitIdentityAcrossWorkerCounts is the core guarantee: the merged
// report's rows are byte-identical to a single-process SolveBatch at any
// worker count.
func TestBitIdentityAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, srv := newTestCoordinator(t, Options{})
			st, err := c.AddSweep(context.Background(), spec)
			if err != nil {
				t.Fatalf("AddSweep: %v", err)
			}
			if st.Stats.Units != 6 {
				t.Fatalf("units = %d, want 6", st.Stats.Units)
			}
			runWorkers(t, srv.URL, workers, nil)
			rep, err := c.Report(st.Sweep)
			if err != nil {
				t.Fatalf("Report: %v", err)
			}
			if got := mustJSON(t, rep.Rows); got != want {
				t.Errorf("merged rows differ from single-process baseline\n got: %.300s\nwant: %.300s", got, want)
			}
		})
	}
}

// TestBitIdentitySampledTier checks the same guarantee for the sampled
// solver: the per-reference sampling RNG is geometry- and batch-shape-
// independent, so unit decomposition must not change a single count.
func TestBitIdentitySampledTier(t *testing.T) {
	spec := testSpec()
	spec.SolveSpec = SolveSpec{Confidence: 0.95, Width: 0.05}
	spec.UnitSize = 2
	want := mustJSON(t, baselineRows(t, spec))

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.Stats.Units != 3 {
		t.Fatalf("units = %d, want 3 (6 candidates at unit size 2)", st.Stats.Units)
	}
	runWorkers(t, srv.URL, 2, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("sampled merged rows differ from single-process baseline")
	}
}

// TestInvalidCandidatesSurviveDistribution checks that per-candidate
// failures render identically distributed and single-process: an invalid
// geometry must become a row error, not a dead unit.
func TestInvalidCandidatesSurviveDistribution(t *testing.T) {
	spec := testSpec()
	spec.CacheSizes = []int64{4096, 3000} // 3000: not a power-of-two line multiple
	want := mustJSON(t, baselineRows(t, spec))

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	runWorkers(t, srv.URL, 2, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("rows with invalid candidates differ from baseline\n got: %.300s\nwant: %.300s", got, want)
	}
	bad := 0
	for _, row := range rep.Rows {
		if row.Error != "" {
			bad++
		}
	}
	if bad == 0 {
		t.Fatalf("expected per-row errors for the invalid geometry")
	}
}

// TestGeomColumnUnits: an exact, unbudgeted sweep at the default unit
// size shards by geometry column — one unit per (line, assoc) ladder —
// so the worker's SolveBatch sees whole size columns and the
// geometry-parametric tier can engage, while the merged rows stay
// byte-identical to the single-process baseline. NoColumnUnits restores
// per-candidate units.
func TestGeomColumnUnits(t *testing.T) {
	spec := testSpec()
	spec.CacheSizes = []int64{2048, 4096, 8192, 16384} // 4 sizes: column-sized
	want := mustJSON(t, baselineRows(t, spec))

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	// 8 candidates = 2 geometry columns (assoc 1 and assoc 2) of 4 sizes.
	if st.Stats.Units != 2 {
		t.Fatalf("units = %d, want 2 column units", st.Stats.Units)
	}
	runWorkers(t, srv.URL, 2, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("column-unit rows differ from single-process baseline\n got: %.300s\nwant: %.300s", got, want)
	}

	// Opting out restores per-candidate stealing granularity, and the
	// rows still merge to the same bytes.
	optout := testSpec()
	optout.CacheSizes = spec.CacheSizes
	optout.NoColumnUnits = true
	c2, srv2 := newTestCoordinator(t, Options{})
	st2, err := c2.AddSweep(context.Background(), optout)
	if err != nil {
		t.Fatalf("AddSweep opt-out: %v", err)
	}
	if st2.Stats.Units != 8 {
		t.Fatalf("opt-out units = %d, want 8 per-candidate units", st2.Stats.Units)
	}
	runWorkers(t, srv2.URL, 2, nil)
	rep2, err := c2.Report(st2.Sweep)
	if err != nil {
		t.Fatalf("Report opt-out: %v", err)
	}
	if got := mustJSON(t, rep2.Rows); got != want {
		t.Errorf("opt-out rows differ from single-process baseline")
	}
}

// TestResubmitIsIdempotent: an identical spec resubmission returns the
// existing sweep without duplicating units.
func TestResubmitIsIdempotent(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	spec := testSpec()
	st1, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	st2, err := c.AddSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st1.Sweep != st2.Sweep {
		t.Fatalf("resubmit created a new sweep: %s vs %s", st1.Sweep, st2.Sweep)
	}
	if got := c.Status(); len(got.Sweeps) != 1 || got.Units != st1.Stats.Units {
		t.Fatalf("resubmit changed coordinator state: %+v", got)
	}
}

// TestDedupAcrossSweeps: overlapping grids share units — the overlap is
// solved once and the second sweep's rows are filled from the store.
func TestDedupAcrossSweeps(t *testing.T) {
	c, srv := newTestCoordinator(t, Options{})
	specA := testSpec()
	specA.CacheSizes = []int64{4096, 8192}
	specA.Assocs = []int{1}
	stA, err := c.AddSweep(context.Background(), specA)
	if err != nil {
		t.Fatalf("AddSweep A: %v", err)
	}
	runWorkers(t, srv.URL, 1, nil)
	repA, err := c.Report(stA.Sweep)
	if err != nil {
		t.Fatalf("Report A: %v", err)
	}

	specB := testSpec()
	specB.CacheSizes = []int64{8192, 16384}
	specB.Assocs = []int{1}
	stB, err := c.AddSweep(context.Background(), specB)
	if err != nil {
		t.Fatalf("AddSweep B: %v", err)
	}
	if stB.Stats.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1 (8KB unit shared with sweep A)", stB.Stats.Deduped)
	}
	runWorkers(t, srv.URL, 1, nil)
	repB, err := c.Report(stB.Sweep)
	if err != nil {
		t.Fatalf("Report B: %v", err)
	}
	if got, want := mustJSON(t, repB.Rows[0]), mustJSON(t, repA.Rows[1]); got != want {
		t.Errorf("deduped row differs from its canonical solve\n got: %.200s\nwant: %.200s", got, want)
	}
	if got, want := mustJSON(t, repB.Rows), mustJSON(t, baselineRows(t, specB)); got != want {
		t.Errorf("sweep B rows differ from baseline")
	}
	if st := c.Status(); st.UnitsDeduped != 1 {
		t.Errorf("coordinator deduped = %d, want 1", st.UnitsDeduped)
	}
}

// TestWorkStealing: a zombie worker leases a unit and never heartbeats;
// the lease expires and a live worker steals and finishes it, with the
// merged report unchanged.
func TestWorkStealing(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	c, srv := newTestCoordinator(t, Options{LeaseTTL: 100 * time.Millisecond})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	lr := c.Lease("zombie")
	if lr.Status != LeaseUnit {
		t.Fatalf("zombie lease status %q, want unit", lr.Status)
	}
	runWorkers(t, srv.URL, 1, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("rows after steal differ from baseline")
	}
	if got := c.Status(); got.UnitsStolen < 1 {
		t.Errorf("stolen = %d, want >= 1", got.UnitsStolen)
	}
}

// TestHeartbeatKeepsLease: a heartbeated lease survives past the TTL; a
// silent one does not.
func TestHeartbeatKeepsLease(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, err := New(Options{LeaseTTL: 10 * time.Second, now: clock})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.AddSweep(context.Background(), testSpec()); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	lr := c.Lease("w0")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}
	now = now.Add(8 * time.Second)
	if !c.Heartbeat("w0", lr.Sweep, lr.Unit.Key) {
		t.Fatalf("heartbeat within TTL rejected")
	}
	now = now.Add(8 * time.Second) // 16s since grant, 8s since heartbeat
	if !c.Heartbeat("w0", lr.Sweep, lr.Unit.Key) {
		t.Fatalf("heartbeat after extension rejected")
	}
	now = now.Add(11 * time.Second) // past the extended deadline
	if c.Heartbeat("w0", lr.Sweep, lr.Unit.Key) {
		t.Fatalf("heartbeat on an expired lease accepted")
	}
	if got := c.Status(); got.UnitsStolen != 1 {
		t.Fatalf("stolen = %d, want 1", got.UnitsStolen)
	}
}

// TestJournalResume: a coordinator killed mid-sweep restarts from its
// journal with completed units intact, and the finished report is still
// byte-identical to the baseline.
func TestJournalResume(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	journal := filepath.Join(t.TempDir(), "coordinator.journal")

	// Phase 1: a coordinator accepts the sweep and sees one unit complete,
	// then dies (Close without finishing).
	a, err := New(Options{JournalPath: journal, ShutdownWhenDone: true})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	stA, err := a.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	lr := a.Lease("pre")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}
	// Solve the leased unit out of band, exactly as a worker would.
	np, err := spec.ProgramSpec.build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prep, err := cme.Prepare(np, spec.options())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	reps, serr := prep.SolveBatch(context.Background(), candidates(lr.Unit.Candidates), cme.BatchOptions{})
	if err := a.Complete("pre", lr.Sweep, lr.Unit.Key, RenderRows(lr.Unit.Candidates, reps, serr), "", nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	a.Close()

	// Phase 2: a fresh coordinator replays the journal and only re-issues
	// the unfinished units.
	b, err := New(Options{JournalPath: journal, ShutdownWhenDone: true})
	if err != nil {
		t.Fatalf("New B: %v", err)
	}
	defer b.Close()
	if got := b.Status(); got.UnitsDone != 1 || len(got.Sweeps) != 1 {
		t.Fatalf("after replay: done=%d sweeps=%d, want 1/1", got.UnitsDone, len(got.Sweeps))
	}
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	runWorkers(t, srv.URL, 1, nil)
	rep, err := b.Report(stA.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("resumed rows differ from baseline")
	}
	if got := b.Status().Workers["w0"].UnitsCompleted; got != 5 {
		t.Errorf("live worker completed %d units, want 5 (1 of 6 replayed)", got)
	}
}

// TestUnitRetryThenSuccess: a worker-reported transient failure re-queues
// the unit; the next attempt succeeds and the report is unharmed.
func TestUnitRetryThenSuccess(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	var fired atomic.Bool
	runWorkers(t, srv.URL, 1, func(i int, o *WorkerOptions) {
		o.Hook = func(unitKey string) budget.Hook {
			return func(n int64) error {
				if fired.CompareAndSwap(false, true) {
					return fmt.Errorf("%w: injected unit failure", cerr.ErrTransient)
				}
				return nil
			}
		}
	})
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("rows after retry differ from baseline")
	}
	if got := c.Status(); got.UnitsRetried != 1 {
		t.Errorf("retried = %d, want 1", got.UnitsRetried)
	}
}

// TestUnitFailureExhaustsRetries: a unit that always fails takes its
// sweep down with a typed error instead of hanging.
func TestUnitFailureExhaustsRetries(t *testing.T) {
	spec := testSpec()
	c, srv := newTestCoordinator(t, Options{UnitRetries: 2})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	runWorkers(t, srv.URL, 1, func(i int, o *WorkerOptions) {
		o.Hook = func(unitKey string) budget.Hook {
			return func(n int64) error {
				return fmt.Errorf("%w: always failing", cerr.ErrTransient)
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Wait(ctx, st.Sweep); err == nil {
		t.Fatalf("Wait succeeded for a sweep whose units always fail")
	}
	if _, err := c.Report(st.Sweep); err == nil {
		t.Fatalf("Report succeeded for a failed sweep")
	}
	_ = srv
}

// TestPruneSearchMode: the advisor frontier pass prunes dominated
// geometries before exact solving, marks them in the merged report, and
// solves the survivors exactly.
func TestPruneSearchMode(t *testing.T) {
	spec := testSpec()
	spec.CacheSizes = []int64{1024, 2048, 4096, 8192, 16384, 32768}
	spec.Assocs = []int{1}
	spec.Prune = true
	spec.PruneKeep = 2
	spec.PruneMargin = 0.001

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.Stats.Pruned == 0 {
		t.Fatalf("prune pass eliminated nothing on a 6-point size ladder")
	}
	if st.Stats.Units >= st.Stats.Candidates {
		t.Fatalf("units (%d) not reduced below candidates (%d)", st.Stats.Units, st.Stats.Candidates)
	}
	runWorkers(t, srv.URL, 1, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	pruned, solved := 0, 0
	for _, row := range rep.Rows {
		if row.Pruned {
			pruned++
			if row.MissRatioPct <= 0 || len(row.Refs) != 0 || row.Tier != "sampled" {
				t.Errorf("pruned row %s has wrong provenance: %+v", row.Label, row)
			}
		} else {
			solved++
			if row.Error == "" && len(row.Refs) == 0 {
				t.Errorf("survivor row %s missing exact refs", row.Label)
			}
		}
	}
	if pruned != st.Stats.Pruned || solved == 0 {
		t.Errorf("pruned=%d solved=%d, stats=%+v", pruned, solved, st.Stats)
	}
	// Prune with a pad axis must be rejected (the advisor ranks
	// geometries, not layouts).
	bad := testSpec()
	bad.Prune = true
	bad.PadArray = "ZA"
	bad.Pads = []int64{8}
	if _, err := c.AddSweep(context.Background(), bad); err == nil {
		t.Fatalf("prune with a pad axis accepted")
	}
}

// TestWorkerCheckpointResume: a worker's result-cache checkpoint makes a
// restarted worker replay finished solves from disk (the coordinator
// sees completions without re-solving).
func TestWorkerCheckpointResume(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	cachePath := filepath.Join(t.TempDir(), "worker.cache")

	// First run: solve everything, checkpointing per unit.
	c1, srv1 := newTestCoordinator(t, Options{})
	st1, err := c1.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	runWorkers(t, srv1.URL, 1, func(i int, o *WorkerOptions) { o.CachePath = cachePath })
	if _, err := c1.Report(st1.Sweep); err != nil {
		t.Fatalf("Report: %v", err)
	}

	// Second run on a fresh coordinator: a worker warmed from the
	// checkpoint answers every unit from cache. The budget hook proves no
	// solving happened: it would fail any unit that actually solves.
	c2, srv2 := newTestCoordinator(t, Options{})
	st2, err := c2.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	runWorkers(t, srv2.URL, 1, func(i int, o *WorkerOptions) {
		o.CachePath = cachePath
		o.Hook = func(unitKey string) budget.Hook {
			return func(n int64) error {
				return fmt.Errorf("%w: solver ran despite a warm checkpoint", cerr.ErrTransient)
			}
		}
	})
	rep, err := c2.Report(st2.Sweep)
	if err != nil {
		t.Fatalf("Report after warm restart: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("checkpoint-replayed rows differ from baseline")
	}
}
