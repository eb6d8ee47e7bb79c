package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cerr"
	"cachemodel/internal/cme"
	"cachemodel/internal/spec"
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

// lineSpec is testSpec over three line sizes. An exact sweep is one
// unit per line size, so this is the small exact workload of tests that
// need several units.
func lineSpec() *SweepSpec {
	s := testSpec()
	s.LineSizes = []int64{16, 32, 64}
	return s
}

// baselineRows renders the single-process SolveBatch answer for a spec —
// the byte-level ground truth every distributed schedule must reproduce.
func baselineRows(t *testing.T, sw *SweepSpec) []Row {
	t.Helper()
	wcs, err := sw.grid(spec.Limits{})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	np, err := sw.ProgramSpec.Prepare(spec.Limits{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prep, err := cme.Prepare(np, sw.options())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	plan, err := sw.plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	cands := spec.Solvers(wcs)
	reps, err := prep.SolveBatch(context.Background(), cands, cme.BatchOptions{Plan: plan})
	return spec.Rows(cands, reps, err)
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
	spec := lineSpec()
	want := mustJSON(t, baselineRows(t, spec))
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, srv := newTestCoordinator(t, Options{})
			st, err := c.AddSweep(context.Background(), spec)
			if err != nil {
				t.Fatalf("AddSweep: %v", err)
			}
			if st.Stats.Units != 3 {
				t.Fatalf("units = %d, want 3 (one per line size)", st.Stats.Units)
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
// independent, so solving each candidate as its own unit must not change
// a single count of the whole-grid batch.
func TestBitIdentitySampledTier(t *testing.T) {
	spec := testSpec()
	spec.SolveSpec = SolveSpec{Confidence: 0.95, Width: 0.05}
	want := mustJSON(t, baselineRows(t, spec))

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.Stats.Units != 6 {
		t.Fatalf("units = %d, want 6 per-candidate units", st.Stats.Units)
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

// TestLineSizeUnits: an exact, unbudgeted sweep shards by fuse group —
// one unit per line size, carrying every cache size and associativity
// of it — so the worker's SolveBatch runs the geometry-parametric tier
// and one fused walk over the group, as an in-process sweep does, while
// the merged rows stay byte-identical to the single-process baseline.
func TestLineSizeUnits(t *testing.T) {
	spec := testSpec()
	spec.CacheSizes = []int64{2048, 4096, 8192, 16384}
	spec.LineSizes = []int64{32, 64}
	want := mustJSON(t, baselineRows(t, spec))

	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	// 16 candidates = 2 line sizes, each with 4 sizes x 2 assocs.
	if st.Stats.Units != 2 {
		t.Fatalf("units = %d, want 2 line-size units", st.Stats.Units)
	}
	c.mu.Lock()
	for _, u := range c.sweeps[st.Sweep].units {
		cands := u.refs[0].cands
		if len(cands) != 8 {
			t.Errorf("unit %.12s carries %d candidates, want 8", u.key, len(cands))
		}
		for _, wc := range cands {
			if wc.LineBytes != cands[0].LineBytes {
				t.Errorf("unit %.12s mixes line sizes", u.key)
			}
		}
	}
	c.mu.Unlock()
	runWorkers(t, srv.URL, 2, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("line-size unit rows differ from single-process baseline\n got: %.300s\nwant: %.300s", got, want)
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

// TestDedupAcrossSweeps: a later sweep holding an identical unit — the
// same line-size fuse group — shares it: the unit is solved once and the
// second sweep's rows are filled from the store. A partial overlap is a
// different fuse group, hence a different unit key: it is solved anew,
// and its overlapping rows are still byte-equal to the first sweep's.
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

	// B resubmits A's line-32 group verbatim, next to a line-64 group.
	specB := testSpec()
	specB.CacheSizes = specA.CacheSizes
	specB.Assocs = specA.Assocs
	specB.LineSizes = []int64{32, 64}
	stB, err := c.AddSweep(context.Background(), specB)
	if err != nil {
		t.Fatalf("AddSweep B: %v", err)
	}
	if stB.Stats.Units != 2 || stB.Stats.Deduped != 1 {
		t.Fatalf("units/deduped = %d/%d, want 2/1 (line-32 unit shared with sweep A)", stB.Stats.Units, stB.Stats.Deduped)
	}
	runWorkers(t, srv.URL, 1, nil)
	repB, err := c.Report(stB.Sweep)
	if err != nil {
		t.Fatalf("Report B: %v", err)
	}
	// The grid iterates line sizes inside cache sizes: B's line-32 rows
	// are 0 and 2.
	for _, p := range [][2]int{{0, 0}, {2, 1}} {
		if got, want := mustJSON(t, repB.Rows[p[0]]), mustJSON(t, repA.Rows[p[1]]); got != want {
			t.Errorf("deduped row %d differs from its canonical solve\n got: %.200s\nwant: %.200s", p[0], got, want)
		}
	}
	if got, want := mustJSON(t, repB.Rows), mustJSON(t, baselineRows(t, specB)); got != want {
		t.Errorf("sweep B rows differ from baseline")
	}

	// C overlaps A in the 8KB candidate only: another unit key, no dedup.
	specC := testSpec()
	specC.CacheSizes = []int64{8192, 16384}
	specC.Assocs = specA.Assocs
	stC, err := c.AddSweep(context.Background(), specC)
	if err != nil {
		t.Fatalf("AddSweep C: %v", err)
	}
	if stC.Stats.Deduped != 0 {
		t.Fatalf("deduped = %d, want 0 (a partial overlap is a different fuse group)", stC.Stats.Deduped)
	}
	runWorkers(t, srv.URL, 1, nil)
	repC, err := c.Report(stC.Sweep)
	if err != nil {
		t.Fatalf("Report C: %v", err)
	}
	if got, want := mustJSON(t, repC.Rows[0]), mustJSON(t, repA.Rows[1]); got != want {
		t.Errorf("overlapping row differs between sweeps\n got: %.200s\nwant: %.200s", got, want)
	}
	if got, want := mustJSON(t, repC.Rows), mustJSON(t, baselineRows(t, specC)); got != want {
		t.Errorf("sweep C rows differ from baseline")
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
	spec := lineSpec()
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
	if err := a.Complete("pre", lr.Sweep, lr.Unit.Key, rawSolve(t, lr.Unit), "", nil); err != nil {
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
	if got := b.Status().Workers["w0"].UnitsCompleted; got != 2 {
		t.Errorf("live worker completed %d units, want 2 (1 of 3 replayed)", got)
	}
}

// TestJournalReplaysOldUnitKeys: a journal written when an exact sweep of
// short columns was cut into one unit per candidate still replays. The
// sweep id is unchanged, so the sweep is re-decomposed into fuse-group
// units; the old completions name keys no unit has any more, so each is
// logged and skipped, and the re-solved report equals SolveLocal.
func TestJournalReplaysOldUnitKeys(t *testing.T) {
	sw := testSpec()
	want, err := sw.SolveLocal(context.Background(), 1)
	if err != nil {
		t.Fatalf("SolveLocal: %v", err)
	}
	wcs, err := sw.grid(spec.Limits{})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	np, err := sw.ProgramSpec.Prepare(spec.Limits{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prep, err := cme.Prepare(np, sw.options())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	sweep := sweepID(prep.SolveKey(spec.Solvers(wcs), nil), sw)

	path := filepath.Join(t.TempDir(), "coordinator.journal")
	_, j, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if err := j.append(journalRec{T: recSweep, Sweep: sweep, Spec: sw}, true); err != nil {
		t.Fatalf("append: %v", err)
	}
	for i := range wcs {
		one := spec.Solvers(wcs[i : i+1])
		old := prep.SolveKey(one, nil)
		rec := journalRec{T: recComplete, Sweep: sweep, Unit: old, Worker: "old", Rows: want[i : i+1]}
		if err := j.append(rec, true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.close()

	var mu sync.Mutex
	var logs []string
	c, err := New(Options{JournalPath: path, ShutdownWhenDone: true, Logf: func(f string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	st := c.Status()
	if len(st.Sweeps) != 1 || st.Sweeps[0].Sweep != sweep || st.UnitsDone != 0 || st.Units != 1 {
		t.Fatalf("after replay: %d sweeps, done=%d units=%d; want sweep %.12s with 0 of 1 units done",
			len(st.Sweeps), st.UnitsDone, st.Units, sweep)
	}
	mu.Lock()
	skipped := 0
	for _, l := range logs {
		if strings.Contains(l, "journal replay: unit") && strings.Contains(l, "unknown unit") {
			skipped++
		}
	}
	mu.Unlock()
	if skipped != len(wcs) {
		t.Errorf("logged %d skipped completions, want %d:\n%s", skipped, len(wcs), strings.Join(logs, "\n"))
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	runWorkers(t, srv.URL, 1, nil)
	rep, err := c.Report(sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != mustJSON(t, want) {
		t.Errorf("re-solved rows differ from SolveLocal")
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

// TestWarmCacheKeepsProvenance: a worker whose result cache already
// holds one candidate, from an earlier single-candidate sweep, renders a
// fuse-group sweep over a grid containing that candidate exactly as
// SolveLocal does, set-count provenance included. Which pairs the
// set-count tier answers depends on the grid alone, never on what the
// cache holds.
func TestWarmCacheKeepsProvenance(t *testing.T) {
	grid := &SweepSpec{
		ProgramSpec: ProgramSpec{Program: "tomcatv", Size: 12},
		SolveSpec:   SolveSpec{Exact: true},
		CacheSizes:  []int64{16384, 32768, 65536},
		LineSizes:   []int64{32},
		Assocs:      []int{1, 2},
	}
	rows := baselineRows(t, grid)
	want := mustJSON(t, rows)
	one := *grid
	for _, r := range rows {
		if r.ClosedForm && !r.ClosedAnchor {
			one.CacheSizes, one.Assocs = []int64{r.CacheBytes}, []int{r.Assoc}
			break
		}
	}
	if len(one.CacheSizes) != 1 {
		t.Fatalf("baseline has no closed-form member: %s", want)
	}
	cachePath := filepath.Join(t.TempDir(), "worker.cache")
	for i, sw := range []*SweepSpec{&one, grid} {
		c, srv := newTestCoordinator(t, Options{})
		st, err := c.AddSweep(context.Background(), sw)
		if err != nil {
			t.Fatalf("AddSweep %d: %v", i, err)
		}
		runWorkers(t, srv.URL, 1, func(_ int, o *WorkerOptions) { o.CachePath = cachePath })
		rep, err := c.Report(st.Sweep)
		if err != nil {
			t.Fatalf("Report %d: %v", i, err)
		}
		if sw == grid {
			if got := mustJSON(t, rep.Rows); got != want {
				t.Errorf("warm-cache rows differ from SolveLocal:\n got %s\nwant %s", got, want)
			}
		}
	}
}

// TestCompactRowsShareIdenticalRefs: the coordinator retains one Refs
// slice for the rows of a unit whose per-reference counts are equal,
// without changing a byte of the rows, and keeps distinct counts apart.
func TestCompactRowsShareIdenticalRefs(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	refs := func(hits int64) []RefRow {
		return []RefRow{{ID: "A(I)", Volume: 10, Analyzed: 10, Hits: hits, Cold: 10 - hits, Tier: "exact"},
			{ID: "B(I)", Volume: 10, Analyzed: 10, Hits: 3, Cold: 7, Tier: "exact"}}
	}
	rows := make([]Row, 6)
	for i := range rows {
		hits := int64(4)
		if i == 5 {
			hits = 5
		}
		rows[i] = Row{Label: fmt.Sprintf("c%d", i), CacheBytes: 1024 << i, LineBytes: 32, Assoc: 1, Tier: "exact", Refs: refs(hits)}
	}
	want := mustJSON(t, rows)
	c.mu.Lock()
	got := c.compactRowsLocked(rows)
	c.mu.Unlock()
	if s := mustJSON(t, got); s != want {
		t.Fatalf("compacted rows differ:\n got %s\nwant %s", s, want)
	}
	for i := 1; i < 5; i++ {
		if &got[i].Refs[0] != &got[0].Refs[0] {
			t.Errorf("row %d keeps its own Refs slice; identical rows must share one", i)
		}
	}
	if &got[5].Refs[0] == &got[0].Refs[0] {
		t.Error("row 5 shares Refs with row 0 but its counts differ")
	}
	if &got[0].Refs[0] == &rows[0].Refs[0] {
		t.Error("retained Refs alias the decoded input")
	}
}

// TestReportBytesWithSharedRefs: a sweep whose units repeat per-reference
// counts across geometries still reports the single-process bytes, and
// the coordinator retains fewer Refs slices than rows.
func TestReportBytesWithSharedRefs(t *testing.T) {
	sw := testSpec()
	sw.CacheSizes = []int64{16384, 32768, 65536, 131072}
	sw.Assocs = []int{1, 2}
	want := mustJSON(t, baselineRows(t, sw))
	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), sw)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	runWorkers(t, srv.URL, 1, nil)
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Fatalf("rows differ from single-process baseline\n got: %.300s\nwant: %.300s", got, want)
	}
	backing := map[*RefRow]bool{}
	for _, r := range rep.Rows {
		backing[&r.Refs[0]] = true
	}
	if len(backing) >= len(rep.Rows) {
		t.Errorf("%d rows retain %d Refs slices; rows with equal counts must share", len(rep.Rows), len(backing))
	}
}
