package dist

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oneUnitSpec is a 1-candidate sweep: one unit, cheap to complete with
// synthetic rows when the test only exercises scheduling, not solving.
func oneUnitSpec(cacheBytes int64) *SweepSpec {
	return &SweepSpec{
		ProgramSpec: ProgramSpec{Program: "hydro", Size: 16},
		SolveSpec:   SolveSpec{Exact: true},
		CacheSizes:  []int64{cacheBytes},
		LineSizes:   []int64{32},
		Assocs:      []int{1},
	}
}

// completeAll drains the coordinator by leasing every pending unit and
// completing it with synthetic rows — scheduling-only tests don't need
// real solves.
func completeAll(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for {
		lr := c.Lease(worker)
		if lr.Status != LeaseUnit {
			return
		}
		rows := make([]Row, len(lr.Unit.Candidates))
		for i, wc := range lr.Unit.Candidates {
			rows[i] = Row{Label: wc.Label, CacheBytes: wc.CacheBytes, MissRatioPct: 1}
		}
		if err := c.Complete(worker, lr.Sweep, lr.Unit.Key, rows, "", nil); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
}

// TestBudgetedSweepDoesNotAliasUnbudgeted: a sweep with a per-unit budget
// must be a distinct sweep from the identical-grid unbudgeted one (a
// budget can degrade rows), and its units must not dedup against the
// unbudgeted sweep's units. Identical budgets still alias idempotently.
func TestBudgetedSweepDoesNotAliasUnbudgeted(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	ctx := context.Background()

	plain, err := c.AddSweep(ctx, testSpec())
	if err != nil {
		t.Fatalf("AddSweep plain: %v", err)
	}

	budgeted := testSpec()
	budgeted.MaxPoints = 123
	stB, err := c.AddSweep(ctx, budgeted)
	if err != nil {
		t.Fatalf("AddSweep budgeted: %v", err)
	}
	if stB.Sweep == plain.Sweep {
		t.Fatalf("budgeted sweep aliased the unbudgeted sweep %s", plain.Sweep)
	}
	if stB.Stats.Deduped != 0 {
		t.Fatalf("budgeted units deduped %d against unbudgeted units, want 0", stB.Stats.Deduped)
	}

	again := testSpec()
	again.MaxPoints = 123
	stB2, err := c.AddSweep(ctx, again)
	if err != nil {
		t.Fatalf("AddSweep budgeted again: %v", err)
	}
	if stB2.Sweep != stB.Sweep {
		t.Fatalf("identical budgeted resubmit created a new sweep")
	}

	timeout := testSpec()
	timeout.TimeoutMs = 5000
	stT, err := c.AddSweep(ctx, timeout)
	if err != nil {
		t.Fatalf("AddSweep timeout: %v", err)
	}
	if stT.Sweep == plain.Sweep || stT.Sweep == stB.Sweep {
		t.Fatalf("timeout-budgeted sweep aliased another spec's sweep")
	}
}

// TestPruneSweepDoesNotAliasExact: prune replaces dominated rows with
// cheap-tier estimates, so a pruned sweep must never alias the
// identical-grid exact sweep — the idempotent-resubmit path would
// otherwise hand advisor estimates to a caller that asked for exact rows.
func TestPruneSweepDoesNotAliasExact(t *testing.T) {
	c, srv := newTestCoordinator(t, Options{})
	ctx := context.Background()
	spec := testSpec()
	spec.CacheSizes = []int64{1024, 2048, 4096, 8192}
	spec.Assocs = []int{1}

	exact, err := c.AddSweep(ctx, spec)
	if err != nil {
		t.Fatalf("AddSweep exact: %v", err)
	}
	pruneSpec := testSpec()
	pruneSpec.CacheSizes = spec.CacheSizes
	pruneSpec.Assocs = spec.Assocs
	pruneSpec.Prune = true
	pruneSpec.PruneKeep = 2
	pruneSpec.PruneMargin = 0.001
	pruned, err := c.AddSweep(ctx, pruneSpec)
	if err != nil {
		t.Fatalf("AddSweep pruned: %v", err)
	}
	if pruned.Sweep == exact.Sweep {
		t.Fatalf("pruned sweep aliased the exact sweep")
	}
	// Different prune knobs are a different sweep too.
	otherKnobs := testSpec()
	otherKnobs.CacheSizes = spec.CacheSizes
	otherKnobs.Assocs = spec.Assocs
	otherKnobs.Prune = true
	otherKnobs.PruneKeep = 3
	otherKnobs.PruneMargin = 0.001
	st3, err := c.AddSweep(ctx, otherKnobs)
	if err != nil {
		t.Fatalf("AddSweep other knobs: %v", err)
	}
	if st3.Sweep == pruned.Sweep {
		t.Fatalf("different prune knobs aliased the same sweep")
	}
	runWorkers(t, srv.URL, 1, nil)
}

// TestJournalTornTailSurvivesSecondRestart: a torn final line (crash
// mid-append) must be truncated on open, so records journalled *after*
// the first restart land on a record boundary and survive a second
// restart. Without the truncation the first post-resume append
// concatenates onto the torn line and every later record is silently
// discarded next time.
func TestJournalTornTailSurvivesSecondRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "coordinator.journal")
	spec := lineSpec() // 3 units

	// Run 1: accept the sweep, complete one unit, then "crash" leaving a
	// torn half-record at the tail.
	a, err := New(Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	stA, err := a.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	lr := a.Lease("w-a")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}
	rows := make([]Row, len(lr.Unit.Candidates))
	if err := a.Complete("w-a", lr.Sweep, lr.Unit.Key, rows, "", nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	a.Close()
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"t":"complete","sweep":"dead`); err != nil { // no trailing newline
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	// Run 2: replay must keep the intact record, and new records must not
	// concatenate onto the torn tail.
	b, err := New(Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("New B: %v", err)
	}
	if got := b.Status().UnitsDone; got != 1 {
		t.Fatalf("after first restart: done=%d, want 1", got)
	}
	lr = b.Lease("w-b")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}
	rows = make([]Row, len(lr.Unit.Candidates))
	if err := b.Complete("w-b", lr.Sweep, lr.Unit.Key, rows, "", nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	b.Close()

	// Run 3: both completions — including the one journalled after the
	// torn crash — must replay.
	c, err := New(Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("New C: %v", err)
	}
	defer c.Close()
	if got := c.Status().UnitsDone; got != 2 {
		t.Fatalf("after second restart: done=%d, want 2 (post-crash record lost)", got)
	}
	if _, ok := c.SweepStatus(stA.Sweep); !ok {
		t.Fatalf("sweep lost across restarts")
	}
}

// TestJournalPruneOutcomeReplayed: the prune pass's outcome is journalled
// with the submission, so a restarted coordinator re-applies it instead
// of re-running the cheap-tier solve over the whole grid.
func TestJournalPruneOutcomeReplayed(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "coordinator.journal")
	spec := testSpec()
	spec.CacheSizes = []int64{1024, 2048, 4096, 8192, 16384, 32768}
	spec.Assocs = []int{1}
	spec.Prune = true
	spec.PruneKeep = 2
	spec.PruneMargin = 0.001

	a, err := New(Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	stA, err := a.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if stA.Stats.Pruned == 0 {
		t.Fatalf("prune pass eliminated nothing")
	}
	a.Close()

	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if !strings.Contains(string(blob), `"pruned":{`) {
		t.Fatalf("sweep record does not journal the prune outcome:\n%.400s", blob)
	}

	b, err := New(Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("New B: %v", err)
	}
	defer b.Close()
	stB, ok := b.SweepStatus(stA.Sweep)
	if !ok {
		t.Fatalf("pruned sweep lost across restart")
	}
	if stB.Stats.Pruned != stA.Stats.Pruned || stB.Stats.Units != stA.Stats.Units {
		t.Fatalf("replayed prune stats differ: got %+v, want %+v", stB.Stats, stA.Stats)
	}
}

// TestSweepRetentionEvictsFinishedSweeps: beyond MaxRetainedSweeps the
// oldest finished sweeps are evicted — their reports become unavailable
// and their units leave the dedup store — while running sweeps stay.
func TestSweepRetentionEvictsFinishedSweeps(t *testing.T) {
	c, err := New(Options{MaxRetainedSweeps: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	stA, err := c.AddSweep(ctx, oneUnitSpec(2048))
	if err != nil {
		t.Fatalf("AddSweep A: %v", err)
	}
	completeAll(t, c, "w0")
	if st, _ := c.SweepStatus(stA.Sweep); !st.Done {
		t.Fatalf("sweep A not done after draining")
	}

	stB, err := c.AddSweep(ctx, oneUnitSpec(4096))
	if err != nil {
		t.Fatalf("AddSweep B: %v", err)
	}
	if _, ok := c.SweepStatus(stA.Sweep); ok {
		t.Fatalf("finished sweep A not evicted at retention 1")
	}
	if st := c.Status(); len(st.Sweeps) != 1 || st.Sweeps[0].Sweep != stB.Sweep {
		t.Fatalf("status after eviction: %+v", st.Sweeps)
	}

	// Sweep B is still running: submitting more sweeps must never evict it.
	stC, err := c.AddSweep(ctx, oneUnitSpec(8192))
	if err != nil {
		t.Fatalf("AddSweep C: %v", err)
	}
	if _, ok := c.SweepStatus(stB.Sweep); !ok {
		t.Fatalf("running sweep B was evicted")
	}
	_ = stC

	// A resubmit of the evicted sweep is a fresh sweep with fresh units:
	// its unit left the dedup store with it.
	completeAll(t, c, "w0")
	stA2, err := c.AddSweep(ctx, oneUnitSpec(2048))
	if err != nil {
		t.Fatalf("resubmit A: %v", err)
	}
	if stA2.Stats.Deduped != 0 || stA2.Stats.UnitsDone != 0 {
		t.Fatalf("evicted sweep's unit still in the dedup store: %+v", stA2.Stats)
	}
	completeAll(t, c, "w0")
	if _, err := c.Report(stA2.Sweep); err != nil {
		t.Fatalf("Report after re-solve: %v", err)
	}
}
