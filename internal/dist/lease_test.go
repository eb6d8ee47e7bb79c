package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
)

// heldLease runs LeaseWait for worker on its own goroutine and returns
// once the coordinator has seen the request (its first lease answered
// "wait", so it is held), with a channel that yields the final answer.
func heldLease(t *testing.T, c *Coordinator, ctx context.Context, worker string) <-chan *LeaseResponse {
	t.Helper()
	out := make(chan *LeaseResponse, 1)
	go func() { out <- c.LeaseWait(ctx, worker) }()
	for {
		c.mu.Lock()
		_, seen := c.workers[worker]
		c.mu.Unlock()
		if seen {
			return out
		}
		runtime.Gosched()
	}
}

// answer is the held lease's final answer; the generous bound only turns
// a missed wake-up into a failure instead of a hung test.
func answer(t *testing.T, got <-chan *LeaseResponse) *LeaseResponse {
	t.Helper()
	select {
	case lr := <-got:
		return lr
	case <-time.After(10 * time.Second):
		t.Fatal("held lease never returned")
		return nil
	}
}

// neverExpire is a hold that only a wake-up, the context or Close ends.
func neverExpire(time.Duration) <-chan time.Time { return nil }

// leaseAll leases every pending unit to worker without blocking.
func leaseAll(t *testing.T, c *Coordinator, worker string) []*LeaseResponse {
	t.Helper()
	var out []*LeaseResponse
	for {
		lr := c.Lease(worker)
		if lr.Status != LeaseUnit {
			return out
		}
		out = append(out, lr)
	}
}

// TestLeaseWaitWakesOnAddSweep: leases held before any sweep exists are
// all answered, each with a distinct unit of the sweep submitted while
// they wait.
func TestLeaseWaitWakesOnAddSweep(t *testing.T) {
	c, err := New(Options{after: neverExpire})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var held []<-chan *LeaseResponse
	for i := 0; i < 3; i++ {
		held = append(held, heldLease(t, c, context.Background(), fmt.Sprintf("w%d", i)))
	}
	st, err := c.AddSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	seen := map[string]bool{}
	for _, got := range held {
		lr := answer(t, got)
		if lr.Status != LeaseUnit || lr.Sweep != st.Sweep || seen[lr.Unit.Key] {
			t.Fatalf("held lease answered %q for sweep %.12s, want a fresh unit of %.12s", lr.Status, lr.Sweep, st.Sweep)
		}
		seen[lr.Unit.Key] = true
	}
}

// TestLeaseWaitShutdownWhenDone: under ShutdownWhenDone a held lease is
// answered "shutdown" as soon as the last sweep closes.
func TestLeaseWaitShutdownWhenDone(t *testing.T) {
	c, err := New(Options{ShutdownWhenDone: true, after: neverExpire})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddSweep(context.Background(), testSpec()); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	leases := leaseAll(t, c, "solver")
	got := heldLease(t, c, context.Background(), "idle")
	for _, lr := range leases {
		rows := make([]Row, len(lr.Unit.Candidates))
		if err := c.Complete("solver", lr.Sweep, lr.Unit.Key, rows, "", nil); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if lr := answer(t, got); lr.Status != LeaseShutdown {
		t.Fatalf("held lease answered %q after the last sweep closed, want shutdown", lr.Status)
	}
}

// TestLeaseWaitReturnsOnCancelAndClose: a held lease comes back with the
// plain "wait" answer (the leaseHold hint, not the expired-hold 1ms one)
// when its context ends or the coordinator closes, and a lease on a
// closed coordinator is never held.
func TestLeaseWaitReturnsOnCancelAndClose(t *testing.T) {
	c, err := New(Options{after: neverExpire})
	if err != nil {
		t.Fatal(err)
	}
	hint := c.leaseHold().Milliseconds()

	ctx, cancel := context.WithCancel(context.Background())
	got := heldLease(t, c, ctx, "w0")
	cancel()
	if lr := answer(t, got); lr.Status != LeaseWait || lr.RetryAfterMs != hint {
		t.Fatalf("after cancel: %q hint %d, want wait hint %d", lr.Status, lr.RetryAfterMs, hint)
	}

	got = heldLease(t, c, context.Background(), "w1")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if lr := answer(t, got); lr.Status != LeaseWait || lr.RetryAfterMs != hint {
		t.Fatalf("after Close: %q hint %d, want wait hint %d", lr.Status, lr.RetryAfterMs, hint)
	}
	if lr := c.LeaseWait(context.Background(), "w2"); lr.Status != LeaseWait || lr.RetryAfterMs != hint {
		t.Fatalf("on a closed coordinator: %q hint %d, want wait hint %d", lr.Status, lr.RetryAfterMs, hint)
	}
}

// TestLeaseWaitReapsAtHoldExpiry: nothing wakes a held lease when a lease
// elsewhere expires (the coordinator has no reaper goroutine), but the
// hold ends in one more lease, which reaps it: the held caller steals
// the unit.
func TestLeaseWaitReapsAtHoldExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	expire := make(chan time.Time)
	c, err := New(Options{LeaseTTL: 2 * time.Second, now: clock,
		after: func(time.Duration) <-chan time.Time { return expire }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddSweep(context.Background(), testSpec()); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	leased := map[string]bool{}
	for _, lr := range leaseAll(t, c, "zombie") {
		leased[lr.Unit.Key] = true
	}
	got := heldLease(t, c, context.Background(), "thief")
	mu.Lock()
	now = now.Add(3 * time.Second) // every zombie lease is past its TTL
	mu.Unlock()
	expire <- time.Time{}
	lr := answer(t, got)
	if lr.Status != LeaseUnit || !leased[lr.Unit.Key] {
		t.Fatalf("held lease answered %q at hold expiry, want one of the zombie's units", lr.Status)
	}
	if st := c.Status(); st.UnitsStolen != int64(len(leased)) {
		t.Fatalf("stolen = %d, want %d", st.UnitsStolen, len(leased))
	}
}

// TestRawLeaseLoopHonouringHint: a client that only knows the wire form —
// lease, solve, complete, and sleep RetryAfterMs on "wait" — finishes a
// sweep against the held-lease coordinator, and every "wait" it sees
// carries a hint (so a worker without held-lease knowledge never falls
// back to its own poll interval).
func TestRawLeaseLoopHonouringHint(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	c, srv := newTestCoordinator(t, Options{})
	st, err := c.AddSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	// A unit in flight elsewhere makes the raw client meet "wait" at the
	// end of the sweep until it is completed.
	held := c.Lease("other")
	if held.Status != LeaseUnit {
		t.Fatalf("lease %q", held.Status)
	}
	ctx := context.Background()
	cl := &Client{Base: srv.URL}
	waits := 0
	for {
		lr, err := cl.Lease(ctx, "raw")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if lr.Status == LeaseShutdown {
			break
		}
		if lr.Status == LeaseWait {
			if lr.RetryAfterMs <= 0 {
				t.Fatalf("wait without a retry hint")
			}
			waits++
			if waits == 1 {
				rows := rawSolve(t, held.Unit)
				if err := c.Complete("other", held.Sweep, held.Unit.Key, rows, "", nil); err != nil {
					t.Fatalf("Complete: %v", err)
				}
			}
			time.Sleep(time.Duration(lr.RetryAfterMs) * time.Millisecond)
			continue
		}
		if err := cl.Complete(ctx, "raw", lr.Sweep, lr.Unit.Key, rawSolve(t, lr.Unit), "", nil); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("raw-client rows differ from baseline")
	}
}

// rawSolve solves one unit the way any client could: from the spec alone.
func rawSolve(t *testing.T, u *UnitSpec) []Row {
	t.Helper()
	np, err := u.Program.build()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := cme.Prepare(np, u.Solve.options())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := u.Solve.plan()
	if err != nil {
		t.Fatal(err)
	}
	reps, err := prep.SolveBatch(context.Background(), candidates(u.Candidates), cme.BatchOptions{Plan: plan})
	return RenderRows(u.Candidates, reps, err)
}

// len is the number of memoised programs.
func (m *prepMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// TestPrepMemoBounded: a worker sent more distinct programs than the
// memo's bound keeps at most prepMemoCap of them, and so does the
// coordinator that derived their unit keys.
func TestPrepMemoBounded(t *testing.T) {
	c, srv := newTestCoordinator(t, Options{})
	for i := 0; i < prepMemoCap+4; i++ {
		spec := &SweepSpec{
			ProgramSpec: ProgramSpec{Program: "hydro", Size: int64(8 + i)},
			SolveSpec:   SolveSpec{Exact: true},
			CacheSizes:  []int64{1024}, LineSizes: []int64{32}, Assocs: []int{1},
		}
		if _, err := c.AddSweep(context.Background(), spec); err != nil {
			t.Fatalf("AddSweep %d: %v", i, err)
		}
		if n := c.preps.len(); n > prepMemoCap {
			t.Fatalf("coordinator memo holds %d programs, bound %d", n, prepMemoCap)
		}
	}
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, ID: "w0", Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if n := w.preps.len(); n != prepMemoCap {
		t.Fatalf("worker memo holds %d programs after %d distinct ones, want the bound %d", n, prepMemoCap+4, prepMemoCap)
	}
}

// TestPreparedProgramReused: a program the worker has already prepared
// is not prepared again for a later sweep — no reuse vectors are
// generated for its units — and concurrent submissions of one program
// share one coordinator-side Prepare while deriving the same sweep ids a
// serial coordinator does.
func TestPreparedProgramReused(t *testing.T) {
	c, srv := newTestCoordinator(t, Options{})
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, ID: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solveAll := func(spec *SweepSpec) {
		t.Helper()
		if _, err := c.AddSweep(ctx, spec); err != nil {
			t.Fatalf("AddSweep: %v", err)
		}
		for _, lr := range leaseAll(t, c, w.ID()) {
			if err := w.process(ctx, lr); err != nil {
				t.Fatalf("process: %v", err)
			}
		}
	}
	spec := testSpec()
	solveAll(spec)
	vectors := obs.Default.Counter("reuse_vectors_generated_total")
	before := vectors.Value()
	again := testSpec()
	again.CacheSizes = []int64{16384, 32768}
	solveAll(again)
	if d := vectors.Value() - before; d != 0 {
		t.Fatalf("resubmitted program generated %d reuse vectors, want 0", d)
	}

	// Concurrent submissions, distinct grids, one program.
	specs := make([]*SweepSpec, 8)
	for i := range specs {
		s := testSpec()
		s.CacheSizes = []int64{int64(1024 << i)}
		specs[i] = s
	}
	cc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, err := cc.AddSweep(ctx, s); err == nil {
				ids[i] = st.Sweep
			}
		}()
	}
	wg.Wait()
	if n := cc.preps.len(); n != 1 {
		t.Fatalf("concurrent submissions of one program prepared %d entries, want 1", n)
	}
	serial, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for i, s := range specs {
		st, err := serial.AddSweep(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if ids[i] != st.Sweep {
			t.Fatalf("sweep %d: concurrent id %.12s, serial id %.12s", i, ids[i], st.Sweep)
		}
	}
	if got, want := cc.Status().Units, serial.Status().Units; got != want {
		t.Fatalf("concurrent submissions made %d units, serial %d", got, want)
	}
}
