package dist

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"cachemodel/internal/obs"
)

// TestTracedSweepWithSteal is the tracing end-to-end: a traced sweep
// solved by two workers across a stolen lease must come back as ONE
// trace — every unit timeline complete and gap-free (submitted through
// merged, the zombie's unit showing the steal), every worker span shard
// carrying the sweep's trace id and linking to the unit span the
// coordinator minted, and the exported trace-event file validating with
// the steal visible.
func TestTracedSweepWithSteal(t *testing.T) {
	spec := testSpec()
	want := mustJSON(t, baselineRows(t, spec))
	c, srv := newTestCoordinator(t, Options{LeaseTTL: 100 * time.Millisecond})

	col := obs.New("submit")
	ctx := obs.NewContext(context.Background(), col)
	st, err := c.AddSweep(ctx, spec)
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.TraceID != col.TraceID() {
		t.Fatalf("sweep trace %q, want submitter's %q", st.TraceID, col.TraceID())
	}

	// A zombie worker takes a lease and dies without reporting: its unit
	// must be stolen and the trace must still close over the gap.
	lr := c.Lease("zombie")
	if lr.Status != LeaseUnit {
		t.Fatalf("zombie lease status %q, want unit", lr.Status)
	}
	if tid, _, ok := obs.ParseTraceparent(lr.Traceparent); !ok || tid != st.TraceID {
		t.Fatalf("lease traceparent %q does not carry sweep trace %q", lr.Traceparent, st.TraceID)
	}
	stolenUnit := lr.Unit.Key

	runWorkers(t, srv.URL, 2, nil)

	rep, err := c.Report(st.Sweep)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if got := mustJSON(t, rep.Rows); got != want {
		t.Errorf("traced rows differ from untraced baseline (tracing broke bit-identity)")
	}

	tls, err := c.Timelines(st.Sweep)
	if err != nil {
		t.Fatalf("Timelines: %v", err)
	}
	sawStolen := false
	for _, tl := range tls {
		if tl.SpanID == "" {
			t.Errorf("unit %.12s: no span id on a traced sweep", tl.Unit)
		}
		if len(tl.Events) < 4 { // submitted, queued, leased, ... merged
			t.Fatalf("unit %.12s: only %d events", tl.Unit, len(tl.Events))
		}
		if tl.Events[0].State != TimelineSubmitted {
			t.Errorf("unit %.12s starts with %q, want submitted", tl.Unit, tl.Events[0].State)
		}
		if last := tl.Events[len(tl.Events)-1]; last.State != TimelineMerged {
			t.Errorf("unit %.12s ends with %q, want merged", tl.Unit, last.State)
		}
		for i := 1; i < len(tl.Events); i++ {
			if tl.Events[i].AtMs < tl.Events[i-1].AtMs {
				t.Errorf("unit %.12s: timeline goes backwards at %d", tl.Unit, i)
			}
			// Slow runs steal from live workers too; the zombie's unit
			// must show its steal regardless.
			if tl.Events[i].State == TimelineStolen && tl.Unit == stolenUnit {
				sawStolen = true
			}
		}
	}
	if !sawStolen {
		t.Errorf("zombie's unit %.12s has no stolen event", stolenUnit)
	}

	// Worker span shards: posted with completions, stitched to the
	// coordinator's unit spans by parent id, on the sweep's trace.
	spanIDs := map[string]bool{}
	for _, tl := range tls {
		spanIDs[tl.SpanID] = true
	}
	c.mu.Lock()
	ss := c.sweeps[st.Sweep]
	shards := 0
	for _, u := range ss.units {
		for _, sh := range u.shards {
			shards++
			if sh.TraceID != ss.traceID {
				t.Errorf("shard %q trace %q, want sweep trace %q", sh.Name, sh.TraceID, ss.traceID)
			}
			if !spanIDs[sh.Parent] {
				t.Errorf("shard %q parent %q is not a unit span", sh.Name, sh.Parent)
			}
			if len(sh.Children) == 0 {
				t.Errorf("shard %q has no solve child span", sh.Name)
			}
		}
	}
	c.mu.Unlock()
	if shards == 0 {
		t.Fatalf("no worker span shards recorded")
	}

	// The exported trace-event file is well-formed and shows the steal.
	tf, err := c.Trace(st.Sweep)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.ValidateTraceFile(blob)
	if err != nil {
		t.Fatalf("ValidateTraceFile: %v", err)
	}
	if !got.HasEvent(TimelineStolen) {
		t.Errorf("trace file has no stolen event")
	}
	if got.Metadata["trace_id"] != st.TraceID {
		t.Errorf("trace file trace_id %v, want %q", got.Metadata["trace_id"], st.TraceID)
	}

	// And the run-report surface counts what happened.
	oc := c.Outcomes()
	if oc.TimelineEvents == 0 {
		t.Errorf("outcomes report zero timeline events")
	}
	if len(oc.Traces) != 1 || oc.Traces[0] != st.TraceID {
		t.Errorf("outcomes traces %v, want [%s]", oc.Traces, st.TraceID)
	}
}

// TestUntracedSweepStaysDark: without a submitter collector, a
// traceparent header, or Options.Trace, no span ids are minted and
// leases carry no traceparent — workers solve uninstrumented.
func TestUntracedSweepStaysDark(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.AddSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.TraceID != "" {
		t.Errorf("untraced sweep has trace id %q", st.TraceID)
	}
	lr := c.Lease("w0")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}
	if lr.Traceparent != "" {
		t.Errorf("untraced lease carries traceparent %q", lr.Traceparent)
	}
	tls, err := c.Timelines(st.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range tls {
		if tl.SpanID != "" {
			t.Errorf("untraced unit %.12s has span id %q", tl.Unit, tl.SpanID)
		}
		if len(tl.Events) == 0 {
			t.Errorf("unit %.12s: timelines should record even untraced", tl.Unit)
		}
	}
}

// TestOptionsTraceMintsTrace: Options.Trace turns tracing on for
// submissions that arrive with no trace context of their own.
func TestOptionsTraceMintsTrace(t *testing.T) {
	c, err := New(Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.AddSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	if st.TraceID == "" {
		t.Fatalf("Options.Trace did not mint a trace id")
	}
	if lr := c.Lease("w0"); lr.Traceparent == "" {
		t.Errorf("traced lease missing traceparent")
	}
}

// TestTraceparentHeaderPropagation: an HTTP sweep submission carrying a
// traceparent header joins the submitter's trace, and the trace travels
// to workers through their leases.
func TestTraceparentHeaderPropagation(t *testing.T) {
	_, srv := newTestCoordinator(t, Options{})
	tid, sid := obs.NewTraceID(), obs.NewSpanID()
	cl := &Client{Base: srv.URL}
	ctx := obs.NewContext(context.Background(), obs.NewWithTrace("remote", tid, sid))
	st, err := cl.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.TraceID != tid {
		t.Fatalf("sweep trace %q, want header's %q", st.TraceID, tid)
	}
	lr, err := cl.Lease(ctx, "w0")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if gt, _, ok := obs.ParseTraceparent(lr.Traceparent); !ok || gt != tid {
		t.Fatalf("lease traceparent %q, want trace %q", lr.Traceparent, tid)
	}
	// Unblock shutdown for the cleanup path.
	if err := cl.Complete(ctx, "w0", lr.Sweep, lr.Unit.Key, nil, "zombie test exit", nil); err != nil {
		t.Logf("complete: %v", err)
	}
}

// TestStatusFleetView: queue depth, in-flight leases, per-worker lease
// age and the straggler list under a fake clock.
func TestStatusFleetView(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	c, err := New(Options{LeaseTTL: 10 * time.Second, now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSweep(context.Background(), testSpec()); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	total := c.Status().Units
	lr := c.Lease("w0")
	if lr.Status != LeaseUnit {
		t.Fatalf("lease status %q", lr.Status)
	}

	st := c.Status()
	if st.InFlight != 1 || st.QueueDepth != total-1 {
		t.Errorf("in-flight %d queue %d, want 1 and %d", st.InFlight, st.QueueDepth, total-1)
	}
	if ws := st.Workers["w0"]; ws.CurrentUnit != lr.Unit.Key {
		t.Errorf("worker current unit %q, want %q", ws.CurrentUnit, lr.Unit.Key)
	}
	if len(st.Stragglers) != 0 {
		t.Errorf("fresh lease already a straggler")
	}

	// Heartbeat keeps the lease alive past a full TTL: now a straggler.
	now = now.Add(8 * time.Second)
	if !c.Heartbeat("w0", lr.Sweep, lr.Unit.Key) {
		t.Fatalf("heartbeat rejected")
	}
	now = now.Add(4 * time.Second) // age 12s > TTL, extended lease still live
	st = c.Status()
	if len(st.Stragglers) != 1 {
		t.Fatalf("stragglers %d, want 1", len(st.Stragglers))
	}
	sg := st.Stragglers[0]
	if sg.Unit != lr.Unit.Key || sg.Worker != "w0" || sg.AgeMs != 12000 {
		t.Errorf("straggler %+v, want unit %.12s worker w0 age 12000", sg, lr.Unit.Key)
	}
	if ws := st.Workers["w0"]; ws.LeaseAgeMs != 12000 {
		t.Errorf("worker lease age %d, want 12000", ws.LeaseAgeMs)
	}
}

// TestTopStatusEndpoint: the fleet view is served over HTTP for
// `cachette top`.
func TestTopStatusEndpoint(t *testing.T) {
	c, srv := newTestCoordinator(t, Options{})
	if _, err := c.AddSweep(context.Background(), lineSpec()); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	c.Lease("w0")
	st, err := (&Client{Base: srv.URL}).Status(context.Background())
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.InFlight != 1 || st.QueueDepth == 0 {
		t.Errorf("status over HTTP: in-flight %d queue %d", st.InFlight, st.QueueDepth)
	}
}
