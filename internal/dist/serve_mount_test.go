package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
)

// TestCoordinatorMountedInServe drives a full sweep through a
// coordinator mounted into the analysis server under /v1/dist/ — the
// deployment shape where one process fronts both the job API and the
// distributed sweep coordinator.
func TestCoordinatorMountedInServe(t *testing.T) {
	base := mountedServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rows := distRows(ctx, t, base, &dist.SweepSpec{
		ProgramSpec: dist.ProgramSpec{Program: "hydro", Size: 12},
		SolveSpec:   dist.SolveSpec{Exact: true},
		CacheSizes:  []int64{2048, 4096},
		LineSizes:   []int64{32},
		Assocs:      []int{1},
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Error != "" || r.MissRatioPct <= 0 {
			t.Errorf("row %s: err=%q ratio=%g", r.Label, r.Error, r.MissRatioPct)
		}
	}
}

// TestServeAndDistRowsAgree sends one exact grid to serve's POST
// /v1/sweep, to the mounted coordinator's /v1/dist/sweep and to
// SolveLocal, and requires the same JSON bytes row for row. The grid has
// several stable geometries of one line size, so rows carry set-count
// provenance, and one invalid cache size, so an error row is rendered.
func TestServeAndDistRowsAgree(t *testing.T) {
	base := mountedServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sw := &dist.SweepSpec{
		ProgramSpec: dist.ProgramSpec{Program: "tomcatv", Size: 12},
		SolveSpec:   dist.SolveSpec{Exact: true},
		CacheSizes:  []int64{16384, 32768, 65536, 3000},
		LineSizes:   []int64{32},
		Assocs:      []int{1, 2},
	}
	local, err := sw.SolveLocal(ctx, 1)
	if err != nil {
		t.Fatalf("SolveLocal: %v", err)
	}
	var anchors, errs int
	want := make([]string, len(local))
	for i, r := range local {
		want[i] = mustJSON(t, r)
		if strings.Contains(want[i], `"closed_anchor":true`) {
			anchors++
		}
		if r.Error != "" {
			errs++
		}
	}
	if anchors == 0 || errs == 0 {
		t.Errorf("SolveLocal renders %d anchor rows and %d error rows, want both", anchors, errs)
	}

	body, err := json.Marshal(serve.SweepRequest{ProgramSpec: sw.ProgramSpec, Exact: true,
		CacheSizes: sw.CacheSizes, LineSizes: sw.LineSizes, Assocs: sw.Assocs})
	if err != nil {
		t.Fatal(err)
	}
	served := serveRows(t, base, body)
	if len(served) != len(want) {
		t.Fatalf("/v1/sweep answered %d rows, SolveLocal %d", len(served), len(want))
	}
	for i, raw := range served {
		var b bytes.Buffer
		if err := json.Compact(&b, raw); err != nil {
			t.Fatal(err)
		}
		if b.String() != want[i] {
			t.Errorf("row %d: /v1/sweep %s\nSolveLocal %s", i, b.String(), want[i])
		}
	}

	rows := distRows(ctx, t, base, sw)
	if len(rows) != len(want) {
		t.Fatalf("dist report has %d rows, SolveLocal %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := mustJSON(t, r); got != want[i] {
			t.Errorf("row %d: dist report %s\nSolveLocal %s", i, got, want[i])
		}
	}
}

// mountedServer starts an analysis server with a one-shot coordinator
// mounted under /v1/dist/, both torn down with the test, and returns its
// base URL.
func mountedServer(t *testing.T) string {
	t.Helper()
	c, err := dist.New(dist.Options{ShutdownWhenDone: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	s, err := serve.New(serve.Options{Dist: c.Handler()})
	if err != nil {
		c.Close()
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
		c.Close()
	})
	return ts.URL
}

// distRows submits sw through the mount, runs one worker until the
// coordinator shuts it down and returns the merged rows.
func distRows(ctx context.Context, t *testing.T, base string, sw *dist.SweepSpec) []dist.Row {
	t.Helper()
	cl := &dist.Client{Base: base}
	st, err := cl.Submit(ctx, sw)
	if err != nil {
		t.Fatalf("submit through serve mount: %v", err)
	}
	w, err := dist.NewWorker(dist.WorkerOptions{Coordinator: base, ID: "w0", Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker through serve mount: %v", err)
	}
	rep, err := cl.Report(ctx, st.Sweep)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return rep.Rows
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serveRows submits a sweep body to /v1/sweep, waits for the job to
// finish and returns its candidate rows as sent.
func serveRows(t *testing.T, base string, body []byte) []json.RawMessage {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	var sub struct{ Job string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweep: status %d, job %q, %v", resp.StatusCode, sub.Job, err)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/jobs/" + sub.Job)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var jb struct {
			Status serve.JobStatus
			Result *struct {
				Candidates []json.RawMessage
				Error      *serve.ErrorBody
			}
		}
		err = json.NewDecoder(resp.Body).Decode(&jb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET job: decode: %v", err)
		}
		switch jb.Status {
		case serve.StatusDone:
			return jb.Result.Candidates
		case serve.StatusFailed:
			t.Fatalf("sweep job failed: %+v", jb.Result.Error)
		}
	}
	t.Fatalf("sweep job %s never finished", sub.Job)
	return nil
}
