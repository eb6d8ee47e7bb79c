package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/obs"
	"cachemodel/internal/retry"
	"cachemodel/internal/spec"
	"cachemodel/internal/trace"
)

// newTestServer starts a server plus an httptest front end, draining both
// at cleanup.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// postJSON posts body and returns the status code and decoded response.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp.StatusCode, m
}

// submitJob posts an analyze/sweep body and fails the test unless it is
// admitted; returns the job ID.
func submitJob(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	code, m := postJSON(t, ts, path, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s: status %d, body %v", path, code, m)
	}
	id, _ := m["job"].(string)
	if id == "" {
		t.Fatalf("POST %s: no job id in %v", path, m)
	}
	return id
}

// getJob fetches a job's status document.
func getJob(t *testing.T, ts *httptest.Server, id string) jobBody {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var jb jobBody
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatalf("GET job %s: decode: %v", id, err)
	}
	return jb
}

// waitTerminal polls a job until done/failed.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobBody {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		jb := getJob(t, ts, id)
		if jb.Status == StatusDone || jb.Status == StatusFailed {
			return jb
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return jobBody{}
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, s *Server, id string, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if ok && j.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %s", id, want)
}

// stallHook returns a JobHook that blocks every checkpoint until release
// is closed (after which checkpoints pass instantly).
func stallHook(release chan struct{}) func(string) budget.Hook {
	return func(string) budget.Hook {
		return func(int64) error { <-release; return nil }
	}
}

func TestServeAnalyzeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	id := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":32}`)
	jb := waitTerminal(t, ts, id)
	if jb.Status != StatusDone {
		t.Fatalf("job status %s, result %+v", jb.Status, jb.Result)
	}
	res := jb.Result
	if res == nil || len(res.Candidates) != 1 {
		t.Fatalf("want 1 candidate, got %+v", res)
	}
	c := res.Candidates[0]
	if c.Accesses <= 0 || len(c.Refs) == 0 {
		t.Fatalf("empty candidate result: %+v", c)
	}
	if res.Key == "" {
		t.Fatalf("missing solve key")
	}
	if res.Error != nil || c.Error != "" {
		t.Fatalf("unexpected error: %+v / %q", res.Error, c.Error)
	}

	// The SSE stream of a finished job delivers exactly the terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	if !strings.Contains(string(stream), "event: done") ||
		!strings.Contains(string(stream), `"status":"done"`) {
		t.Fatalf("terminal SSE event missing from stream:\n%s", stream)
	}

	// /metrics exposes the serving counters next to the solver's.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_jobs_completed_total", "serve_queue_depth", "serve_shed_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if got := s.Outcomes().Completed; got < 1 {
		t.Fatalf("outcomes completed = %d", got)
	}
}

func TestServeSweepEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	id := submitJob(t, ts, "/v1/sweep",
		`{"program":"jacobi2d","size":24,"cache_sizes":[4096,16384],"line_sizes":[32],"assocs":[1,2]}`)
	jb := waitTerminal(t, ts, id)
	if jb.Status != StatusDone {
		t.Fatalf("sweep status %s, result %+v", jb.Status, jb.Result)
	}
	if len(jb.Result.Candidates) != 4 {
		t.Fatalf("want 4 candidates, got %d", len(jb.Result.Candidates))
	}
	for _, c := range jb.Result.Candidates {
		if c.Error != "" || c.Accesses <= 0 {
			t.Fatalf("bad sweep row: %+v", c)
		}
	}
}

// TestServeScalingEndToEnd posts a ladder sweep to /v1/sweep and checks
// the closed-form contract on the wire: every ladder size answered as one
// candidate row with closed-form provenance, and the counts bit-identical
// to an exact /v1/analyze of the same size and geometry.
func TestServeScalingEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	id := submitJob(t, ts, "/v1/sweep",
		`{"program":"hydro","iters":2,"cache_sizes":[256],"line_sizes":[32],"assocs":[1],"from":128,"to":224,"step":32,"exact":true}`)
	jb := waitTerminal(t, ts, id)
	if jb.Status != StatusDone {
		t.Fatalf("ladder status %s, result %+v", jb.Status, jb.Result)
	}
	res := jb.Result
	if len(res.Candidates) != 4 {
		t.Fatalf("want 4 ladder rows, got %d", len(res.Candidates))
	}
	if !strings.HasPrefix(res.Key, "sc:") {
		t.Fatalf("ladder solve key %q", res.Key)
	}
	for i, c := range res.Candidates {
		wantLabel := fmt.Sprintf("256B/32B/direct N=%d", 128+32*i)
		if c.Label != wantLabel {
			t.Fatalf("row %d label %q, want %q", i, c.Label, wantLabel)
		}
		if c.Error != "" || c.Accesses <= 0 {
			t.Fatalf("bad ladder row: %+v", c)
		}
		if !c.ClosedForm || c.ClosedWhy != "" {
			t.Fatalf("row %s not closed form (%q)", c.Label, c.ClosedWhy)
		}
		if c.ClosedFormRefs != len(c.Refs) {
			t.Fatalf("row %s covers %d/%d refs", c.Label, c.ClosedFormRefs, len(c.Refs))
		}
		for _, r := range c.Refs {
			if !r.ClosedForm {
				t.Fatalf("row %s ref %s not closed form", c.Label, r.ID)
			}
		}
	}
	// Bit-identity against the enumerating path, through the public API.
	sameRefsAsAnalyze(t, ts, res.Candidates[1], 160) // N=160
}

// sameRefsAsAnalyze checks a ladder row's counts against an exact
// /v1/analyze of the same program (hydro, 2 iterations) and geometry at
// size n.
func sameRefsAsAnalyze(t *testing.T, ts *httptest.Server, row CandidateResult, n int64) {
	t.Helper()
	aid := submitJob(t, ts, "/v1/analyze", fmt.Sprintf(
		`{"program":"hydro","size":%d,"iters":2,"cache_bytes":%d,"line_bytes":%d,"assoc":%d,"exact":true}`,
		n, row.CacheBytes, row.LineBytes, row.Assoc))
	ab := waitTerminal(t, ts, aid)
	if ab.Status != StatusDone {
		t.Fatalf("analyze status %s, result %+v", ab.Status, ab.Result)
	}
	exact := map[string]RefResult{}
	for _, r := range ab.Result.Candidates[0].Refs {
		exact[r.ID] = r
	}
	if len(row.Refs) == 0 || len(row.Refs) != len(exact) {
		t.Fatalf("%s: %d refs, exact analyze has %d", row.Label, len(row.Refs), len(exact))
	}
	for _, r := range row.Refs {
		w, ok := exact[r.ID]
		if !ok {
			t.Fatalf("ref %s missing from exact analyze", r.ID)
		}
		if r.Volume != w.Volume || r.Analyzed != w.Analyzed ||
			r.Hits != w.Hits || r.Cold != w.Cold || r.Repl != w.Repl {
			t.Fatalf("%s ref %s: ladder %+v != exact %+v", row.Label, r.ID, r, w)
		}
	}
}

// TestServeLadderKeysSeparateCaches: two ladder sweeps that differ only in
// a cache size whose KB-truncated label is the same (1536 vs 1792 bytes,
// 128 vs 256 bytes) are different solves. Each gets its own flight key
// and its own counts, equal to an exact analyze of its own geometry, so a
// concurrent follower can never be handed the other cache's answer.
func TestServeLadderKeysSeparateCaches(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, pair := range [][2]int64{{1536, 1792}, {128, 256}} {
		var keys [2]string
		var rows [2]CandidateResult
		var ids [2]string
		for i, cb := range pair {
			ids[i] = submitJob(t, ts, "/v1/sweep", fmt.Sprintf(
				`{"program":"hydro","iters":2,"cache_sizes":[%d],"line_sizes":[32],"assocs":[1],"ns":[96,128],"exact":true}`, cb))
		}
		for i, id := range ids {
			jb := waitTerminal(t, ts, id)
			if jb.Status != StatusDone || len(jb.Result.Candidates) != 2 {
				t.Fatalf("%d B ladder: status %s, result %+v", pair[i], jb.Status, jb.Result)
			}
			keys[i], rows[i] = jb.Result.Key, jb.Result.Candidates[1]
			if rows[i].CacheBytes != pair[i] {
				t.Fatalf("%d B ladder answered for %d B", pair[i], rows[i].CacheBytes)
			}
		}
		if keys[0] == keys[1] {
			t.Fatalf("%d B and %d B ladders share flight key %s", pair[0], pair[1], keys[0])
		}
		for _, row := range rows {
			sameRefsAsAnalyze(t, ts, row, 128)
		}
	}
}

// TestServeLadderCached: an identical ladder sweep submitted after the
// first has finished goes through the server's result cache — its exact
// solves (the fit samples and the fall-through size N=16) hit instead of
// re-enumerating — and returns byte-equal rows. The fit samples stay
// inside the job's default point budget, so neither run degrades.
func TestServeLadderCached(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	const body = `{"program":"hydro","iters":2,"cache_sizes":[256],"line_sizes":[32],"assocs":[1],"ns":[16,128,160],"exact":true}`
	hits := obs.Default.Counter("cme_resultcache_hits_total")
	var rows [2][]byte
	var grew int64
	for i := range rows {
		before := hits.Value()
		jb := waitTerminal(t, ts, submitJob(t, ts, "/v1/sweep", body))
		if jb.Status != StatusDone || jb.Result.Degraded || len(jb.Result.Candidates) != 3 {
			t.Fatalf("ladder %d: status %s, result %+v", i, jb.Status, jb.Result)
		}
		rows[i], _ = json.Marshal(jb.Result.Candidates)
		grew = hits.Value() - before
	}
	if grew <= 0 {
		t.Fatalf("repeated ladder took no result-cache hits")
	}
	if !bytes.Equal(rows[0], rows[1]) {
		t.Fatalf("repeated ladder rows differ:\n%s\n%s", rows[0], rows[1])
	}
}

// TestServeSweepGeomClosedForm posts an exact cache-size column to
// /v1/sweep and checks the set-count tier on the wire: the column splits
// into one anchor row (ClosedAnchor) and closed-form rows (ClosedForm
// with full ref coverage), and a closed-form row's counts are
// bit-identical to an exact /v1/analyze of the same geometry.
func TestServeSweepGeomClosedForm(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxCandidates: 16})
	id := submitJob(t, ts, "/v1/sweep",
		`{"program":"tomcatv","size":24,"exact":true,"line_sizes":[32],"assocs":[1],
		  "cache_sizes":[40960,43008,45056,47104,49152,51200,53248,55296]}`)
	jb := waitTerminal(t, ts, id)
	if jb.Status != StatusDone {
		t.Fatalf("sweep status %s, result %+v", jb.Status, jb.Result)
	}
	res := jb.Result
	if len(res.Candidates) != 8 {
		t.Fatalf("want 8 column rows, got %d", len(res.Candidates))
	}
	anchors, closed := 0, 0
	for _, c := range res.Candidates {
		if c.Error != "" || c.Accesses <= 0 {
			t.Fatalf("bad column row: %+v", c)
		}
		switch {
		case c.ClosedAnchor:
			anchors++
		case c.ClosedForm:
			closed++
			if c.ClosedFormRefs != len(c.Refs) {
				t.Fatalf("row %s covers %d/%d refs", c.Label, c.ClosedFormRefs, len(c.Refs))
			}
			for _, r := range c.Refs {
				if !r.ClosedForm {
					t.Fatalf("row %s ref %s not closed form", c.Label, r.ID)
				}
			}
		default:
			t.Fatalf("row %s neither anchor nor closed form (why %q)", c.Label, c.ClosedWhy)
		}
	}
	// One stable class: the first size anchors, the other seven copy it.
	if anchors != 1 || closed != 7 || !res.Candidates[0].ClosedAnchor {
		t.Fatalf("column split %d anchors / %d closed (first row anchor %v), want 1/7 with the first anchoring",
			anchors, closed, res.Candidates[0].ClosedAnchor)
	}

	// Bit-identity against the enumerating path, through the public API.
	aid := submitJob(t, ts, "/v1/analyze",
		`{"program":"tomcatv","size":24,"exact":true,"cache_bytes":49152,"line_bytes":32,"assoc":1}`)
	ab := waitTerminal(t, ts, aid)
	if ab.Status != StatusDone {
		t.Fatalf("analyze status %s, result %+v", ab.Status, ab.Result)
	}
	exact := map[string]RefResult{}
	for _, r := range ab.Result.Candidates[0].Refs {
		exact[r.ID] = r
	}
	for _, c := range res.Candidates {
		if c.CacheBytes != 49152 {
			continue
		}
		for _, r := range c.Refs {
			w, ok := exact[r.ID]
			if !ok {
				t.Fatalf("ref %s missing from exact analyze", r.ID)
			}
			if r.Volume != w.Volume || r.Analyzed != w.Analyzed ||
				r.Hits != w.Hits || r.Cold != w.Cold || r.Repl != w.Repl {
				t.Fatalf("ref %s: geom %+v != exact %+v", r.ID, r, w)
			}
		}
	}
}

// TestServeScalingRejectsBadRequests covers ladder-specific admission on
// /v1/sweep. Each case overlays an otherwise valid exact one-geometry
// ladder body and must be refused with a 400 that names its fault.
func TestServeScalingRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCandidates: 8})
	for name, tc := range map[string]struct{ body, want string }{
		"unknown program":   {`{"program":"nope"}`, "unknown program"},
		"both sources":      {`{"source":"X"}`, "not both"},
		"bad ladder":        {`{"ns":[],"from":512,"to":128,"step":64}`, "bad ladder"},
		"oversized size":    {`{"ns":[99999]}`, "ladder size 99999"},
		"too many sizes":    {`{"ns":[],"from":32,"to":1024,"step":32}`, "ladder sizes exceeds"},
		"huge range":        {`{"ns":[],"from":1,"to":9223372036854775807,"step":1}`, "ladder size"},
		"negative from":     {`{"ns":[],"from":-64,"to":512,"step":64}`, "bad ladder"},
		"bad priority":      {`{"priority":"urgent"}`, "priority"},
		"invalid geometry":  {`{"cache_sizes":[1000]}`, "not divisible"},
		"not exact":         {`{"exact":false}`, "needs exact"},
		"pad axis":          {`{"pad_array":"ZA","pads":[0,2]}`, "pad axis"},
		"negative iters":    {`{"iters":-1}`, "iters must be positive"},
		"size_const, no ns": {`{"ns":[],"size_const":"M"}`, "needs a problem-size ladder"},
	} {
		body := map[string]any{"program": "hydro", "cache_sizes": []int{256}, "line_sizes": []int{32},
			"assocs": []int{1}, "ns": []int{64}, "exact": true}
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.UseNumber() // keep 2^63-1 exact
		var over map[string]any
		if err := dec.Decode(&over); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, v := range over {
			body[k] = v
		}
		blob, _ := json.Marshal(body)
		code, m := postJSON(t, ts, "/v1/sweep", string(blob))
		if msg := fmt.Sprint(m["error"]); code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d body %v, want 400 naming %q", name, code, m, tc.want)
		}
	}
	// The ladder moved into /v1/sweep; the old endpoint is gone.
	resp, err := http.Post(ts.URL+"/v1/scaling", "application/json", strings.NewReader(`{"program":"hydro"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/scaling: status %d, want 404", resp.StatusCode)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"unknown program": `{"program":"nope"}`,
		"both sources":    `{"program":"hydro","source":"X"}`,
		"unknown field":   `{"program":"hydro","bogus":1}`,
		"oversized":       `{"program":"hydro","size":99999}`,
		"bad priority":    `{"program":"hydro","priority":"urgent"}`,
		"negative budget": `{"program":"hydro","budget":{"timeout_ms":-5}}`,
	} {
		code, m := postJSON(t, ts, "/v1/analyze", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %v", name, code, m)
		}
	}
}

func TestServeShedsOnQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1, JobHook: stallHook(release)})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	a := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	waitStatus(t, s, a, StatusRunning) // worker stalled in the hook
	b := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)

	// Queue of one is full: the third request is shed, typed, with
	// Retry-After — never queued behind work that cannot start.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"program":"hydro","size":24}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if !strings.Contains(string(body), kindQueueFull) {
		t.Fatalf("429 body not typed queue_full: %s", body)
	}
	if got := s.Outcomes().Shed; got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}

	close(release)
	for _, id := range []string{a, b} {
		if jb := waitTerminal(t, ts, id); jb.Status != StatusDone {
			t.Fatalf("job %s finished %s", id, jb.Status)
		}
	}
}

func TestServeShedsOnPointPoolSaturation(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, MaxPointsInFlight: 100, JobHook: stallHook(release)})
	defer close(release)

	a := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24,"budget":{"max_points":80}}`)

	// The second declared budget does not fit the global pool: 503, typed
	// overloaded, before it can queue behind capacity that is not there.
	code, m := postJSON(t, ts, "/v1/analyze", `{"program":"hydro","size":24,"budget":{"max_points":80}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d: %v", code, m)
	}
	if fmt.Sprint(m["error"]) == "" || !strings.Contains(fmt.Sprint(m), kindOverloaded) {
		t.Fatalf("503 body not typed overloaded: %v", m)
	}

	waitStatus(t, s, a, StatusRunning)
	_ = a
}

// TestServeBudgetedAnalyzeIsBounded: an exact analyze whose point budget
// exhausts the grace resample answers on the bounded tier, with no
// second-model ratio on the wire, and its miss ratio (the upper end of the
// bound) does not undercount the simulator.
func TestServeBudgetedAnalyzeIsBounded(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, SolveWorkers: 1})
	id := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24,"iters":24,"exact":true,`+
		`"cache_bytes":4096,"line_bytes":32,"assoc":2,"budget":{"max_points":1}}`)
	if jb := waitTerminal(t, ts, id); jb.Status != StatusDone {
		t.Fatalf("job status %s, result %+v", jb.Status, jb.Result)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(raw, []byte(`"ratio"`)) {
		t.Errorf("job body carries a ratio key: %s", raw)
	}
	var jb jobBody
	if err := json.Unmarshal(raw, &jb); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	if jb.Result == nil || len(jb.Result.Candidates) != 1 {
		t.Fatalf("want 1 candidate, got %+v", jb.Result)
	}
	row := jb.Result.Candidates[0]
	if row.Tier != "bounded" || !row.Degraded {
		t.Fatalf("row tier %q degraded=%v, want a degraded bounded row", row.Tier, row.Degraded)
	}
	np, err := (&spec.Program{Program: "hydro", Size: 24, Iters: 24}).Prepare(spec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	sim := trace.Simulate(np, cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2})
	if simPct := 100 * float64(sim.Misses) / float64(sim.Accesses); row.MissRatioPct < simPct {
		t.Errorf("bounded row reads %.2f%%, below the simulator's %.2f%%", row.MissRatioPct, simPct)
	}
}

// solveKeyFor computes the content address the server will use for a
// request, via an independent build of the same spec.
func solveKeyFor(t *testing.T, s *Server, req *AnalyzeRequest) string {
	t.Helper()
	spec, err := s.opt.specFromAnalyze(req)
	if err != nil {
		t.Fatalf("specFromAnalyze: %v", err)
	}
	fl, err := spec.prepare(s)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return fl.key
}

func TestServeSingleflightDedup(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 2, JobHook: stallHook(release)})

	const body = `{"program":"jacobi2d","size":24}`
	a := submitJob(t, ts, "/v1/analyze", body)
	waitStatus(t, s, a, StatusRunning) // leader stalled mid-solve

	b := submitJob(t, ts, "/v1/analyze", body)
	waitStatus(t, s, b, StatusRunning)

	// Wait until the second job is provably blocked on the first job's
	// in-flight solve, then let the leader finish: one solve, two results.
	key := solveKeyFor(t, s, &AnalyzeRequest{ProgramSpec: ProgramSpec{Program: "jacobi2d", Size: 24}})
	deadline := time.Now().Add(30 * time.Second)
	for s.flight.waiting(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never joined the in-flight solve for %s", key)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	ra, rb := waitTerminal(t, ts, a), waitTerminal(t, ts, b)
	if ra.Status != StatusDone || rb.Status != StatusDone {
		t.Fatalf("status %s / %s", ra.Status, rb.Status)
	}
	if ra.Result.Key != key || rb.Result.Key != key {
		t.Fatalf("keys diverge: %s / %s want %s", ra.Result.Key, rb.Result.Key, key)
	}
	if got := s.Outcomes().SingleflightHits; got != 1 {
		t.Fatalf("singleflight hits = %d, want 1", got)
	}
	if ra.Result.Shared == rb.Result.Shared {
		t.Fatalf("want exactly one shared result, got %v / %v", ra.Result.Shared, rb.Result.Shared)
	}
	// Bit-identical answers, shared or solved.
	if !reflect.DeepEqual(ra.Result.Candidates, rb.Result.Candidates) {
		t.Fatalf("deduplicated results diverge:\n%+v\n%+v", ra.Result.Candidates, rb.Result.Candidates)
	}
}

func TestServePanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobHook: func(id string) budget.Hook {
		if id != "j000001" {
			return nil
		}
		return func(n int64) error {
			if n >= 2 {
				panic("chaos: injected solver panic")
			}
			return nil
		}
	}})

	// The first job's solver panics mid-tile; the panic is isolated into a
	// typed failure with the panic text, and the server keeps serving.
	a := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	ja := waitTerminal(t, ts, a)
	if ja.Status != StatusFailed || ja.Result.Error == nil {
		t.Fatalf("panicking job: status %s result %+v", ja.Status, ja.Result)
	}
	if ja.Result.Error.Kind != kindPanic {
		t.Fatalf("error kind %q, want %q (%s)", ja.Result.Error.Kind, kindPanic, ja.Result.Error.Message)
	}
	if !strings.Contains(ja.Result.Error.Message, "injected solver panic") {
		t.Fatalf("panic provenance lost: %q", ja.Result.Error.Message)
	}

	b := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	if jb := waitTerminal(t, ts, b); jb.Status != StatusDone {
		t.Fatalf("server did not survive the panic: job 2 %s %+v", jb.Status, jb.Result)
	}
	out := s.Outcomes()
	if out.Failed != 1 || out.Completed != 1 {
		t.Fatalf("outcomes after panic: %+v", out)
	}
}

func TestServeTransientRetry(t *testing.T) {
	var mu sync.Mutex
	faults := map[string]*faultinject.Transient{}
	s, ts := newTestServer(t, Options{Workers: 1,
		RetryPolicy: retry.Policy{Attempts: 3, Base: time.Millisecond, Jitter: true},
		JobHook: func(id string) budget.Hook {
			mu.Lock()
			tr := faults[id]
			if tr == nil {
				tr = faultinject.TransientN(1)
				faults[id] = tr
			}
			mu.Unlock()
			return func(int64) error { return tr.Call() }
		}})

	// First attempt dies transiently at its first checkpoint; the server
	// re-enqueues the whole job with backoff and the second attempt runs
	// clean — the client sees one job that simply succeeded, with the
	// retry recorded in its provenance.
	id := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	jb := waitTerminal(t, ts, id)
	if jb.Status != StatusDone {
		t.Fatalf("status %s result %+v", jb.Status, jb.Result)
	}
	if jb.Result.Retries != 1 {
		t.Fatalf("retries = %d, want 1", jb.Result.Retries)
	}
	if got := s.Outcomes().Retried; got != 1 {
		t.Fatalf("outcomes retried = %d, want 1", got)
	}
}

func TestServeCancel(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 8, JobHook: stallHook(gate)})

	running := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	waitStatus(t, s, running, StatusRunning)
	queued := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)

	// Cancel both: the queued one dies before solving, the running one at
	// its next checkpoint once the gate opens.
	for _, id := range []string{queued, running} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
	}
	close(gate)

	for _, id := range []string{running, queued} {
		jb := waitTerminal(t, ts, id)
		if jb.Status != StatusFailed || jb.Result.Error == nil || jb.Result.Error.Kind != kindCanceled {
			t.Fatalf("cancelled job %s: status %s result %+v", id, jb.Status, jb.Result)
		}
	}
}

func TestServeGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.json")
	s, err := New(Options{Workers: 2, CachePath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	if jb := waitTerminal(t, ts, id); jb.Status != StatusDone {
		t.Fatalf("job %s", jb.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The result cache was flushed atomically and decodes cleanly.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("result cache not flushed: %v", err)
	}
	var store struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &store); err != nil || store.Schema == "" {
		t.Fatalf("flushed store malformed (schema %q, err %v)", store.Schema, err)
	}

	// Post-drain: admission sheds typed, health answers draining.
	code, m := postJSON(t, ts, "/v1/analyze", `{"program":"hydro"}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(fmt.Sprint(m), kindDraining) {
		t.Fatalf("post-drain POST: %d %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d", resp.StatusCode)
	}
}

// TestServeRunReport checks the server's run report carries job outcomes
// that validate against the obs schema.
func TestServeRunReport(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	id := submitJob(t, ts, "/v1/analyze", `{"program":"hydro","size":24}`)
	waitTerminal(t, ts, id)

	rep := s.RunReport()
	if rep.Jobs == nil || rep.Jobs.Completed != 1 {
		t.Fatalf("run report jobs: %+v", rep.Jobs)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("write run report: %v", err)
	}
}

// TestDistHandlerMount: an Options.Dist handler owns the /v1/dist/
// prefix; without one the prefix 404s like any unknown route.
func TestDistHandlerMount(t *testing.T) {
	dist := http.NewServeMux()
	dist.HandleFunc("GET /v1/dist/status", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"units":0}`)
	})
	_, ts := newTestServer(t, Options{Dist: dist})
	resp, err := http.Get(ts.URL + "/v1/dist/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mounted dist route answered %d, want 200", resp.StatusCode)
	}
	// The server's own routes still win outside the prefix.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz answered %d with dist mounted, want 200", resp.StatusCode)
	}

	_, bare := newTestServer(t, Options{})
	resp, err = http.Get(bare.URL + "/v1/dist/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmounted dist route answered %d, want 404", resp.StatusCode)
	}
}
