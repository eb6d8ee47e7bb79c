package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cachemodel/internal/obs"
)

// Lease response statuses.
const (
	LeaseUnit     = "unit"     // a unit is attached: solve it
	LeaseWait     = "wait"     // nothing pending: ask again after RetryAfterMs
	LeaseShutdown = "shutdown" // every sweep is done: exit
)

// LeaseResponse is the coordinator's answer to a lease request.
type LeaseResponse struct {
	Status       string `json:"status"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Sweep        string `json:"sweep,omitempty"`
	TTLMs        int64  `json:"ttl_ms,omitempty"`
	// Traceparent carries the unit's trace context (trace id + unit span
	// id) for traced sweeps; empty otherwise, in which case the worker
	// solves uninstrumented (nil sink).
	Traceparent string    `json:"traceparent,omitempty"`
	Unit        *UnitSpec `json:"unit,omitempty"`
}

// UnitSpec is one leased work unit: everything a worker needs to
// reproduce the exact solve the unit key was derived from.
type UnitSpec struct {
	Key        string          `json:"key"`
	Seq        int             `json:"seq"`
	Program    ProgramSpec     `json:"program"`
	Solve      SolveSpec       `json:"solve"`
	Candidates []WireCandidate `json:"candidates"`
}

// leaseRequest / heartbeatRequest / completeRequest are the worker→
// coordinator wire forms.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Sweep  string `json:"sweep"`
	Unit   string `json:"unit"`
}

type completeRequest struct {
	Worker string `json:"worker"`
	Sweep  string `json:"sweep"`
	Unit   string `json:"unit"`
	Rows   []Row  `json:"rows,omitempty"`
	Error  string `json:"error,omitempty"`
	// Spans is the worker's span shard for a traced unit (the solve span
	// tree whose root links to the unit span via its parent id).
	Spans *obs.SpanSnapshot `json:"spans,omitempty"`
}

// Handler exposes the coordinator over HTTP/JSON. Routes are registered
// under their full /v1/dist/... paths so the handler mounts identically
// standalone (`cachette dist coordinate`) and inside the analysis server
// (serve.Options.Dist), without serve importing this package.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/dist/lease", c.handleLease)
	mux.HandleFunc("POST /v1/dist/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/dist/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/dist/status", c.handleStatus)
	mux.HandleFunc("GET /v1/dist/sweeps/{id}", c.handleSweepStatus)
	mux.HandleFunc("GET /v1/dist/sweeps/{id}/report", c.handleReport)
	mux.HandleFunc("GET /v1/dist/sweeps/{id}/trace", c.handleTrace)
	return mux
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if err := decodeBody(w, r, &spec, 1<<20); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// An HTTP submitter's trace context arrives as a traceparent header
	// (the serve mount forwards the request context unchanged).
	ctx := WithTraceparent(r.Context(), r.Header.Get(obs.TraceparentHeader))
	st, err := c.AddSweep(ctx, &spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing worker id"))
		return
	}
	// Held: an idle worker's request stays open until there is work or
	// the hold expires, so a queued unit starts within one round trip.
	writeJSON(w, http.StatusOK, c.LeaseWait(r.Context(), req.Worker))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !c.Heartbeat(req.Worker, req.Sweep, req.Unit) {
		// 410: the lease is gone (stolen or resolved); abandon the unit.
		httpError(w, http.StatusGone, fmt.Errorf("lease on unit %.12s is gone", req.Unit))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	// Unit results carry full per-reference rows: the body cap is the
	// result-sized one, not the request-sized one.
	if err := decodeBody(w, r, &req, 64<<20); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Complete(req.Worker, req.Sweep, req.Unit, req.Rows, req.Error, req.Spans); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.SweepStatus(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such sweep"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	tf, err := c.Trace(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, tf)
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.SweepStatus(id)
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such sweep"))
		return
	}
	rep, err := c.Report(id)
	if err != nil {
		code := http.StatusConflict // still running
		if st.Failed != "" {
			code = http.StatusInternalServerError
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Client is the typed HTTP client workers and the CLI use against a
// coordinator (standalone or mounted in the analysis server).
type Client struct {
	Base string // e.g. "http://127.0.0.1:8355"
	HTTP *http.Client
	// Worker, when set, stamps every request with an X-Cachette-Worker
	// header so coordinator-side access logs correlate to worker ids.
	Worker string
}

func (cl *Client) client() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// do round-trips one JSON request. A non-2xx status decodes the error
// envelope into *HTTPError so callers can branch on the code.
func (cl *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Correlation headers: the caller's trace position (when ctx carries
	// an obs collector) and the worker identity ride every request.
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if cl.Worker != "" {
		req.Header.Set("X-Cachette-Worker", cl.Worker)
	}
	resp, err := cl.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("status %d", resp.StatusCode)
		if json.Unmarshal(blob, &env) == nil && env.Error != "" {
			msg = env.Error
		}
		return &HTTPError{Code: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// HTTPError is a non-2xx coordinator answer.
type HTTPError struct {
	Code int
	Msg  string
}

func (e *HTTPError) Error() string { return fmt.Sprintf("coordinator: %s (HTTP %d)", e.Msg, e.Code) }

// Submit posts a sweep and returns its status (idempotent on identical
// specs).
func (cl *Client) Submit(ctx context.Context, spec *SweepSpec) (*SweepStatus, error) {
	var st SweepStatus
	if err := cl.do(ctx, http.MethodPost, "/v1/dist/sweep", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Lease asks for the next work unit.
func (cl *Client) Lease(ctx context.Context, worker string) (*LeaseResponse, error) {
	var lr LeaseResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/dist/lease", leaseRequest{Worker: worker}, &lr); err != nil {
		return nil, err
	}
	return &lr, nil
}

// Heartbeat extends a lease. ok=false (no error) means the lease is gone
// and the unit should be abandoned.
func (cl *Client) Heartbeat(ctx context.Context, worker, sweep, unit string) (bool, error) {
	err := cl.do(ctx, http.MethodPost, "/v1/dist/heartbeat",
		heartbeatRequest{Worker: worker, Sweep: sweep, Unit: unit}, nil)
	var he *HTTPError
	if errors.As(err, &he) && he.Code == http.StatusGone {
		return false, nil
	}
	return err == nil, err
}

// Complete posts a unit result (or a unit failure when errMsg != "").
// spans, optional, is the worker's span shard for a traced unit.
func (cl *Client) Complete(ctx context.Context, worker, sweep, unit string, rows []Row, errMsg string, spans *obs.SpanSnapshot) error {
	return cl.do(ctx, http.MethodPost, "/v1/dist/complete",
		completeRequest{Worker: worker, Sweep: sweep, Unit: unit, Rows: rows, Error: errMsg, Spans: spans}, nil)
}

// Status fetches the coordinator-wide snapshot.
func (cl *Client) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := cl.do(ctx, http.MethodGet, "/v1/dist/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SweepStatus fetches one sweep's status.
func (cl *Client) SweepStatus(ctx context.Context, id string) (*SweepStatus, error) {
	var st SweepStatus
	if err := cl.do(ctx, http.MethodGet, "/v1/dist/sweeps/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Trace fetches a sweep's assembled Chrome trace-event file.
func (cl *Client) Trace(ctx context.Context, id string) (*obs.TraceFile, error) {
	var tf obs.TraceFile
	if err := cl.do(ctx, http.MethodGet, "/v1/dist/sweeps/"+id+"/trace", nil, &tf); err != nil {
		return nil, err
	}
	return &tf, nil
}

// Report fetches a finished sweep's merged report.
func (cl *Client) Report(ctx context.Context, id string) (*MergedReport, error) {
	var rep MergedReport
	if err := cl.do(ctx, http.MethodGet, "/v1/dist/sweeps/"+id+"/report", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
