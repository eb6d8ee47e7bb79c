package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cachemodel/internal/obs"
)

// maxBodyBytes bounds request bodies; inline FORTRAN sources are small.
const maxBodyBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST   /v1/analyze        submit one analysis        → 202 {job,status,links}
//	POST   /v1/sweep          submit a design-space sweep, optionally
//	                          crossed with a problem-size ladder → 202
//	GET    /v1/jobs/{id}      job status + terminal result
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	GET    /v1/jobs/{id}/events  SSE progress + terminal event
//	GET    /metrics           Prometheus text exposition
//	GET    /healthz           liveness (503 while draining)
//
// Shed requests answer 429 (queue full) or 503 (overloaded / draining)
// with Retry-After and a typed JSON body — a client can always tell "try
// later" from "your request is wrong" (400) and "the analysis failed"
// (terminal job result).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", admit(s, s.opt.specFromAnalyze))
	mux.HandleFunc("POST /v1/sweep", admit(s, s.opt.specFromSweep))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.Handle("GET /metrics", obs.Handler(obs.Default))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.opt.Dist != nil {
		// The coordinator registers full /v1/dist/... routes itself; mount
		// it for both methods so its own mux does the dispatch.
		mux.Handle("/v1/dist/", s.opt.Dist)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string, retryAfter time.Duration) {
	body := ErrorBody{Kind: kind, Message: msg}
	if retryAfter > 0 {
		body.RetryAfterMs = retryAfter.Milliseconds()
		w.Header().Set("Retry-After", strconv.FormatInt(int64(retryAfter.Seconds()+0.5), 10))
	}
	writeJSON(w, status, map[string]ErrorBody{"error": body})
}

func (s *Server) writeHTTPError(w http.ResponseWriter, e *httpError) {
	writeError(w, e.status, e.kind, e.msg, e.retryAfter)
}

// decodeBody strictly decodes a bounded JSON body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, kindInvalid, "bad request body: "+err.Error(), 0)
		return false
	}
	return true
}

// jobBody is the submission/status wire form of a job.
type jobBody struct {
	Job      string            `json:"job"`
	Status   JobStatus         `json:"status"`
	Priority string            `json:"priority"`
	TraceID  string            `json:"trace_id,omitempty"`
	Created  time.Time         `json:"created"`
	Links    map[string]string `json:"links,omitempty"`
	Result   *Result           `json:"result,omitempty"`
}

func jobToBody(j *Job, withLinks bool) jobBody {
	prio := "interactive"
	if j.Priority == prioBatch {
		prio = "batch"
	}
	b := jobBody{Job: j.ID, Status: j.Status(), Priority: prio, TraceID: j.TraceID, Created: j.Created, Result: j.Result()}
	if withLinks {
		b.Links = map[string]string{
			"self":   "/v1/jobs/" + j.ID,
			"events": "/v1/jobs/" + j.ID + "/events",
		}
	}
	return b
}

// admit decodes one request shape and queues the job it specifies. A
// request the validation refuses answers 400 before any work is done.
func admit[R any](s *Server, toSpec func(*R) (*jobSpec, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeBody(w, r, &req) {
			return
		}
		spec, err := toSpec(&req)
		if err != nil {
			writeError(w, http.StatusBadRequest, kindInvalid, err.Error(), 0)
			return
		}
		j, herr := s.submit(spec, r.Header.Get(obs.TraceparentHeader))
		if herr != nil {
			s.writeHTTPError(w, herr)
			return
		}
		writeJSON(w, http.StatusAccepted, jobToBody(j, true))
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, kindInvalid, "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, jobToBody(j, true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, kindInvalid, "no such job", 0)
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, map[string]string{"job": j.ID, "cancel": "requested"})
}

// handleJobEvents streams a job's progress as server-sent events and
// always ends with one terminal event carrying the final status. Progress
// is lossy by design (throttled UI telemetry); the terminal event is not —
// it is synthesised from the job snapshot once the stream closes, so a
// subscriber can never miss the ending.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, kindInvalid, "no such job", 0)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, kindError, "streaming unsupported", 0)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch := j.events.subscribe()
	defer j.events.unsubscribe(ch)
	for {
		select {
		case e, open := <-ch:
			if !open {
				// Stream closed: the job is finishing. finish() closes the
				// hub before signalling done, so wait for done to snapshot a
				// settled status.
				<-j.done
				writeEvent(w, fl, "done", Event{Status: j.Status(), TraceID: j.TraceID,
					ElapsedMs: time.Since(j.Created).Milliseconds()})
				return
			}
			writeEvent(w, fl, "progress", e)
		case <-j.done:
			// Drain any buffered progress, then emit the terminal event.
			for {
				select {
				case e, open := <-ch:
					if !open {
						writeEvent(w, fl, "done", Event{Status: j.Status(), TraceID: j.TraceID,
							ElapsedMs: time.Since(j.Created).Milliseconds()})
						return
					}
					writeEvent(w, fl, "progress", e)
				case <-r.Context().Done():
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeEvent(w http.ResponseWriter, fl http.Flusher, name string, e Event) {
	blob, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, blob)
	fl.Flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, kindDraining, "draining", 5*time.Second)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"queue":  s.queue.depth(),
		"jobs":   s.Outcomes(),
	})
}
