package dist

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cachemodel/internal/obs"
)

// Unit lifecycle timeline.  The coordinator records every scheduling
// transition a unit goes through — cheap structured appends under the
// lock it already holds — so a sweep's wall-clock is explainable
// end-to-end: where units waited, which worker held them, when a lease
// was stolen, when the merge happened.  Timelines power the straggler
// list in /v1/dist/status and the per-sweep Chrome trace export; they
// are kept regardless of tracing (they cost a few appends per unit,
// nothing on the solve path), while span ids and worker-side span
// shards only exist for traced sweeps.

// Timeline states, in nominal order.  Steal/retry edges loop a unit
// back to TimelineQueued; TimelineDeduped and TimelineMerged are
// per-sweep edges on the canonical unit.
const (
	TimelineSubmitted = "submitted" // unit created by a sweep submission
	TimelineQueued    = "queued"    // entered (or re-entered) the pending FIFO
	TimelineLeased    = "leased"    // granted to a worker
	TimelineHeartbeat = "heartbeat" // lease extended (coalesced per worker)
	TimelineStolen    = "stolen"    // lease expired; unit re-queued
	TimelineRetried   = "retried"   // worker-reported failure; unit re-queued
	TimelineFailed    = "failed"    // retries exhausted
	TimelineReported  = "reported"  // worker posted rows
	TimelineMerged    = "merged"    // rows merged into a sweep's ledger
	TimelineDeduped   = "deduped"   // another sweep attached to this unit
)

// TimelineEvent is one recorded transition.
type TimelineEvent struct {
	State string `json:"state"`
	// AtMs is the coordinator-clock wall time in unix milliseconds.
	AtMs   int64  `json:"at_ms"`
	Worker string `json:"worker,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Count compresses runs of identical events (heartbeats) into one
	// entry.
	Count int `json:"count,omitempty"`
}

// UnitTimeline is one unit's exported lifecycle.
type UnitTimeline struct {
	Unit   string          `json:"unit"`
	Seq    int             `json:"seq"`
	SpanID string          `json:"span_id,omitempty"`
	Events []TimelineEvent `json:"events"`
}

// maxTimelineEvents bounds one unit's timeline; a unit stuck in a
// steal/retry storm coalesces into its final entry past the cap rather
// than growing without bound.
const maxTimelineEvents = 1024

// eventLocked appends a transition to a unit's timeline (callers hold
// c.mu).  Consecutive heartbeats from the same worker coalesce into one
// counted entry so a long-held lease stays O(1), not O(duration/TTL).
func (c *Coordinator) eventLocked(u *unit, now time.Time, state, worker, detail string) {
	at := now.UnixMilli()
	if n := len(u.timeline); n > 0 {
		last := &u.timeline[n-1]
		if state == TimelineHeartbeat && last.State == TimelineHeartbeat && last.Worker == worker {
			if last.Count == 0 {
				last.Count = 1
			}
			last.Count++
			last.AtMs = at
			return
		}
		if n >= maxTimelineEvents {
			*last = TimelineEvent{State: state, AtMs: at, Worker: worker, Detail: detail}
			return
		}
	}
	u.timeline = append(u.timeline, TimelineEvent{State: state, AtMs: at, Worker: worker, Detail: detail})
	c.timelineEvents++
}

// tierSummary compresses a unit result's solve tiers ("exact x6",
// "exact x2, sampled x4") for the reported timeline entry — the
// per-tier half of "where did the wall-clock go".
func tierSummary(rows []Row) string {
	counts := map[string]int{}
	var order []string
	for _, r := range rows {
		t := r.Tier
		if t == "" {
			if r.Error != "" {
				t = "error"
			} else {
				t = "unknown"
			}
		}
		if counts[t] == 0 {
			order = append(order, t)
		}
		counts[t]++
	}
	s := ""
	for i, t := range order {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s x%d", t, counts[t])
	}
	return s
}

// maxUnitShards bounds the worker span shards retained per unit.  Only
// the first completion's shard matters for the merged trace (later
// completions are duplicates of stolen leases), but keeping a few shows
// duplicated work in Perfetto when it happens.
const maxUnitShards = 4

type tpKey struct{}

// WithTraceparent attaches a remote traceparent header value to ctx for
// AddSweep: an HTTP submission carries its caller's trace this way when
// no local obs collector exists (the serve mount passes the request
// context straight through).
func WithTraceparent(ctx context.Context, tp string) context.Context {
	if tp == "" {
		return ctx
	}
	return context.WithValue(ctx, tpKey{}, tp)
}

func traceparentFrom(ctx context.Context) string {
	tp, _ := ctx.Value(tpKey{}).(string)
	return tp
}

// Trace assembles the sweep's Chrome trace-event file from the
// coordinator's unit timelines plus the span shards workers posted with
// their completions: one pid per process (pid 0 is the coordinator,
// workers follow sorted by id), one tid per unit.  Load the result at
// ui.perfetto.dev.  Works on running sweeps too (a flight recorder is
// most useful mid-incident); unfinished intervals extend to now.
func (c *Coordinator) Trace(id string) (*obs.TraceFile, error) {
	now := c.opt.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ss, ok := c.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("no such sweep %.12s", id)
	}
	f := &obs.TraceFile{
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"sweep":   ss.id,
			"program": ss.program,
		},
	}
	if ss.traceID != "" {
		f.Metadata["trace_id"] = ss.traceID
	}
	f.NameProcess(0, "coordinator")
	f.NameThread(0, 0, "sweep")
	endUs := now.UnixMicro()
	f.Add(obs.TraceEvent{
		Name: fmt.Sprintf("sweep %.12s", ss.id),
		Cat:  "sweep", Ph: "X",
		Ts: ss.created.UnixMicro(), Dur: endUs - ss.created.UnixMicro(),
		Pid: 0, Tid: 0,
		Args: map[string]any{"trace_id": ss.traceID, "candidates": len(ss.wcs)},
	})

	// Stable worker -> pid mapping, sorted by id.
	workerPid := map[string]int{}
	var workerNames []string
	for _, u := range ss.units {
		for _, sh := range u.shards {
			if w, _ := sh.Attrs["worker"].(string); w != "" && workerPid[w] == 0 {
				workerPid[w] = -1 // mark
				workerNames = append(workerNames, w)
			}
		}
	}
	sort.Strings(workerNames)
	for i, w := range workerNames {
		workerPid[w] = i + 1
		f.NameProcess(i+1, "worker "+w)
	}

	seen := map[*unit]bool{}
	tid := 0
	for _, u := range ss.units {
		if seen[u] {
			continue // a sweep can reference one unit at several seqs
		}
		seen[u] = true
		tid++
		f.NameThread(0, tid, fmt.Sprintf("unit %.12s", u.key))
		args := map[string]any{"unit": u.key}
		if u.spanID != "" {
			args["span_id"] = u.spanID
		}
		// Intervals: queued -> leased, leased -> next transition.  Any
		// state change closes the open interval; instants mark the edges.
		openState, openStart, openWorker := "", int64(0), ""
		closeOpen := func(endMs int64) {
			if openState == "" {
				return
			}
			name := openState
			if openState == TimelineLeased {
				name = "lease " + openWorker
			}
			f.Add(obs.TraceEvent{
				Name: name, Cat: "unit", Ph: "X",
				Ts: openStart * 1000, Dur: (endMs - openStart) * 1000,
				Pid: 0, Tid: tid, Args: args,
			})
			openState = ""
		}
		for _, ev := range u.timeline {
			switch ev.State {
			case TimelineQueued:
				closeOpen(ev.AtMs)
				openState, openStart = TimelineQueued, ev.AtMs
			case TimelineLeased:
				closeOpen(ev.AtMs)
				openState, openStart, openWorker = TimelineLeased, ev.AtMs, ev.Worker
			case TimelineHeartbeat:
				// keeps the lease interval open; instant below
			case TimelineReported, TimelineStolen, TimelineRetried, TimelineFailed:
				closeOpen(ev.AtMs)
			}
			if ev.State == TimelineQueued || ev.State == TimelineLeased {
				continue // rendered as intervals
			}
			ia := map[string]any{"unit": u.key}
			if ev.Worker != "" {
				ia["worker"] = ev.Worker
			}
			if ev.Detail != "" {
				ia["detail"] = ev.Detail
			}
			if ev.Count > 1 {
				ia["count"] = ev.Count
			}
			f.Add(obs.TraceEvent{
				Name: ev.State, Cat: "unit", Ph: "i", S: "t",
				Ts: ev.AtMs * 1000, Pid: 0, Tid: tid, Args: ia,
			})
		}
		closeOpen(now.UnixMilli())

		for _, sh := range u.shards {
			w, _ := sh.Attrs["worker"].(string)
			pid := workerPid[w]
			f.NameThread(pid, tid, fmt.Sprintf("unit %.12s", u.key))
			f.AppendSpan(sh, pid, tid)
		}
	}
	return f, nil
}

// Timelines exports the sweep's raw unit timelines (the trace file's
// source of truth), for tests and programmatic consumers.
func (c *Coordinator) Timelines(id string) ([]UnitTimeline, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ss, ok := c.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("no such sweep %.12s", id)
	}
	out := make([]UnitTimeline, 0, len(ss.units))
	seen := map[*unit]bool{}
	for _, u := range ss.units {
		if seen[u] {
			continue
		}
		seen[u] = true
		seq := -1
		for _, ref := range u.refs {
			if ref.sweep == ss {
				seq = ref.idxs[0]
				break
			}
		}
		out = append(out, UnitTimeline{
			Unit:   u.key,
			Seq:    seq,
			SpanID: u.spanID,
			Events: append([]TimelineEvent(nil), u.timeline...),
		})
	}
	return out, nil
}
