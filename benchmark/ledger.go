package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachemodel/internal/obs"
)

// Spans are recorded by the benchmark around its own calls into each
// layer. They are kept in memory and written out when the run ends; a
// layer's self time is its span's duration minus the part of it that its
// child spans on the same lane cover.

// Run phases a span can belong to.
const (
	phaseSetup int32 = iota
	phaseWarmup
	phaseTimed
	phaseVerify
)

var phaseNames = [...]string{"setup", "warmup", "timed", "verify"}

// clientLane is the lane of the closed-loop client goroutine, the lane
// whose time the ledger accounts for on closed-loop workloads.
const clientLane = 0

type spanRec struct {
	name            string
	id, parent, req int64
	lane            int
	phase           int32
	start, end      time.Time
}

// tracer records spans while enabled; disabled, every call is a no-op.
type tracer struct {
	on    atomic.Bool
	phase atomic.Int32
	ids   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// span is a live span handle; the zero value (tracing off) does nothing.
type span struct {
	t          *tracer
	name       string
	id, parent int64
	req        int64
	lane       int
	phase      int32
	start      time.Time
}

// root opens a span with no parent on a lane, for request req.
func (t *tracer) root(lane int, req int64, name string) span {
	return t.open(lane, req, 0, name)
}

func (t *tracer) open(lane int, req, parent int64, name string) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	return span{t: t, name: name, id: t.ids.Add(1), parent: parent, req: req,
		lane: lane, phase: t.phase.Load(), start: time.Now()}
}

// child opens a span nested in s on the same lane.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.lane, s.req, s.id, name)
}

// end closes the span and records it.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.add(spanRec{name: s.name, id: s.id, parent: s.parent, req: s.req,
		lane: s.lane, phase: s.phase, start: s.start, end: time.Now()})
}

// record stores a span whose interval was measured elsewhere (the serve
// watcher learns a job's end only after the fact).
func (t *tracer) record(lane int, req, parent int64, name string, start, end time.Time) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.ids.Add(1)
	t.add(spanRec{name: name, id: id, parent: parent, req: req, lane: lane,
		phase: t.phase.Load(), start: start, end: end})
	return id
}

func (t *tracer) add(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// lanes hands out the lowest free lane number at or above base, so
// concurrent spans (server handlers, in-flight serve requests) each get a
// track of their own and spans on one lane never overlap.
type lanes struct {
	base int
	mu   sync.Mutex
	busy []bool
}

func (l *lanes) get() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.busy {
		if !b {
			l.busy[i] = true
			return l.base + i
		}
	}
	l.busy = append(l.busy, true)
	return l.base + len(l.busy) - 1
}

func (l *lanes) put(lane int) {
	l.mu.Lock()
	l.busy[lane-l.base] = false
	l.mu.Unlock()
}

// interval is a half-open time span.
type interval struct{ from, to time.Time }

func (iv interval) dur() time.Duration { return iv.to.Sub(iv.from) }

// unionLen is the total length of the union of ivs clipped to w.
func unionLen(ivs []interval, w interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.from.Before(w.from) {
			iv.from = w.from
		}
		if iv.to.After(w.to) {
			iv.to = w.to
		}
		if iv.to.After(iv.from) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from.Before(clipped[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		if i == 0 || iv.from.After(cur.to) {
			total += cur.dur()
			cur = iv
			continue
		}
		if iv.to.After(cur.to) {
			cur.to = iv.to
		}
	}
	return total + cur.dur()
}

// layerStat is one ledger row: a span name's call count, busy time and
// self time.
type layerStat struct {
	name       string
	phase      int32
	count      int
	busy, self time.Duration
}

// ledger is the per-layer account of one run.
type ledger struct {
	rows map[string]*layerStat // key: phase/name
	// wall is the accounted time: the measured window on the client lane
	// (closed loop) or the sum of request spans (open loop). layerSelf is
	// the self time of layer spans inside it and unattributed the part of
	// it no layer span covers; layerSelf + unattributed == wall up to
	// clock rounding.
	wall, layerSelf, unattributed time.Duration
	// timedSpans counts the spans recorded in the timed phase.
	timedSpans int
}

func (l *ledger) row(phase int32, name string) layerStat {
	if r, ok := l.rows[phaseNames[phase]+"/"+name]; ok {
		return *r
	}
	return layerStat{name: name, phase: phase}
}

// isLayer reports whether a span times a layer of the program rather than
// the benchmark's own bookkeeping.
func isLayer(name string) bool { return len(name) < 6 || name[:6] != "bench." }

// buildLedger accounts the spans. windows maps each accounting lane to
// the intervals whose time the ledger must explain.
func buildLedger(spans []spanRec, windows map[int][]interval) *ledger {
	l := &ledger{rows: map[string]*layerStat{}}
	laneOf := map[int64]int{}
	for _, s := range spans {
		laneOf[s.id] = s.lane
	}
	// Children on another lane ran concurrently with their parent; they
	// are linked for the trace but do not reduce its self time.
	sameLaneKids := map[int64][]interval{}
	for _, s := range spans {
		if s.parent != 0 && laneOf[s.parent] == s.lane {
			sameLaneKids[s.parent] = append(sameLaneKids[s.parent], interval{s.start, s.end})
		}
	}
	for _, s := range spans {
		if s.phase == phaseTimed {
			l.timedSpans++
		}
		iv := interval{s.start, s.end}
		self := iv.dur() - unionLen(sameLaneKids[s.id], iv)
		key := phaseNames[s.phase] + "/" + s.name
		r, ok := l.rows[key]
		if !ok {
			r = &layerStat{name: s.name, phase: s.phase}
			l.rows[key] = r
		}
		r.count++
		r.busy += iv.dur()
		r.self += self
	}
	for lane, ws := range windows {
		var layerIvs []interval
		var layerSpans []spanRec
		for _, s := range spans {
			if s.lane == lane && isLayer(s.name) {
				layerIvs = append(layerIvs, interval{s.start, s.end})
				layerSpans = append(layerSpans, s)
			}
		}
		for _, w := range ws {
			l.wall += w.dur()
			l.unattributed += w.dur() - unionLen(layerIvs, w)
			for _, s := range layerSpans {
				iv := interval{s.start, s.end}
				if iv.from.Before(w.from) || iv.to.After(w.to) {
					continue
				}
				l.layerSelf += iv.dur() - unionLen(sameLaneKids[s.id], iv)
			}
		}
	}
	return l
}

// writeTable prints the ledger, slowest layers first.
func (l *ledger) writeTable(w io.Writer) {
	rows := make([]*layerStat, 0, len(l.rows))
	for _, r := range l.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].phase != rows[j].phase {
			return rows[i].phase < rows[j].phase
		}
		return rows[i].self > rows[j].self
	})
	fmt.Fprintf(w, "  %-7s %-22s %8s %12s %12s\n", "phase", "span", "count", "busy ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7s %-22s %8d %12.3f %12.3f\n", phaseNames[r.phase], r.name, r.count,
			ms(r.busy), ms(r.self))
	}
	if l.wall > 0 {
		fmt.Fprintf(w, "  accounted wall %.3f ms = layer self %.3f ms + unattributed %.3f ms (%.2f%%)\n",
			ms(l.wall), ms(l.layerSelf), ms(l.unattributed), 100*float64(l.unattributed)/float64(l.wall))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceFile renders the spans as Chrome trace-event JSON (open it at
// ui.perfetto.dev); lane names label the tracks.
func traceFile(spans []spanRec, process string, laneName func(int) string) *obs.TraceFile {
	f := &obs.TraceFile{DisplayTimeUnit: "ms"}
	f.NameProcess(1, process)
	if len(spans) == 0 {
		return f
	}
	epoch := spans[0].start
	seen := map[int]bool{}
	for _, s := range spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
		if !seen[s.lane] {
			seen[s.lane] = true
			f.NameThread(1, s.lane, laneName(s.lane))
		}
	}
	for _, s := range spans {
		args := map[string]any{"span_id": s.id, "req": s.req, "phase": phaseNames[s.phase]}
		if s.parent != 0 {
			args["parent_id"] = s.parent
		}
		f.Add(obs.TraceEvent{Name: s.name, Cat: "span", Ph: "X",
			Ts: s.start.Sub(epoch).Microseconds(), Dur: s.end.Sub(s.start).Microseconds(),
			Pid: 1, Tid: s.lane, Args: args})
	}
	return f
}
