package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/obs"
	"cachemodel/internal/trace"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    string
	workdir  string
}

// workload is one named traffic mix. A run calls setup several times
// (each call releases what the previous one built), then warmup, timed,
// close and verify, in that order.
type workload interface {
	// setup builds everything a request needs: programs through the front
	// end, servers, coordinators and workers.
	setup(b *bench) error
	// warmup sends one untimed request of each kind.
	warmup(b *bench) error
	// timed runs the timed phase, bracketing it with b.beginMeasure and
	// b.endMeasure.
	timed(b *bench) error
	// verify holds every recorded answer to the oracle.
	verify(b *bench) error
	// close stops everything setup started and waits for it to end.
	close() error
}

// request is one timed request: its timing, the answers it produced, and
// why it failed, if it did.
type request struct {
	id      int64
	kind    string
	due     time.Time // open loop: scheduled send time; closed loop: start
	end     time.Time
	answers []answer
	failed  error
}

func (r *request) latency() time.Duration { return r.end.Sub(r.due) }

// bench is one workload run: its inputs, its records, and the counters
// and spans its phases leave behind.
type bench struct {
	opt    options
	fx     *fixtures
	nproc  int
	tr     *tracer
	oracle *oracle

	nextReq int64
	reqs    []*request
	window  interval
	// windows are the accounting intervals per lane (see ledger).
	windows map[int][]interval

	before, after       obs.Snapshot
	memBefore, memAfter runtime.MemStats

	setupTimes []time.Duration
	setupRefs  int
	rssMB      float64
	passCount  int

	// gaugeMax holds the largest value of each kGauge series sampled
	// during the timed phase.
	gaugeMax map[string]int64
	custom   map[string]float64
	// errs are failed checks not tied to one request.
	errs []string
}

func newBench(opt options) *bench {
	b := &bench{opt: opt, fx: scales[opt.scale](), nproc: runtime.GOMAXPROCS(0),
		tr: &tracer{}, oracle: newOracle(),
		windows: map[int][]interval{}, gaugeMax: map[string]int64{}, custom: map[string]float64{}}
	return b
}

// rngFor derives an independent random stream from the run seed, so
// adding draws to one stream never shifts another.
func (b *bench) rngFor(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", b.opt.seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func (b *bench) setPhase(p int32) { b.tr.phase.Store(p) }

func (b *bench) newRequest(kind string) *request {
	b.nextReq++
	return &request{id: b.nextReq, kind: kind}
}

// call runs one closed-loop request on the client lane: fn makes the
// layer calls under the request's root span and returns the answers.
// Outside the timed phase the request is not recorded (call returns nil),
// but its error still fails the run.
func (b *bench) call(kind string, fn func(root span) ([]answer, error)) *request {
	r := b.newRequest(kind)
	root := b.tr.root(clientLane, r.id, "bench.request")
	r.due = time.Now()
	ans, err := fn(root)
	r.end = time.Now()
	root.end()
	r.answers, r.failed = ans, err
	if b.tr.phase.Load() != phaseTimed {
		if err != nil {
			b.errs = append(b.errs, fmt.Sprintf("%s %s request: %v", phaseNames[b.tr.phase.Load()], kind, err))
		}
		return nil
	}
	b.reqs = append(b.reqs, r)
	return r
}

// failReq marks a request failed, keeping its first reason.
func (b *bench) failReq(r *request, err error) {
	if r.failed == nil {
		r.failed = err
	}
}

// spinUp keeps every CPU busy for d before anything is timed. On the
// virtual machines this benchmark was tuned on, the first second or so of
// a busy period after idle runs at about half speed; without the spin the
// set-up and the first timed pass would measure that ramp. The returned
// value only keeps the loops from being optimised away.
func spinUp(d time.Duration, nproc int) uint64 {
	var wg sync.WaitGroup
	var sink atomic.Uint64
	deadline := time.Now().Add(d)
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<14; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
	return sink.Load()
}

// setups runs the workload's set-up several times and keeps every
// duration; setup_s reports their median, so one slow repetition does not
// move it.
func (b *bench) setups(w workload) error {
	b.setPhase(phaseSetup)
	for i := 0; i < b.fx.setups; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return err
			}
		}
		b.setupRefs = 0
		// Every repetition starts from a collected heap, so a collection
		// the previous one left due does not land in this one's time.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setupTimes = append(b.setupTimes, time.Since(t0))
	}
	return nil
}

// beginMeasure opens the timed phase's window: counter and allocator
// deltas are taken from here.
func (b *bench) beginMeasure() {
	b.before = obs.Default.Snapshot()
	runtime.ReadMemStats(&b.memBefore)
	b.window.from = time.Now()
}

func (b *bench) endMeasure() {
	b.window.to = time.Now()
	runtime.ReadMemStats(&b.memAfter)
	b.after = obs.Default.Snapshot()
}

// passes runs the closed-loop timed phase: whole passes over the
// workload's request list until the next pass would end after the time
// budget, and always at least one, so every run measures the same mix.
func (b *bench) passes(pass func(p int) error) error {
	b.tr.on.Store(b.opt.trace)
	b.beginMeasure()
	defer func() { b.windows[clientLane] = []interval{b.window} }()
	defer b.endMeasure()
	start := time.Now()
	for {
		t0 := time.Now()
		if err := pass(b.passCount); err != nil {
			return err
		}
		b.passCount++
		if time.Since(start)+time.Since(t0) > time.Duration(b.opt.seconds*float64(time.Second)) {
			return nil
		}
	}
}

// verifyAnswers checks every answer of the timed phase against the
// simulator and records the mean miss-ratio error.
func (b *bench) verifyAnswers() error {
	var errSum float64
	var n int
	for _, r := range b.reqs {
		for _, a := range r.answers {
			s, err := b.oracle.sim(b, a.prog, a.cfg)
			if err != nil {
				return err
			}
			if err := checkAnswer(a, s); err != nil {
				b.failReq(r, err)
			}
			errSum += math.Abs(a.ratio - s.ratio())
			n++
		}
	}
	if n > 0 {
		b.custom["bench.miss_ratio_error_pp"] = errSum / float64(n)
	}
	return b.measureSharded()
}

// measureSharded times the set-sharded simulator against the sequential
// one on the largest simulated (program, cache) pair and checks that both
// count the same misses.
func (b *bench) measureSharded() error {
	big := b.oracle.largest
	if big.prog == nil {
		return nil
	}
	ctx := context.Background()
	var seq, shard []time.Duration
	for i := 0; i < 3; i++ {
		s := b.tr.root(clientLane, 0, "trace.simulate")
		t0 := time.Now()
		a, err := trace.SimulateCtx(ctx, big.prog.np, big.cfg, budget.Budget{})
		seq = append(seq, time.Since(t0))
		s.end()
		if err != nil {
			return err
		}
		s = b.tr.root(clientLane, 0, "trace.simulate_sharded")
		t0 = time.Now()
		c, err := trace.SimulateShardedCtx(ctx, big.prog.np, big.cfg, cache.FetchOnWrite, budget.Budget{}, b.nproc)
		shard = append(shard, time.Since(t0))
		s.end()
		if err != nil {
			return err
		}
		if a.Accesses != c.Accesses || a.Misses != c.Misses {
			b.errs = append(b.errs, fmt.Sprintf("sharded simulator on %s %s: %d/%d accesses/misses, sequential %d/%d",
				big.prog.key(), cfgKey(big.cfg), c.Accesses, c.Misses, a.Accesses, a.Misses))
		}
	}
	b.custom["trace.sharded_speedup"] = float64(medianDur(seq)) / float64(medianDur(shard))
	return nil
}

// result assembles the run's last output line.
func (b *bench) result(led *ledger) result {
	res := result{Correct: len(b.errs) == 0, Attempted: len(b.reqs), Metrics: map[string]metricValue{}}
	for _, r := range b.reqs {
		if r.failed != nil {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if b.opt.trace {
		vals := b.layerValues(led, res)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
		return res
	}
	vals := b.endToEndValues()
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return res
}

func (b *bench) endToEndValues() map[string]float64 {
	var lat []float64
	answers := 0
	for _, r := range b.reqs {
		lat = append(lat, ms(r.latency()))
		answers += len(r.answers)
	}
	sort.Float64s(lat)
	var setup []float64
	for _, d := range b.setupTimes {
		setup = append(setup, d.Seconds())
	}
	sort.Float64s(setup)
	return map[string]float64{
		"setup_s":        quantile(setup, 0.5),
		"answers_per_s":  float64(answers) / b.window.dur().Seconds(),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		"peak_rss_mb":    b.rssMB,
	}
}

// layerValues derives every per-layer metric; led is the ledger of the
// traced run.
func (b *bench) layerValues(led *ledger, res result) map[string]float64 {
	nreq := float64(max(len(b.reqs), 1))
	delta := func(name string) float64 {
		if v, ok := b.after.Counters[name]; ok {
			return float64(v - b.before.Counters[name])
		}
		return 0
	}
	hist := func(name string) (bounds, counts []int64, sum, n int64) {
		a, z := b.after.Histograms[name], b.before.Histograms[name]
		counts = make([]int64, len(a.Counts))
		for i := range a.Counts {
			counts[i] = a.Counts[i]
			if i < len(z.Counts) {
				counts[i] -= z.Counts[i]
			}
		}
		return a.Bounds, counts, a.Sum - z.Sum, a.Count - z.Count
	}
	b.custom["normalize.refs"] = float64(b.setupRefs)
	b.custom["runtime.alloc_mb"] = float64(b.memAfter.TotalAlloc-b.memBefore.TotalAlloc) / (1 << 20) / nreq
	b.custom["runtime.gc_cycles"] = float64(b.memAfter.NumGC-b.memBefore.NumGC) / nreq
	b.custom["runtime.gc_pause_ms"] = float64(b.memAfter.PauseTotalNs-b.memBefore.PauseTotalNs) / 1e6 / nreq
	if led.wall > 0 {
		b.custom["bench.unattributed_pct"] = 100 * float64(led.unattributed) / float64(led.wall)
	}
	if wall := b.window.dur(); wall > 0 {
		b.custom["bench.trace_overhead_pct"] = 100 * float64(led.timedSpans) * float64(spanCost()) / float64(wall)
	}
	if res.Attempted > 0 {
		b.custom["bench.failed_pct"] = 100 * float64(res.Failed) / float64(res.Attempted)
	}
	b.custom["bench.latency_samples"] = float64(len(b.reqs))
	vals := map[string]float64{}
	for _, m := range perLayer {
		var v float64
		switch m.Kind {
		case kSpan:
			v = ms(led.row(phaseTimed, m.Src[0]).busy) / nreq
		case kSetupSpan:
			v = ms(led.row(phaseSetup, m.Src[0]).busy) / float64(len(b.setupTimes))
		case kCounter:
			v = delta(m.Src[0]) / nreq
		case kRatio:
			var den float64
			for _, s := range m.Src[1:] {
				den += delta(s)
			}
			if den > 0 {
				v = 100 * delta(m.Src[0]) / den
			}
		case kHistMean:
			if _, _, sum, n := hist(m.Src[0]); n > 0 {
				v = float64(sum) / float64(n)
			}
		case kHistQuantile:
			bounds, counts, _, n := hist(m.Src[0])
			v = histQuantile(bounds, counts, n, m.Q)
		case kGauge:
			v = float64(b.gaugeMax[m.Src[0]])
		case kCustom:
			v = b.custom[m.Name]
		}
		vals[m.Name] = v
	}
	return vals
}

// histQuantile returns the q quantile of a bucketed distribution as the
// upper bound of the bucket holding it (the last finite bound for the
// overflow bucket).
func histQuantile(bounds, counts []int64, n int64, q float64) float64 {
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target && i < len(bounds) {
			return float64(bounds[i])
		}
	}
	return float64(bounds[len(bounds)-1])
}

// quantile is the exclusive-method quantile of sorted xs (the method of
// Python's statistics.quantiles), clamped to the sample range.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	pos := p * float64(n+1)
	switch {
	case pos <= 1:
		return xs[0]
	case pos >= float64(n):
		return xs[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return xs[i-1] + frac*(xs[i]-xs[i-1])
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// spanCost measures what recording one span costs, on a scratch tracer.
// A traced run cannot resolve its own overhead by comparing against an
// untraced run: pass-to-pass noise on a shared machine is far larger than
// the few microseconds its spans add. bench.trace_overhead_pct is instead
// this cost times the spans recorded, over the wall time they cover.
func spanCost() time.Duration {
	t := &tracer{}
	t.on.Store(true)
	const n = 1 << 14
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.root(clientLane, 0, "bench.calibrate").end()
	}
	return time.Since(t0) / n
}

// peakRSS returns the process's peak resident set size in MB (VmHWM),
// falling back to the Go runtime's own footprint where /proc is absent.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// writeSummary prints the run's metrics and, for a traced run, its
// ledger, to w as a table.
func (b *bench) writeSummary(w io.Writer, res result, led *ledger, sha string) {
	fmt.Fprintf(w, "%s  seed %d  gomaxprocs %d  git %s  scale %s  trace %v\n",
		b.opt.workload, b.opt.seed, b.nproc, sha, b.opt.scale, b.opt.trace)
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v  latency samples %d  passes %d\n",
		res.Attempted, res.Failed, res.Correct, len(b.reqs), b.passCount)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, v.Value, v.Unit)
	}
	if led != nil {
		led.writeTable(w)
	}
	shown := 0
	for _, r := range b.reqs {
		if r.failed != nil && shown < 10 {
			fmt.Fprintf(w, "  FAILED request %d (%s): %v\n", r.id, r.kind, r.failed)
			shown++
		}
	}
	for _, e := range b.errs {
		fmt.Fprintf(w, "  FAILED check: %s\n", e)
	}
}
