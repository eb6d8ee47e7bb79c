package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"cachemodel/internal/cache"
	"cachemodel/internal/obs"
	"cachemodel/internal/serve"
)

// serveMixed is the open-loop workload: seeded arrivals at a fixed rate,
// sent over HTTP to an in-process serve.Server, with a watcher polling
// each job until it reaches a terminal state. Latency runs from the
// scheduled send time, so a stall also delays the requests behind it.
type serveMixed struct {
	fx     *fixtures
	inline []*program // printed once; parsed in every set-up
	all    []*program
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	plan   []*serveReq
}

// serveReq is one planned request and, after the run, what happened to it.
type serveReq struct {
	kind   string
	path   string
	body   []byte
	prog   *program
	cfgs   []cache.Config
	exact  bool
	repeat int           // index of the request whose body this repeats; -1 if fresh
	offset time.Duration // scheduled send time from the start of the phase

	r                    *request
	lane                 int
	sent, acked          time.Time
	result               *serve.Result
	sendErr, terminalErr error
}

// The request mix: the share of fresh bodies of each kind.
var serveMix = []struct {
	kind  string
	share float64
}{
	{"sampled", 0.50}, // interactive EstimateMisses on whole programs
	{"exact", 0.20},   // FindMisses on built-in kernels
	{"inline", 0.15},  // FindMisses on FORTRAN source of built-in kernels
	{"sweep", 0.15},   // batch-priority exact sweeps
}

func newServe(b *bench) workload {
	s := &serveMixed{fx: b.fx}
	for _, p := range b.fx.serveInline {
		s.inline = append(s.inline, printSource(p))
	}
	s.all = append(append(append(append([]*program{}, b.fx.serveSampled...), b.fx.serveExact...), s.inline...), b.fx.serveSweep...)
	return s
}

func (s *serveMixed) progs(kind string) []*program {
	switch kind {
	case "sampled":
		return s.fx.serveSampled
	case "exact":
		return s.fx.serveExact
	case "inline":
		return s.inline
	}
	return s.fx.serveSweep
}

// setup parses the inline sources and builds every fixture (the oracle's
// programs), then starts the server on loopback.
func (s *serveMixed) setup(b *bench) error {
	if err := b.buildAll(s.all); err != nil {
		return err
	}
	sp := b.tr.root(clientLane, 0, "serve.start")
	defer sp.end()
	srv, err := serve.New(serve.Options{Workers: b.nproc, SolveWorkers: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	// One process, at most nproc connections.
	s.client = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}
	return nil
}

func (s *serveMixed) close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Drain(ctx))
	s.client.CloseIdleConnections()
	s.srv = nil
	return err
}

// makePlan generates the whole request schedule from the seed. Arrivals
// are jittered periodic: one arrival at a uniformly random time in each
// 1/rate slot. Independent senders, like Poisson arrivals, but without
// the long bursts that would make one seed's queueing unlike another's.
// Kinds come in exact proportions, each kind's fresh bodies cycle through
// its programs in a seeded order, and an exact share of the requests
// repeat an earlier body of their kind.
func (s *serveMixed) makePlan(b *bench) error {
	rng := b.rngFor("serve")
	n := max(b.fx.serveMin, int(math.Round(b.fx.serveRate*b.opt.seconds)))
	slot := time.Duration(float64(time.Second) / b.fx.serveRate)
	var kinds []string
	left := n
	for i, m := range serveMix {
		c := int(math.Round(float64(n) * m.share))
		if i == len(serveMix)-1 || c > left {
			c = left
		}
		for j := 0; j < c; j++ {
			kinds = append(kinds, m.kind)
		}
		left -= c
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	repeats := make([]bool, n)
	for i := 0; i < int(math.Round(float64(n)*b.fx.serveRepeat)); i++ {
		repeats[i] = true
	}
	rng.Shuffle(n, func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })

	draws := newConfigDraws(b.rngFor("serve-geometry"), 4<<10, 64<<10)
	fresh := map[string][]int{}
	order := map[string][]int{}
	for i, k := range kinds {
		offset := time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))
		if src := fresh[k]; repeats[i] && len(src) > 0 {
			idx := src[rng.Intn(len(src))]
			rep := *s.plan[idx]
			rep.repeat, rep.offset = idx, offset
			s.plan = append(s.plan, &rep)
			continue
		}
		progs := s.progs(k)
		if order[k] == nil {
			order[k] = rng.Perm(len(progs))
		}
		r, err := s.freshReq(k, progs[order[k][len(fresh[k])%len(progs)]], draws)
		if err != nil {
			return err
		}
		r.offset = offset
		fresh[k] = append(fresh[k], len(s.plan))
		s.plan = append(s.plan, r)
	}
	return nil
}

// freshReq builds a request body no earlier request has sent.
func (s *serveMixed) freshReq(kind string, p *program, draws *configDraws) (*serveReq, error) {
	r := &serveReq{kind: kind, prog: p, exact: kind != "sampled", repeat: -1}
	ps := serve.ProgramSpec{Program: p.name, Size: p.size, Iters: max(p.iters, 1)}
	if p.source != "" {
		ps = serve.ProgramSpec{Source: p.source}
	}
	var body any
	if kind == "sweep" {
		sizes := draws.grid(p, gridSizes, []int64{32}, sweepAssocs)
		sw := sweepReq{prog: p, sizes: sizes, lines: []int64{32}, assocs: sweepAssocs}
		r.cfgs = sw.configs()
		r.path = "/v1/sweep"
		body = serve.SweepRequest{ProgramSpec: ps, CacheSizes: sizes, LineSizes: sw.lines, Assocs: sw.assocs,
			Exact: true, Priority: "batch"}
	} else {
		line, assoc := draws.combo(p, sweepLines, sweepAssocs)
		var size int64
		for tries := 0; ; tries++ {
			if size = draws.size(tries); draws.take(p, []int64{size}, []int64{line}, []int{assoc}) {
				break
			}
		}
		r.cfgs = []cache.Config{cfg(size, line, assoc)}
		r.path = "/v1/analyze"
		body = serve.AnalyzeRequest{ProgramSpec: ps, CacheBytes: size, LineBytes: line, Assoc: assoc,
			Exact: r.exact, Priority: "interactive"}
	}
	blob, err := json.Marshal(body)
	r.body = blob
	return r, err
}

// warmup plans the run and sends one request of each kind, closed loop.
func (s *serveMixed) warmup(b *bench) error {
	draws := newConfigDraws(b.rngFor("serve-warmup"), 1<<10, 3<<10)
	for _, m := range serveMix {
		r, err := s.freshReq(m.kind, s.progs(m.kind)[0], draws)
		if err != nil {
			return err
		}
		if err := s.roundTrip(r); err != nil {
			b.errs = append(b.errs, fmt.Sprintf("warmup %s request: %v", m.kind, err))
		}
	}
	return s.makePlan(b)
}

// roundTrip submits r and polls its job until it ends.
func (s *serveMixed) roundTrip(r *serveReq) error {
	id, err := s.submit(r)
	if err != nil {
		return err
	}
	for {
		j, ok := s.srv.Job(id)
		if !ok {
			return fmt.Errorf("job %s vanished", id)
		}
		if st := j.Status(); st == serve.StatusDone || st == serve.StatusFailed {
			r.result = j.Result()
			return r.outcome()
		}
		time.Sleep(time.Millisecond)
	}
}

// submit POSTs the body and returns the admitted job's id.
func (s *serveMixed) submit(r *serveReq) (string, error) {
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("%s: HTTP %d: %s", r.path, resp.StatusCode, clip(blob))
	}
	var ack struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(blob, &ack); err != nil {
		return "", err
	}
	return ack.Job, nil
}

// outcome is the failure, if any, a terminal result carries.
func (r *serveReq) outcome() error {
	res := r.result
	switch {
	case res == nil:
		return errors.New("no result")
	case res.Error != nil:
		return fmt.Errorf("job failed: %s: %s", res.Error.Kind, res.Error.Message)
	case res.Degraded:
		return errors.New("job degraded")
	case len(res.Candidates) != len(r.cfgs):
		return fmt.Errorf("%d candidates, want %d", len(res.Candidates), len(r.cfgs))
	}
	for _, c := range res.Candidates {
		if c.Error != "" {
			return fmt.Errorf("candidate %s: %s", c.Label, c.Error)
		}
	}
	return nil
}

// watched is an admitted job the watcher polls.
type watched struct {
	r  *serveReq
	id string
}

// timed runs the schedule: the generator hands each request to one of
// nproc senders at its due time (a late hand-off is generator lag), the
// senders POST it, and the watcher polls every admitted job at 1 ms until
// it is terminal. Spans are recorded afterwards, from timestamps taken
// during the run, so recording them costs the run nothing.
func (s *serveMixed) timed(b *bench) error {
	b.tr.on.Store(b.opt.trace)
	start := time.Now().Add(10 * time.Millisecond)
	for _, p := range s.plan {
		p.r = b.newRequest(p.kind)
		p.r.due = start.Add(p.offset)
	}

	// Sized to the number of sends, so a sender never blocks on the watcher.
	admitted := make(chan watched, len(s.plan))
	work := make(chan *serveReq)
	var senders sync.WaitGroup
	for i := 0; i < b.nproc; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for p := range work {
				p.sent = time.Now()
				id, err := s.submit(p)
				p.acked = time.Now()
				if err != nil {
					p.sendErr = err
					p.r.end = p.acked
					continue
				}
				admitted <- watched{p, id}
			}
		}()
	}
	watcherDone := make(chan struct{})
	var depthMax int64
	go func() {
		defer close(watcherDone)
		depthMax = s.watch(admitted, start.Add(s.plan[len(s.plan)-1].offset+s.fx.serveDrain))
	}()

	b.beginMeasure()
	for _, p := range s.plan {
		time.Sleep(time.Until(p.r.due))
		work <- p
	}
	close(work)
	senders.Wait()
	close(admitted)
	<-watcherDone
	b.endMeasure()
	b.gaugeMax["serve_queue_depth"] = depthMax
	b.window.from = start
	// Each request's spans go on the lowest lane free since its due time,
	// so no two requests share a lane at once.
	var laneEnds []time.Time
	for _, p := range s.plan {
		r := p.r
		p.lane = len(laneEnds)
		for i, e := range laneEnds {
			if !e.After(r.due) {
				p.lane = i
				break
			}
		}
		if p.lane == len(laneEnds) {
			laneEnds = append(laneEnds, time.Time{})
		}
		laneEnds[p.lane] = r.end
		p.lane += clientLane + 1
		b.reqs = append(b.reqs, r)
		b.windows[p.lane] = append(b.windows[p.lane], interval{r.due, r.end})
		root := b.tr.record(p.lane, r.id, 0, "bench.request", r.due, r.end)
		b.tr.record(p.lane, r.id, root, "serve.submit", p.sent, p.acked)
		if p.sendErr == nil {
			b.tr.record(p.lane, r.id, root, "serve.job", p.acked, r.end)
		}
	}
	return nil
}

// watch polls admitted jobs every millisecond until each is terminal or
// the deadline passes; it returns the deepest queue it saw.
func (s *serveMixed) watch(admitted <-chan watched, deadline time.Time) (depthMax int64) {
	depth := obs.Default.Gauge("serve_queue_depth")
	live := map[string]*serveReq{}
	open := true
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for open || len(live) > 0 {
		for drained := false; open && !drained; {
			select {
			case w, ok := <-admitted:
				if !ok {
					open = false
					break
				}
				live[w.id] = w.r
			default:
				drained = true
			}
		}
		now := time.Now()
		depthMax = max(depthMax, depth.Value())
		for id, p := range live {
			j, ok := s.srv.Job(id)
			var terminal bool
			switch {
			case !ok:
				p.terminalErr, terminal = fmt.Errorf("job %s vanished", id), true
			case j.Status() == serve.StatusDone || j.Status() == serve.StatusFailed:
				p.result, terminal = j.Result(), true
			case now.After(deadline):
				p.terminalErr, terminal = fmt.Errorf("job %s not terminal by the drain deadline", id), true
			}
			if terminal {
				p.r.end = now
				delete(live, id)
			}
		}
		<-tick.C
	}
	return depthMax
}

// verify checks every answer against the simulator and every repeat
// against its first answer.
func (s *serveMixed) verify(b *bench) error {
	var lags []float64
	for _, p := range s.plan {
		r := p.r
		lags = append(lags, ms(p.sent.Sub(r.due)))
		switch {
		case p.sendErr != nil:
			b.failReq(r, p.sendErr)
			continue
		case p.terminalErr != nil:
			b.failReq(r, p.terminalErr)
			continue
		}
		if err := p.outcome(); err != nil {
			b.failReq(r, err)
			continue
		}
		if p.repeat >= 0 {
			if first := s.plan[p.repeat].result; first != nil {
				if err := checkRepeat(first.Candidates, p.result.Candidates); err != nil {
					b.failReq(r, err)
				}
			}
		}
		for _, c := range p.result.Candidates {
			r.answers = append(r.answers, answerFromCandidate(p.prog, c, p.exact))
		}
	}
	sort.Float64s(lags)
	b.custom["bench.gen_lag_p90_ms"] = quantile(lags, 0.9)
	return b.verifyAnswers()
}
