package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cachemodel/internal/dist"
)

// distSweep sends design-sweep's columns and grids, one sweep at a time,
// through an in-process dist.Coordinator served on loopback to nproc
// in-process dist.Workers. The solves are the same as design-sweep's; the
// difference between the two workloads is the lease, heartbeat, complete,
// journal and merge overhead.
type distSweep struct {
	progs []*program
	draws *sweepDraws

	dir     string
	coord   *dist.Coordinator
	srv     *http.Server
	served  chan error
	stop    context.CancelFunc
	workers sync.WaitGroup
	// handler spans are attributed to the sweep in flight.
	curReq, curSpan atomic.Int64
	handlerLanes    lanes
	tr              *tracer

	// workerErrs collects worker exits other than the cancellation close
	// asks for.
	errMu      sync.Mutex
	workerErrs []error
	// last is the sweep the latest request ran; firstPass keeps the first
	// pass's, which verify holds to SweepSpec.SolveLocal.
	last      distCheck
	firstPass []distCheck
	// solveMs is the summed unit solve time of the timed phase, from the
	// dist_unit_solve_ms histogram.
	solveMs float64
}

type distCheck struct {
	req  *request
	spec *dist.SweepSpec
	rows []dist.Row
}

// Lease timing. A worker that finds nothing pending waits LeaseTTL/4
// before asking again, so a short TTL keeps an idle worker from sleeping
// through the next sweep; heartbeats every TTL/3 keep leases alive, and
// the TTL stays long enough that a stalled machine rarely lets one lapse.
const (
	distLeaseTTL = 300 * time.Millisecond
	distPoll     = 5 * time.Millisecond
)

func newDist(b *bench) workload {
	return &distSweep{progs: b.fx.sweepProgs, draws: newSweepDraws(b), tr: b.tr,
		handlerLanes: lanes{base: clientLane + 1}}
}

// handlerSpans names the coordinator routes the timing middleware wraps.
var handlerSpans = map[string]string{
	"/v1/dist/lease":     "dist.lease",
	"/v1/dist/complete":  "dist.complete",
	"/v1/dist/heartbeat": "dist.heartbeat",
}

func (d *distSweep) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := handlerSpans[r.URL.Path]
		if !ok || !d.tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		lane := d.handlerLanes.get()
		defer d.handlerLanes.put(lane)
		s := d.tr.open(lane, d.curReq.Load(), d.curSpan.Load(), name)
		h.ServeHTTP(w, r)
		s.end()
	})
}

// setup starts the coordinator (journalling under the work directory),
// its HTTP server and the workers.
func (d *distSweep) setup(b *bench) error {
	root := b.tr.root(clientLane, 0, "bench.setup")
	defer root.end()
	dir, err := os.MkdirTemp(b.opt.workdir, "dist-")
	if err != nil {
		return err
	}
	d.dir = dir
	sp := root.child("dist.start")
	defer sp.end()
	d.coord, err = dist.New(dist.Options{JournalPath: filepath.Join(dir, "journal.jsonl"), LeaseTTL: distLeaseTTL})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = &http.Server{Handler: d.middleware(d.coord.Handler())}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	ctx, stop := context.WithCancel(context.Background())
	d.stop = stop
	for i := 0; i < b.nproc; i++ {
		w, err := dist.NewWorker(dist.WorkerOptions{Coordinator: "http://" + ln.Addr().String(),
			ID: fmt.Sprintf("bench-worker-%d", i), SolveWorkers: 1, Poll: distPoll})
		if err != nil {
			return err
		}
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
				d.errMu.Lock()
				d.workerErrs = append(d.workerErrs, err)
				d.errMu.Unlock()
			}
		}()
	}
	return nil
}

func (d *distSweep) close() error {
	if d.stop == nil {
		return nil
	}
	d.stop()
	d.workers.Wait()
	d.stop = nil
	err := errors.Join(d.workerErrs...)
	d.workerErrs = nil
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = errors.Join(err, d.srv.Shutdown(ctx))
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.coord.Close(), os.RemoveAll(d.dir))
	// Workers talk through the default transport; drop its idle
	// connections to the server that is gone.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

func (d *distSweep) warmup(b *bench) error {
	for _, s := range warmupSweeps(d.progs[0]) {
		b.call(s.kind, func(root span) ([]answer, error) { return d.sweep(root, s) })
	}
	return nil
}

func (d *distSweep) timed(b *bench) error {
	order := b.rngFor("order")
	err := b.passes(func(pass int) error {
		sweeps := d.draws.next(d.progs)
		// design-sweep shuffles its sweeps and one ladder together; the
		// same permutation, minus the ladder, keeps the two orders alike.
		for _, i := range order.Perm(len(sweeps) + 1) {
			if i == len(sweeps) {
				continue
			}
			s := sweeps[i]
			r := b.call(s.kind, func(root span) ([]answer, error) { return d.sweep(root, s) })
			if pass == 0 {
				d.last.req = r
				d.firstPass = append(d.firstPass, d.last)
			}
		}
		return nil
	})
	a, z := b.after.Histograms["dist_unit_solve_ms"], b.before.Histograms["dist_unit_solve_ms"]
	d.solveMs = float64(a.Sum - z.Sum)
	return err
}

// distWait bounds one sweep; a sweep no worker finishes in time fails
// instead of hanging the run.
const distWait = 60 * time.Second

// sweep runs one sweep through the coordinator: submit, wait, merge.
func (d *distSweep) sweep(root span, s sweepReq) ([]answer, error) {
	d.curReq.Store(root.req)
	d.curSpan.Store(root.id)
	ctx, cancel := context.WithTimeout(context.Background(), distWait)
	defer cancel()
	spec := s.spec()
	d.last = distCheck{spec: spec}
	sp := root.child("dist.add_sweep")
	st, err := d.coord.AddSweep(ctx, spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("dist.wait")
	err = d.coord.Wait(ctx, st.Sweep)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("dist.report")
	rep, err := d.coord.Report(st.Sweep)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rep.Stats.Deduped != 0 {
		return nil, fmt.Errorf("sweep %s: %d units deduplicated; the draws must never repeat a unit", s.prog.key(), rep.Stats.Deduped)
	}
	d.last.rows = rep.Rows
	out := make([]answer, len(rep.Rows))
	for i, row := range rep.Rows {
		if row.Error != "" || row.Degraded {
			return nil, fmt.Errorf("sweep %s row %s: error %q degraded %v", s.prog.key(), row.Label, row.Error, row.Degraded)
		}
		out[i] = answerFromRow(s.prog, row)
	}
	return out, nil
}

// verify holds every merged row to the simulator, and the first pass's
// merged reports to an in-process SolveLocal of the same sweep.
func (d *distSweep) verify(b *bench) error {
	b.custom["dist.idle_pct"] = 100 * (1 - d.solveMs/(float64(b.nproc)*ms(b.window.dur())))
	// The draws never repeat a unit, so nothing may be deduplicated, and
	// a worker's result cache may only answer a unit it held before its
	// lease lapsed and it was stolen.
	delta := func(key string) int64 { return b.after.Counters[key] - b.before.Counters[key] }
	if n := delta("dist_units_deduped_total"); n != 0 {
		b.errs = append(b.errs, fmt.Sprintf("%d units deduplicated; dist-sweep must solve every unit afresh", n))
	}
	if n := delta("cme_resultcache_hits_total"); n != 0 && delta("dist_units_stolen_total") == 0 {
		b.errs = append(b.errs, fmt.Sprintf("%d result-cache hits with no stolen unit; dist-sweep must solve every unit afresh", n))
	}
	for _, c := range d.firstPass {
		want, err := c.spec.SolveLocal(context.Background(), b.nproc)
		if err != nil {
			return err
		}
		if err := checkRows(c.rows, want); err != nil {
			b.failReq(c.req, err)
		}
	}
	return b.verifyAnswers()
}
