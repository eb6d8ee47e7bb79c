package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
)

// cmdServe runs the multi-tenant analysis server: the internal/serve
// HTTP API (analyze/sweep jobs, SSE progress, /metrics) behind a bounded
// priority queue with admission control and load shedding. SIGINT/SIGTERM
// triggers a graceful drain: admission sheds 503, queued and running jobs
// finish (or are cancelled at -drain-timeout), the result cache flushes
// atomically, and the run report lands at -obs-out.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (host:port; :0 = any port)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful drain allowance after SIGINT/SIGTERM before in-flight jobs are cancelled")
	queueCap := fs.Int("queue", 64, "admission queue capacity (full queue sheds 429)")
	workers := fs.Int("workers", 2, "concurrent jobs")
	solveWorkers := fs.Int("solve-workers", 0, "solver pool size per job (0 = GOMAXPROCS)")
	maxInflight := fs.Int64("max-points-inflight", 0, "global cap on summed declared point budgets (0 = unlimited; saturation sheds 503)")
	defPoints := fs.Int64("default-max-points", 0, "point budget imposed on requests that declare none (0 = 1<<22)")
	maxDeadline := fs.Duration("max-deadline", 60*time.Second, "upper bound on any job's wall-clock budget")
	maxSize := fs.Int64("max-size", 1024, "largest accepted problem size")
	maxCands := fs.Int("max-candidates", 256, "largest accepted sweep: grid size times size-ladder length")
	rcFile := fs.String("resultcache", "", "load the content-addressed result cache from this path at startup and flush it on drain")
	retain := fs.Int("retain", 1024, "how many finished jobs stay queryable")
	obsOut := fs.String("obs-out", "", "write the server's run-report JSON (job outcomes, spans, metrics) here on exit")
	distOn := fs.Bool("dist", false, "mount a distributed-sweep coordinator under /v1/dist/")
	distJournal := fs.String("dist-journal", "", "coordinator journal path (resume a sweep after a restart)")
	distTTL := fs.Duration("dist-lease-ttl", 10*time.Second, "work-unit lease duration for the mounted coordinator")
	fs.Parse(args)

	var coord *dist.Coordinator
	var distHandler http.Handler
	if *distOn || *distJournal != "" {
		var err error
		coord, err = dist.New(dist.Options{
			LeaseTTL:    *distTTL,
			JournalPath: *distJournal,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "cachette "+format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		distHandler = coord.Handler()
	}

	s, err := serve.New(serve.Options{
		QueueCap:          *queueCap,
		Workers:           *workers,
		SolveWorkers:      *solveWorkers,
		MaxPointsInFlight: *maxInflight,
		DefaultMaxPoints:  *defPoints,
		MaxDeadline:       *maxDeadline,
		MaxProblemSize:    *maxSize,
		MaxCandidates:     *maxCands,
		CachePath:         *rcFile,
		RetainJobs:        *retain,
		Dist:              distHandler,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "cachette "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address makes -addr :0 scriptable (the smoke test and
	// the CLI test both parse this line).
	fmt.Fprintf(os.Stderr, "cachette serve: listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signalContext()
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "cachette serve: signal received, draining (timeout %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	derr := s.Drain(dctx)

	// The HTTP front end stays up through the drain (job status stays
	// queryable, admission sheds typed); only now does it close.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	hs.Shutdown(sctx)

	if *obsOut != "" {
		rr := s.RunReport()
		if coord != nil {
			rr.Dist = coord.Outcomes()
		}
		if err := rr.WriteFile(*obsOut); err != nil {
			if derr == nil {
				derr = err
			}
		} else {
			fmt.Fprintf(os.Stderr, "cachette serve: wrote run report %s\n", *obsOut)
		}
	}
	return derr
}
