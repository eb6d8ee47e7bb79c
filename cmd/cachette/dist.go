package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"cachemodel/internal/dist"
	"cachemodel/internal/obs"
	"cachemodel/internal/spec"
)

// distLogf builds the Logf seam for a dist process: the default plain
// stderr lines, or a structured slog logger (-log json|text) stamped
// with the component (and worker id) so fleet logs from many processes
// interleave greppably.
func distLogf(format, component, workerID string) (func(string, ...any), error) {
	if format == "" {
		return func(f string, a ...any) {
			fmt.Fprintf(os.Stderr, "cachette "+f+"\n", a...)
		}, nil
	}
	if format != "json" && format != "text" {
		return nil, fmt.Errorf("-log must be json or text (got %q)", format)
	}
	attrs := []slog.Attr{slog.String("component", component)}
	if workerID != "" {
		attrs = append(attrs, slog.String("worker_id", workerID))
	}
	return obs.Logf(obs.NewLogger(os.Stderr, format == "json", attrs...)), nil
}

// cmdDist dispatches the distributed-sweep subcommands: coordinate (the
// scheduling side: decompose, lease, steal, merge) and work (the solving
// side: lease, solve, checkpoint, complete).
func cmdDist(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cachette dist coordinate|work [flags]")
	}
	switch args[0] {
	case "coordinate":
		return cmdDistCoordinate(args[1:])
	case "work":
		return cmdDistWork(args[1:])
	default:
		return fmt.Errorf("unknown dist subcommand %q (want coordinate or work)", args[0])
	}
}

// cmdDistCoordinate runs the sweep coordinator: it decomposes the sweep
// into content-addressed work units, serves HTTP leases to workers
// (stealing expired ones, deduping identical units, retrying failures),
// journals state for crash recovery, and writes the deterministically
// merged report. With -check the merged rows are byte-compared against a
// single-process SolveBatch of the same spec.
func cmdDistCoordinate(args []string) error {
	fs := flag.NewFlagSet("dist coordinate", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8355", "listen address (host:port; :0 = any port)")
	journal := fs.String("journal", "", "append-only journal path: a restarted coordinator replays it and resumes the sweep")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "work-unit lease duration; a lease not heartbeat within it is stolen")
	unitRetries := fs.Int("unit-retries", 3, "worker-reported failures tolerated per unit before the sweep fails")
	exitDone := fs.Bool("exit-when-done", true, "tell workers to shut down and exit once every submitted sweep is done")
	linger := fs.Duration("linger", 5*time.Second, "after completion, keep serving this long so polling workers receive their shutdown")
	out := fs.String("out", "DIST_report.json", "output path for the merged report JSON (- = stdout only)")
	check := fs.Bool("check", false, "byte-compare the merged rows against a single-process SolveBatch of the same spec")
	traceOut := fs.String("trace-out", "", "write the sweep's Chrome trace-event JSON here (load at ui.perfetto.dev); forces tracing on")
	logFmt := fs.String("log", "", "structured logs on stderr: json or text (default: plain lines)")

	pf := addProgramFlags(fs, "", 32, 2)
	gf := addGridFlags(fs)
	exact := fs.Bool("exact", false, "solve every candidate exactly instead of sampling")
	conf := fs.Float64("c", spec.DefaultConfidence, "confidence level for the sampled tier")
	width := fs.Float64("w", spec.DefaultWidth, "confidence interval half-width for the sampled tier")
	adaptive := fs.Bool("adaptive", false, "sampled tier: variance-driven early stopping")
	prune := fs.Bool("prune", false, "search mode: rank the grid under a cheap sampled pass and shard exact solves only for the advisor frontier")
	pruneKeep := fs.Int("prune-keep", 0, "prune: frontier floor — this many best candidates always survive (0 = default 4)")
	pruneMargin := fs.Float64("prune-margin", 0, "prune: survive within this percent of the best candidate (0 = default 10)")
	oflags := obsFlags(fs)
	fs.Parse(args)

	or, err := oflags.start("dist coordinate")
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	ctx = or.Context(ctx)

	grid, err := gf.grid()
	if err != nil {
		return err
	}
	sw, err := distSpec(pf, grid, dist.SolveSpec{Exact: *exact, Confidence: *conf, Width: *width,
		Adaptive: *adaptive})
	if err != nil {
		return err
	}
	if sw != nil {
		sw.Prune, sw.PruneKeep, sw.PruneMargin = *prune, *pruneKeep, *pruneMargin
	}
	if *check && sw != nil && sw.Prune {
		return fmt.Errorf("dist coordinate: -check is incompatible with -prune (pruned rows are advisor estimates, not solves)")
	}

	logf, err := distLogf(*logFmt, "coordinator", "")
	if err != nil {
		return err
	}
	c, err := dist.New(dist.Options{
		LeaseTTL:         *leaseTTL,
		UnitRetries:      *unitRetries,
		JournalPath:      *journal,
		ShutdownWhenDone: *exitDone,
		Trace:            *traceOut != "",
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address makes -addr :0 scriptable (the CI smoke test
	// parses this line to point the workers somewhere).
	fmt.Fprintf(os.Stderr, "cachette dist: coordinating on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer hs.Close()

	var id string
	if sw != nil {
		st, err := c.AddSweep(ctx, sw)
		if err != nil {
			return err
		}
		id = st.Sweep
		fmt.Fprintf(os.Stderr, "cachette dist: sweep %.12s — %d candidates in %d units (%d deduped, %d pruned)\n",
			id, st.Stats.Candidates, st.Stats.Units, st.Stats.Deduped, st.Stats.Pruned)
	} else if *exitDone {
		return fmt.Errorf("dist coordinate: no sweep spec (-program or -file) and -exit-when-done; nothing to do")
	}

	finishObs := func() error {
		return or.finishReport(ctx, programLabel(sw), func(rr *obs.RunReport) {
			rr.Dist = c.Outcomes()
		})
	}

	if id == "" {
		// Pure server mode: sweeps arrive over POST /v1/dist/sweep; serve
		// until a signal.
		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
		}
		return finishObs()
	}

	if err := c.Wait(ctx, id); err != nil {
		ferr := finishObs()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "cachette dist: interrupted; journal (if set) allows resume")
			return ferr
		}
		return err
	}
	rep, err := c.Report(id)
	if err != nil {
		return err
	}
	st, _ := c.SweepStatus(id)
	if st != nil {
		fmt.Fprintf(os.Stderr, "cachette dist: sweep %.12s done — %d units (%d stolen, %d retried, %d deduped)\n",
			id, st.Stats.Units, st.Stats.Stolen, st.Stats.Retried, st.Stats.Deduped)
	}

	if *check {
		want, err := sw.SolveLocal(ctx, 0)
		if err != nil {
			return fmt.Errorf("dist coordinate -check: baseline: %v", err)
		}
		wb, err1 := json.Marshal(want)
		gb, err2 := json.Marshal(rep.Rows)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("dist coordinate -check: marshal: %v %v", err1, err2)
		}
		if string(wb) != string(gb) {
			return fmt.Errorf("dist coordinate -check: merged rows differ from single-process baseline")
		}
		fmt.Fprintf(os.Stderr, "cachette dist: -check ok — %d merged rows bit-identical to single-process solve\n", len(rep.Rows))
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := obs.WriteFileAtomic(*out, blob); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette dist: wrote %s\n", *out)
	}

	if *traceOut != "" {
		tf, err := c.Trace(id)
		if err != nil {
			return err
		}
		if err := tf.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette dist: wrote trace %s (%d events; load at ui.perfetto.dev)\n",
			*traceOut, len(tf.TraceEvents))
	}

	// Stay up briefly so workers polling for their next unit receive the
	// shutdown answer instead of a connection error. The floor guards
	// against exiting before a just-started worker makes first contact —
	// the coordinator cannot count a worker it has never heard from.
	if *exitDone && *linger > 0 {
		floor := *linger
		if floor > time.Second {
			floor = time.Second
		}
		start := time.Now()
		deadline := time.After(*linger)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
	lingerLoop:
		for {
			select {
			case <-deadline:
				break lingerLoop
			case <-ctx.Done():
				break lingerLoop
			case <-tick.C:
				if time.Since(start) < floor {
					continue
				}
				// A worker is gone once it acknowledged shutdown or went
				// silent past its lease horizon (killed, no longer polling).
				allDown := true
				for _, w := range c.Status().Workers {
					if !w.Shutdown && w.LastSeenMs < (2**leaseTTL).Milliseconds() {
						allDown = false
						break
					}
				}
				if allDown {
					break lingerLoop
				}
			}
		}
	}
	return finishObs()
}

// cmdDistWork runs one worker process against a coordinator: lease,
// solve, checkpoint, complete, until the coordinator says shutdown.
func cmdDistWork(args []string) error {
	fs := flag.NewFlagSet("dist work", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (http://host:port), required")
	id := fs.String("id", "", "worker identity in leases and stats (default derived from the URL)")
	solveWorkers := fs.Int("solve-workers", 1, "per-unit solver pool size (the dist layer owns the fan-out)")
	rcFile := fs.String("resultcache", "", "persist the content-addressed result cache here after every unit (the checkpoint) and warm from it on startup")
	warm := fs.String("warm", "", "additional result-cache stores to warm from, comma separated")
	poll := fs.Duration("poll", 500*time.Millisecond, "back-off after a failed lease round, or a wait answer with no retry hint (an idle worker's lease is held by the coordinator, not polled)")
	cacheCap := fs.Int("cache-cap", 0, "in-memory result cache entries (0 = default 65536)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus) on this address (:0 = any port) — solve/lease latency histograms live here")
	logFmt := fs.String("log", "", "structured logs on stderr: json or text (default: plain lines)")
	fs.Parse(args)

	if *coord == "" {
		return fmt.Errorf("dist work: -coordinator is required")
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(obs.Default))
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachette dist: worker metrics on http://%s/metrics\n", ln.Addr())
		ms := &http.Server{Handler: mux}
		go ms.Serve(ln)
		defer ms.Close()
	}
	var warmPaths []string
	for _, p := range strings.Split(*warm, ",") {
		if p = strings.TrimSpace(p); p != "" {
			warmPaths = append(warmPaths, p)
		}
	}
	logf, err := distLogf(*logFmt, "worker", *id)
	if err != nil {
		return err
	}
	w, err := dist.NewWorker(dist.WorkerOptions{
		Coordinator:  *coord,
		ID:           *id,
		SolveWorkers: *solveWorkers,
		CachePath:    *rcFile,
		WarmPaths:    warmPaths,
		CacheCap:     *cacheCap,
		Poll:         *poll,
		Logf:         logf,
	})
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	fmt.Fprintf(os.Stderr, "cachette dist: worker %s leasing from %s\n", w.ID(), *coord)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// distSpec assembles a SweepSpec from the coordinate flags; nil when no
// program was named (pure server mode).
func distSpec(pf *programFlags, grid spec.Grid, solve dist.SolveSpec) (*dist.SweepSpec, error) {
	if *pf.name == "" && *pf.file == "" {
		return nil, nil
	}
	if *pf.name != "" && *pf.file != "" {
		return nil, fmt.Errorf("dist coordinate: set -program or -file, not both")
	}
	prog, err := pf.request()
	if err != nil {
		return nil, err
	}
	return &dist.SweepSpec{ProgramSpec: prog, SolveSpec: solve,
		CacheSizes: grid.CacheSizes, LineSizes: grid.LineSizes, Assocs: grid.Assocs,
		PadArray: grid.PadArray, Pads: grid.Pads}, nil
}

// programLabel names the run for the report.
func programLabel(spec *dist.SweepSpec) string {
	if spec == nil {
		return "coordinator"
	}
	if spec.Program != "" {
		return spec.Program
	}
	return "source"
}
