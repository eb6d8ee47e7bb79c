package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"cachemodel/internal/dist"
	"cachemodel/internal/spec"
)

// distBenchRow is one worker-count measurement of BENCH_dist.json.
// GoMaxProcs records the CPU allotment the row's workers actually ran
// under (in-process workers share the benchmark process's GOMAXPROCS),
// and SpeedupVsW1 is only emitted when the worker count fits inside that
// allotment: a "4-worker speedup" measured on one CPU is time-slicing,
// not scaling, and reporting it as a speedup would be dishonest.
type distBenchRow struct {
	Workers      int     `json:"workers"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Ns           int64   `json:"ns"`
	CandsPerSec  float64 `json:"cands_per_sec"`
	SpeedupVsW1  float64 `json:"speedup_vs_w1,omitempty"`
	Stolen       int64   `json:"units_stolen"`
	Deduped      int64   `json:"units_deduped"`
	BitIdentical bool    `json:"bit_identical"`
}

// distBenchReport is the BENCH_dist.json document: the single-process
// baseline plus one row per worker count, every row byte-compared
// against the baseline.
type distBenchReport struct {
	benchHeader
	Exact      bool           `json:"exact"`
	Candidates int            `json:"candidates"`
	Units      int            `json:"units"`
	LocalNs    int64          `json:"local_ns"`
	Results    []distBenchRow `json:"results"`
}

// distBenchWorkers are the worker counts bench -dist measures.
var distBenchWorkers = []int{1, 4}

// benchDist measures distributed sweep throughput across worker counts:
// for each count, a fresh in-process coordinator serves HTTP leases to
// that many in-process workers (SolveWorkers 1 each — the dist layer
// owns the fan-out) over a 48-geometry exact sweep, and the merged rows
// are byte-compared against a single-process SolveBatch baseline. With
// check, any bit-identity violation fails, and on a machine with real
// parallelism (>= 4 CPUs) so does a 4-worker speedup under 1.5x.
func benchDist(ctx context.Context, hdr benchHeader, pf *programFlags, check bool) (*distBenchReport, error) {
	// A fixed 48-geometry exact grid: big enough that work stealing and
	// the lease protocol are exercised, small enough for a CI smoke run.
	sw, err := distSpec(pf, spec.Grid{
		CacheSizes: []int64{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072},
		LineSizes:  []int64{16, 32, 64},
		Assocs:     []int{1, 2},
	}, dist.SolveSpec{Exact: true})
	if err != nil {
		return nil, err
	}
	if sw == nil {
		return nil, fmt.Errorf("bench -dist: no program (set -program or -file)")
	}

	t0 := time.Now()
	baseline, err := sw.SolveLocal(ctx, 1)
	if err != nil {
		return nil, fmt.Errorf("bench -dist: baseline: %v", err)
	}
	localNs := time.Since(t0).Nanoseconds()
	want, err := json.Marshal(baseline)
	if err != nil {
		return nil, err
	}
	for _, r := range baseline {
		if r.Error != "" {
			return nil, fmt.Errorf("bench -dist: baseline candidate %s failed: %s", r.Label, r.Error)
		}
	}

	rep := &distBenchReport{benchHeader: hdr, Exact: true, Candidates: len(baseline), LocalNs: localNs}
	var w1Ns int64
	for _, n := range distBenchWorkers {
		row, units, err := benchDistOnce(ctx, sw, n, want)
		if err != nil {
			return nil, err
		}
		rep.Units = units
		if n == 1 {
			w1Ns = row.Ns
		}
		// A speedup claim needs the cores to back it: rows whose worker
		// count exceeds the CPU allotment are emitted without one (the
		// wall time and throughput stand on their own).
		if w1Ns > 0 && row.Ns > 0 && n <= row.GoMaxProcs {
			row.SpeedupVsW1 = float64(w1Ns) / float64(row.Ns)
		}
		rep.Results = append(rep.Results, *row)
		if row.SpeedupVsW1 > 0 {
			fmt.Fprintf(os.Stderr, "cachette bench -dist: w%d %v (%.1f cands/s, %.2fx vs w1, identical=%v)\n",
				n, time.Duration(row.Ns), row.CandsPerSec, row.SpeedupVsW1, row.BitIdentical)
		} else {
			fmt.Fprintf(os.Stderr, "cachette bench -dist: w%d %v (%.1f cands/s, no speedup row: %d workers on %d CPUs, identical=%v)\n",
				n, time.Duration(row.Ns), row.CandsPerSec, n, row.GoMaxProcs, row.BitIdentical)
		}
	}

	if check {
		maxRow := distBenchRow{}
		for _, r := range rep.Results {
			if !r.BitIdentical {
				return nil, fmt.Errorf("bench -dist -check: merged rows at %d workers differ from the single-process baseline", r.Workers)
			}
			// Only CPU-covered rows (those carrying a speedup) compete for
			// the throughput gate: an oversubscribed row measures the
			// scheduler, not the dist layer.
			if r.SpeedupVsW1 > 0 && r.Workers > maxRow.Workers {
				maxRow = r
			}
		}
		// The throughput gate needs real cores: a uniprocessor serialises
		// the workers and proves only correctness, not scaling.
		if runtime.GOMAXPROCS(0) >= 4 && maxRow.Workers >= 4 && maxRow.SpeedupVsW1 < 1.5 {
			return nil, fmt.Errorf("bench -dist -check: %d workers only %.2fx vs 1 worker (want >= 1.5x on %d CPUs)",
				maxRow.Workers, maxRow.SpeedupVsW1, runtime.GOMAXPROCS(0))
		}
		fmt.Fprintln(os.Stderr, "cachette bench -dist: all worker counts bit-identical to the single-process baseline")
	}

	return rep, nil
}

// benchDistOnce runs one timed sweep: a fresh coordinator (no dedup
// carry-over between measurements) and n workers, returning the row and
// the sweep's unit count.
func benchDistOnce(ctx context.Context, spec *dist.SweepSpec, n int, want []byte) (*distBenchRow, int, error) {
	c, err := dist.New(dist.Options{ShutdownWhenDone: true})
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: c.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	workers := make([]*dist.Worker, n)
	for i := range workers {
		w, err := dist.NewWorker(dist.WorkerOptions{
			Coordinator: base,
			ID:          fmt.Sprintf("bench-w%d", i),
			Poll:        20 * time.Millisecond,
		})
		if err != nil {
			return nil, 0, err
		}
		workers[i] = w
	}

	t0 := time.Now()
	st, err := c.AddSweep(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *dist.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("bench -dist: worker %d: %v", i, err)
		}
	}
	if err := c.Wait(ctx, st.Sweep); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)

	mrep, err := c.Report(st.Sweep)
	if err != nil {
		return nil, 0, err
	}
	got, err := json.Marshal(mrep.Rows)
	if err != nil {
		return nil, 0, err
	}
	status := c.Status()
	row := &distBenchRow{
		Workers:      n,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Ns:           d.Nanoseconds(),
		Stolen:       status.UnitsStolen,
		Deduped:      status.UnitsDeduped,
		BitIdentical: string(got) == string(want),
	}
	if d > 0 {
		row.CandsPerSec = float64(len(mrep.Rows)) / d.Seconds()
	}
	return row, st.Stats.Units, nil
}
