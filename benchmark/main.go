// Command benchmark measures cachette end to end and layer by layer.
//
// It drives five workloads through the public functions of the analysis
// packages (front end, reuse, cme, trace, serve, dist), times those calls
// from outside, and holds every answer to the exact LRU simulator. Run
// from the repository root:
//
//	bash benchmark/run.sh --workload exact-kernels --seed 1 --seconds 15 --trace 0
//
// or, inside benchmark/, go run . with the same flags. Without --workload
// it runs every workload, each in a process of its own. The last line of
// standard output is the result as JSON; standard error carries a table.
// See README.md for the workloads, the metrics and -compare.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads are the benchmark's traffic mixes, in run order.
var workloads = []struct {
	name string
	make func(b *bench) workload
}{
	{exactWL, newExact},
	{estimateWL, newEstimate},
	{designWL, newDesign},
	{distWL, newDist},
	{serveWL, newServe},
}

// runDeadline bounds one workload run; a run that overstays it is killed
// rather than left to hang the caller.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", allWL, "workload to run, or all (each in a process of its own)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "time budget of the timed phase, run in whole passes (at least one)")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&opt.traceOut, "trace-out", "", "with --trace 1, write the spans as Chrome trace-event JSON here")
	fs.StringVar(&opt.scale, "scale", "full", "fixture scale: full, or smoke for a quick check")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for scratch files")
	runs := fs.Int("runs", 1, "with --workload all: runs of every workload, round robin")
	out := fs.String("out", "", "with --workload all: write the run set, the input of -compare, here")
	compare := fs.Bool("compare", false, "compare two run sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two run-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace takes 0 or 1")
		return 2
	}
	opt.trace = *traceFlag == 1
	if scales[opt.scale] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", opt.scale)
		return 2
	}
	if opt.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must not be negative")
		return 2
	}
	if opt.workload == allWL {
		return runAll(opt, *runs, *out, stdout, stderr)
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "benchmark: %s did not finish within %v\n", opt.workload, runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	o, err := runWorkload(opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", opt.workload, err)
		return 1
	}
	blob, err := json.Marshal(o.res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return exitCode(o.res)
}

// outcome is everything one workload run leaves behind.
type outcome struct {
	b     *bench
	res   result
	led   *ledger
	spans []spanRec
}

// runWorkload runs one workload in this process: set-up (several times),
// warm-up, the timed phase, then the oracle checks.
func runWorkload(opt options, stderr io.Writer) (*outcome, error) {
	var mk func(*bench) workload
	for _, w := range workloads {
		if w.name == opt.workload {
			mk = w.make
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload (want one of %s)", workloadNames())
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	b := newBench(opt)
	w := mk(b)
	_ = spinUp(b.fx.spin, b.nproc)
	b.tr.on.Store(opt.trace)
	err := b.setups(w)
	if err == nil {
		b.setPhase(phaseWarmup)
		err = w.warmup(b)
	}
	if err == nil {
		b.setPhase(phaseTimed)
		err = w.timed(b)
	}
	b.rssMB = peakRSS()
	err = errors.Join(err, w.close())
	if err != nil {
		return nil, err
	}
	b.setPhase(phaseVerify)
	b.tr.on.Store(opt.trace)
	if err := w.verify(b); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	o := &outcome{b: b}
	if opt.trace {
		o.spans = b.tr.snapshot()
		o.led = buildLedger(o.spans, b.windows)
		if opt.traceOut != "" {
			tf := traceFile(o.spans, "cachette benchmark "+opt.workload, laneName)
			if err := tf.WriteFile(opt.traceOut); err != nil {
				return nil, err
			}
		}
	}
	o.res = b.result(o.led)
	b.writeSummary(stderr, o.res, o.led, gitSHA())
	return o, nil
}

func laneName(lane int) string {
	if lane == clientLane {
		return "client"
	}
	return fmt.Sprintf("concurrent %d", lane)
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// gitSHA is the revision the binary was built from, when the build could
// see it.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// runSet is a set of runs from one commit: the input of -compare.
type runSet struct {
	Schema     string      `json:"schema"`
	GitSHA     string      `json:"git_sha"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Scale      string      `json:"scale"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

const runSetSchema = "cachette-benchmark/runs/v1"

// runAll runs every workload runs times, round robin, each run in a child
// process so each gets its own peak RSS and counters.
func runAll(opt options, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	set := runSet{Schema: runSetSchema, GitSHA: gitSHA(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale: opt.scale, Seconds: opt.seconds}
	agg := result{Correct: true, Metrics: map[string]metricValue{}}
	traceArg := "0"
	if opt.trace {
		traceArg = "1"
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(opt.seed, 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", traceArg,
				"--scale", opt.scale, "--workdir", opt.workdir}
			if opt.traceOut != "" {
				ext := filepath.Ext(opt.traceOut)
				args = append(args, "--trace-out", strings.TrimSuffix(opt.traceOut, ext)+"."+w.name+ext)
			}
			var so bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &so, stderr
			runErr := cmd.Run()
			res, perr := lastResult(so.Bytes())
			if perr != nil {
				fmt.Fprintf(stderr, "benchmark: %s: no result (%v, exit %v)\n", w.name, perr, runErr)
				agg.Correct = false
				continue
			}
			if runErr != nil {
				agg.Correct = false
			}
			agg.Correct = agg.Correct && res.Correct
			agg.Attempted += res.Attempted
			agg.Failed += res.Failed
			set.Runs = append(set.Runs, runRecord{Workload: w.name, Seed: opt.seed, Trace: opt.trace, Result: res})
		}
	}
	for _, s := range summarize(set) {
		agg.Metrics[s.workload+"."+s.metric] = metricValue{Value: s.median, Unit: s.unit}
	}
	writeSummaryTable(stderr, set)
	if out != "" {
		blob, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	blob, err := json.Marshal(agg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return exitCode(agg)
}

// lastResult parses the last non-empty line of a run's standard output.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if last == "" {
		return r, errors.New("empty output")
	}
	err := json.Unmarshal([]byte(last), &r)
	return r, err
}

// summary is the distribution of one metric over a run set's runs of one
// workload.
type summary struct {
	workload, metric, unit string
	values                 []float64 // in run order
	median, q1, q3         float64
}

func summarize(set runSet) []summary {
	var out []summary
	for _, w := range workloads {
		byMetric := map[string]*summary{}
		var order []string
		for _, r := range set.Runs {
			if r.Workload != w.name {
				continue
			}
			for name, v := range r.Result.Metrics {
				s, ok := byMetric[name]
				if !ok {
					s = &summary{workload: w.name, metric: name, unit: v.Unit}
					byMetric[name] = s
					order = append(order, name)
				}
				s.values = append(s.values, v.Value)
			}
		}
		sort.Strings(order)
		for _, name := range order {
			s := byMetric[name]
			sorted := append([]float64(nil), s.values...)
			sort.Float64s(sorted)
			s.median, s.q1, s.q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
			out = append(out, *s)
		}
	}
	return out
}

func writeSummaryTable(w io.Writer, set runSet) {
	fmt.Fprintf(w, "run set: git %s  gomaxprocs %d  scale %s  %d runs\n", set.GitSHA, set.GoMaxProcs, set.Scale, len(set.Runs))
	fmt.Fprintf(w, "  %-18s %-28s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, s := range summarize(set) {
		fmt.Fprintf(w, "  %-18s %-28s %14.4f %14.4f %14.4f  %s\n", s.workload, s.metric, s.median, s.q1, s.q3, s.unit)
	}
}
