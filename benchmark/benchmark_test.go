package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"cachemodel/internal/obs"
)

// smokeRun runs one workload at the smoke scale: one pass (one untraced
// and one traced pass with trace on), every check of a full run.
func smokeRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	dir := t.TempDir()
	opt := options{workload: workload, seed: 7, scale: "smoke", workdir: dir, trace: trace}
	if trace {
		opt.traceOut = filepath.Join(dir, "trace.json")
	}
	o, err := runWorkload(opt, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !o.res.Correct || o.res.Failed != 0 || exitCode(o.res) != 0 {
		for _, r := range o.b.reqs {
			if r.failed != nil {
				t.Errorf("%s: request %d (%s): %v", workload, r.id, r.kind, r.failed)
			}
		}
		t.Fatalf("%s: correct %v, %d of %d failed, errors %v", workload, o.res.Correct, o.res.Failed, o.res.Attempted, o.b.errs)
	}
	return o
}

func answers(o *outcome) int {
	n := 0
	for _, r := range o.b.reqs {
		n += len(r.answers)
	}
	return n
}

// TestSmokeWorkloads runs every workload twice untraced and twice traced
// with one seed, and checks the output contract, the determinism of what
// must repeat exactly, and the traced run's ledger and trace file.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := smokeRun(t, w.name, false), smokeRun(t, w.name, false)
			for _, m := range endToEnd {
				v, ok := a.res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
				}
				if v.Value <= 0 {
					t.Errorf("metric %s is %v; end-to-end metrics are never 0", m.Name, v.Value)
				}
			}
			if a.res.Attempted != b.res.Attempted || answers(a) != answers(b) {
				t.Errorf("same seed, different work: %d/%d requests, %d/%d answers",
					a.res.Attempted, b.res.Attempted, answers(a), answers(b))
			}
			if x, y := a.b.custom["bench.miss_ratio_error_pp"], b.b.custom["bench.miss_ratio_error_pp"]; x != y {
				t.Errorf("same seed, miss ratio error %v vs %v", x, y)
			}

			c, d := smokeRun(t, w.name, true), smokeRun(t, w.name, true)
			for _, m := range perLayer {
				v, ok := c.res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
				}
				// On the open-loop workload timing decides whether a repeat
				// is answered by the result cache or by singleflight, so
				// only the benchmark's own figures must repeat there.
				if !m.Det || (w.name == serveWL && m.Kind != kCustom) {
					continue
				}
				if x, y := v.Value, d.res.Metrics[m.Name].Value; x != y {
					t.Errorf("deterministic metric %s: %v then %v", m.Name, x, y)
				}
			}
			checkLedger(t, w.name, c)
		})
	}
}

// checkLedger holds a traced run to the accounting identity and its trace
// file to the obscheck validation.
func checkLedger(t *testing.T, workload string, o *outcome) {
	t.Helper()
	blob, err := os.ReadFile(o.b.opt.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTraceFile(blob); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	led := o.led
	if led.wall <= 0 {
		t.Fatalf("ledger accounts no wall time")
	}
	sum := led.layerSelf + led.unattributed
	if diff := math.Abs(float64(sum - led.wall)); diff > 0.01*float64(led.wall) {
		t.Errorf("layer self %v + unattributed %v = %v, wall %v", led.layerSelf, led.unattributed, sum, led.wall)
	}
	if workload != serveWL {
		if u := o.res.Metrics["bench.unattributed_pct"].Value; u > 5 {
			t.Errorf("closed loop: %.2f%% of wall time is in no layer span", u)
		}
	}
}

// TestCounterSeriesExist fails when a counter-derived metric names an
// obs series the program no longer registers, instead of letting the
// metric read 0 forever.
func TestCounterSeriesExist(t *testing.T) {
	snap := obs.Default.Snapshot()
	for _, m := range perLayer {
		for _, s := range m.Src {
			var ok bool
			switch m.Kind {
			case kCounter, kRatio:
				_, ok = snap.Counters[s]
			case kHistMean, kHistQuantile:
				_, ok = snap.Histograms[s]
			case kGauge:
				_, ok = snap.Gauges[s]
			default:
				ok = true
			}
			if !ok {
				t.Errorf("metric %s reads obs series %q, which is not registered", m.Name, s)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json at the repository
// root in step with the metric table and the workload list.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s", i, w, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		w := endToEnd[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %s %s %s %v", i, m, w.Name, w.Unit, w.Better, w.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		w := perLayer[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("per_layer[%d] = %+v, table has %s %s %s", i, m, w.Name, w.Unit, w.Better)
		}
	}
}
