package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// set builds a synthetic run set: one run of exact-kernels per value of
// latency_p50_ms, other end-to-end metrics fixed.
func set(p50 ...float64) runSet {
	s := runSet{Schema: runSetSchema}
	for _, v := range p50 {
		m := map[string]metricValue{}
		for _, e := range endToEnd {
			m[e.Name] = metricValue{Value: 10, Unit: e.Unit}
		}
		m["latency_p50_ms"] = metricValue{Value: v, Unit: "ms"}
		s.Runs = append(s.Runs, runRecord{Workload: exactWL, Seed: 1, Result: result{Correct: true, Attempted: 1, Metrics: m}})
	}
	return s
}

func verdictOf(t *testing.T, a, b runSet, metric string) verdictRow {
	t.Helper()
	for _, r := range compareSets(a, b) {
		if r.workload == exactWL && r.metric == metric {
			return r
		}
	}
	t.Fatalf("no verdict for %s", metric)
	return verdictRow{}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.5, 99.5}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, v := range base {
			out = append(out, v*f)
		}
		return out
	}
	cases := []struct {
		name    string
		a, b    []float64
		verdict string
		won     float64
	}{
		{"same", base, base, "unchanged", 0},
		{"slower beyond the bound", base, scaled(1.3), "regressed", 0},
		{"slower within the bound", base, scaled(1.05), "unchanged", 0},
		{"faster, every pair won", base, scaled(0.8), "improved", 1},
		{"faster, but under ten pairs", base[:5], scaled(0.8)[:5], "unchanged", 1},
		{"spread beyond the bound", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 80}, base, "unresolved", 0.5},
		{"noisy, yet every run of B better", []float64{150, 250, 160, 240, 200, 170, 230, 190, 210, 180}, base, "improved", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := verdictOf(t, set(tc.a...), set(tc.b...), "latency_p50_ms")
			if r.verdict != tc.verdict {
				t.Errorf("verdict %s, want %s (A %v, B %v)", r.verdict, tc.verdict, r.a, r.b)
			}
			if r.won != tc.won {
				t.Errorf("B won %v of pairs, want %v", r.won, tc.won)
			}
			if r.pairs != len(tc.a) {
				t.Errorf("%d pairs, want %d", r.pairs, len(tc.a))
			}
		})
	}
	// Metrics that did not move are unchanged, ties counting for neither.
	if r := verdictOf(t, set(base...), set(base...), "answers_per_s"); r.verdict != "unchanged" || r.won != 0 {
		t.Errorf("identical answers_per_s: %+v", r)
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s runSet) string {
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", set(100, 101, 99, 100))
	same := write("same.json", set(100, 101, 99, 100))
	slow := write("slow.json", set(150, 151, 149, 150))
	if code := run([]string{"-compare", a, same}, io.Discard, io.Discard); code != 0 {
		t.Errorf("unchanged sets: exit %d", code)
	}
	if code := run([]string{"-compare", a, slow}, io.Discard, io.Discard); code != 1 {
		t.Errorf("regressed set: exit %d, want 1", code)
	}
	if code := run([]string{"-compare", a}, io.Discard, io.Discard); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}

// TestQuantileMatchesPython pins the quantile method to the one Python's
// statistics.quantiles uses by default, which judges the benchmark's
// spread: quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
