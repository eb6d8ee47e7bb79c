package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare judges run set B (a change) against run set A (its parent),
// per workload and end-to-end metric, by the rule the benchmark's bounds
// serve:
//
//   - unresolved: either side's spread (interquartile range over median)
//     exceeds the metric's bound, unless every run of B beats every run
//     of A;
//   - improved: B wins at least 9 in 10 of at least ten alternating pairs
//     (run i of A against run i of B; ties count for neither) and its
//     median beats A's by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.

// verdictRow is one (workload, metric) comparison.
type verdictRow struct {
	workload, metric, unit string
	a, b                   summary
	pairs                  int
	won                    float64 // share of pairs B won
	verdict                string
}

const minPairsForGain = 10

func judge(m metric, a, b summary) verdictRow {
	row := verdictRow{workload: a.workload, metric: m.Name, unit: m.Unit, a: a, b: b}
	lower := m.Better == "lower"
	better := func(base, x float64) bool { // x beats base
		if lower {
			return x < base
		}
		return x > base
	}
	row.pairs = min(len(a.values), len(b.values))
	wins := 0
	for i := 0; i < row.pairs; i++ {
		if better(a.values[i], b.values[i]) {
			wins++
		}
	}
	if row.pairs > 0 {
		row.won = float64(wins) / float64(row.pairs)
	}
	allBetter := true
	for _, x := range a.values {
		for _, y := range b.values {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := math.Max(relSpread(a), relSpread(b))
	gain := b.median - a.median
	if lower {
		gain = -gain
	}
	switch {
	case spread > m.Bound && !allBetter:
		row.verdict = "unresolved"
	case row.pairs >= minPairsForGain && row.won >= 0.9 && gain > a.q3-a.q1:
		row.verdict = "improved"
	case a.median != 0 && -gain/math.Abs(a.median) > m.Bound:
		row.verdict = "regressed"
	default:
		row.verdict = "unchanged"
	}
	return row
}

func relSpread(s summary) float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// compareSets judges every end-to-end metric of every workload both sets
// ran.
func compareSets(a, b runSet) []verdictRow {
	index := func(set runSet) map[string]summary {
		m := map[string]summary{}
		for _, s := range summarize(set) {
			m[s.workload+"/"+s.metric] = s
		}
		return m
	}
	sa, sb := index(a), index(b)
	var rows []verdictRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			x, okA := sa[w.name+"/"+m.Name]
			y, okB := sb[w.name+"/"+m.Name]
			if okA && okB {
				rows = append(rows, judge(m, x, y))
			}
		}
	}
	return rows
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	blob, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(blob, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != runSetSchema {
		return set, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, runSetSchema)
	}
	return set, nil
}

// compareFiles prints the verdict table; it exits 1 when any metric
// regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunSet(pathA)
	if err == nil {
		var b runSet
		if b, err = readRunSet(pathB); err == nil {
			return writeVerdicts(stdout, a, b)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func writeVerdicts(w io.Writer, a, b runSet) int {
	fmt.Fprintf(w, "A: git %s (%d runs)   B: git %s (%d runs)\n", a.GitSHA, len(a.Runs), b.GitSHA, len(b.Runs))
	fmt.Fprintf(w, "%-18s %-15s %26s %26s %7s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "bound", "verdict")
	code := 0
	for _, r := range compareSets(a, b) {
		m, _ := metricByName(r.metric)
		fmt.Fprintf(w, "%-18s %-15s %26s %26s %3d/%-3d %5.0f%%  %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.a.median, r.a.q1, r.a.q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.b.median, r.b.q1, r.b.q3),
			int(math.Round(r.won*float64(r.pairs))), r.pairs, 100*m.Bound, r.verdict)
		if r.verdict == "regressed" {
			code = 1
		}
	}
	return code
}
