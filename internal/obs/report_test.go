package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testReport(t *testing.T) *RunReport {
	t.Helper()
	col := New("run")
	col.Registry().Counter("cme_tiles_solved_total").Add(3)
	ctx := NewContext(context.Background(), col)
	_, s := StartSpan(ctx, "solve.exact")
	s.End()
	rep := col.Report()
	rep.Program = "tomcatv"
	rep.Command = "analyze"
	rep.Report = &Provenance{Tier: "exact", Coverage: 1, MissRatioPct: 1.5, Accesses: 10, Refs: 2, CompleteRefs: 2}
	return rep
}

func TestRunReportRoundTrip(t *testing.T) {
	rep := testReport(t)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateRunReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "tomcatv" || got.Report.Tier != "exact" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Spans.Children) != 1 || got.Spans.Children[0].Name != "solve.exact" {
		t.Fatalf("span tree lost: %+v", got.Spans)
	}
}

func TestValidateRejects(t *testing.T) {
	rep := testReport(t)
	cases := []struct {
		name   string
		mutate func(*RunReport)
		substr string
	}{
		{"schema", func(r *RunReport) { r.Schema = "v0" }, "schema"},
		{"program", func(r *RunReport) { r.Program = "" }, "program"},
		{"span", func(r *RunReport) { r.Spans.Children[0].Name = "" }, "unnamed span"},
		{"metrics", func(r *RunReport) { r.Metrics = Snapshot{} }, "no cme_"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := *rep
			spans := rep.Spans
			spans.Children = append([]SpanSnapshot(nil), rep.Spans.Children...)
			cp.Spans = spans
			tc.mutate(&cp)
			blob, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateRunReport(blob); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("want error containing %q, got %v", tc.substr, err)
			}
		})
	}
	if _, err := ValidateRunReport([]byte("{")); err == nil {
		t.Fatal("malformed JSON must fail validation")
	}
}

// TestValidateGeomCounters covers the geometry-parametric tier's counter
// consistency rules: evals need a source rung, fits need anchors, and the
// pure-cold sub-count can never exceed the evals it is part of.
func TestValidateGeomCounters(t *testing.T) {
	make := func(eval, fit, pureCold, anchors int64) []byte {
		rep := testReport(t)
		cp := *rep
		cp.Metrics.Counters = map[string]int64{
			"cme_tiles_solved_total":       3,
			"cme_geom_eval_total":          eval,
			"cme_geom_fit_total":           fit,
			"cme_geom_purecold_total":      pureCold,
			"cme_geom_anchor_solves_total": anchors,
		}
		blob, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for name, blob := range map[string][]byte{
		"fitted column":   make(61, 4, 0, 3),
		"pure cold only":  make(8, 0, 8, 0),
		"mixed rungs":     make(61, 3, 10, 3),
		"tier never ran":  make(0, 0, 0, 0),
		"anchors no fits": make(0, 0, 0, 5),
	} {
		if _, err := ValidateRunReport(blob); err != nil {
			t.Errorf("%s: unexpected rejection: %v", name, err)
		}
	}
	for name, tc := range map[string]struct {
		blob   []byte
		substr string
	}{
		"eval without rung":  {make(10, 0, 0, 3), "neither"},
		"fit without anchor": {make(10, 2, 0, 0), "no cme_geom_anchor_solves_total"},
		"purecold over eval": {make(5, 1, 9, 3), "exceeds"},
	} {
		if _, err := ValidateRunReport(tc.blob); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.substr, err)
		}
	}
}

// TestValidateScalingCounters covers the problem-size tier's counter
// consistency rules: closed-form evaluations and fit sample solves both
// need a residue-class fit.
func TestValidateScalingCounters(t *testing.T) {
	make := func(evals, solves, fits, fallbacks int64) []byte {
		rep := testReport(t)
		cp := *rep
		cp.Metrics.Counters = map[string]int64{
			"cme_tiles_solved_total":         3,
			"cme_scaling_closed_evals_total": evals,
			"cme_scaling_fit_solves_total":   solves,
			"cme_scaling_residue_fits_total": fits,
			"cme_scaling_fallbacks_total":    fallbacks,
		}
		blob, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for name, blob := range map[string][]byte{
		"fitted ladder":        make(16, 4, 1, 0),
		"pure cold only":       make(6, 0, 1, 0),
		"failed fit fell back": make(0, 12, 1, 16),
		"tier never ran":       make(0, 0, 0, 0),
		"ineligible family":    make(0, 0, 0, 5),
	} {
		if _, err := ValidateRunReport(blob); err != nil {
			t.Errorf("%s: unexpected rejection: %v", name, err)
		}
	}
	for name, tc := range map[string]struct {
		blob   []byte
		substr string
	}{
		"evals without fit":  {make(16, 0, 0, 0), "cme_scaling_closed_evals_total with no"},
		"solves without fit": {make(0, 4, 0, 2), "cme_scaling_fit_solves_total with no"},
	} {
		if _, err := ValidateRunReport(tc.blob); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.substr, err)
		}
	}
}

// TestValidateJobOutcomes covers the server-run shape of the report:
// job-level outcomes validate, serve_* metrics stand in for cme_* when
// Jobs is present, and impossible counts are rejected.
func TestValidateJobOutcomes(t *testing.T) {
	rep := testReport(t)
	rep.Jobs = &JobOutcomes{Completed: 5, Shed: 2, Degraded: 1, Failed: 1, Retried: 3, SingleflightHits: 2}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateRunReport(blob)
	if err != nil {
		t.Fatalf("valid job outcomes rejected: %v", err)
	}
	if got.Jobs == nil || got.Jobs.Completed != 5 || got.Jobs.Shed != 2 {
		t.Fatalf("job outcomes lost in round trip: %+v", got.Jobs)
	}

	// Server run that shed everything: no cme_* metric ever fired, but a
	// serve_* gauge proves the instrumentation ran.
	shedOnly := testReport(t)
	shedOnly.Jobs = &JobOutcomes{Shed: 10}
	shedOnly.Metrics = Snapshot{Gauges: map[string]int64{"serve_queue_depth": 0},
		Counters: map[string]int64{"serve_shed_total": 10}}
	blob, err = json.Marshal(shedOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(blob); err != nil {
		t.Fatalf("shed-only server report rejected: %v", err)
	}

	// Without Jobs, serve_* metrics alone must NOT satisfy validation.
	plain := testReport(t)
	plain.Metrics = Snapshot{Counters: map[string]int64{"serve_shed_total": 1}}
	blob, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(blob); err == nil {
		t.Fatal("one-shot report with only serve_* metrics validated")
	}

	for name, jo := range map[string]JobOutcomes{
		"negative":            {Completed: -1},
		"degraded>completed":  {Completed: 1, Degraded: 2},
		"negative_shed":       {Shed: -4},
		"negative_flight_hit": {SingleflightHits: -1},
	} {
		bad := testReport(t)
		joCopy := jo
		bad.Jobs = &joCopy
		blob, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateRunReport(blob); err == nil {
			t.Errorf("%s: impossible outcomes validated", name)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != "second" {
		t.Fatalf("content = %q", blob)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	// Writing into a missing directory surfaces the error.
	if err := WriteFileAtomic(filepath.Join(dir, "nope", "x.json"), []byte("x")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestRunReportWriteFile(t *testing.T) {
	rep := testReport(t)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(blob); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDistOutcomes(t *testing.T) {
	rep := testReport(t)
	rep.Dist = &DistOutcomes{Sweeps: 1, Units: 8, Completed: 8, Leased: 11, Stolen: 3,
		Deduped: 2, Retried: 1, Pruned: 4, Workers: map[string]int64{"w0": 5, "w1": 3}}
	rep.Metrics = Snapshot{Counters: map[string]int64{"dist_units_completed_total": 8}}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateRunReport(blob)
	if err != nil {
		t.Fatalf("valid dist outcomes rejected: %v", err)
	}
	if got.Dist == nil || got.Dist.Stolen != 3 || got.Dist.Workers["w0"] != 5 {
		t.Fatalf("dist outcomes lost in round trip: %+v", got.Dist)
	}

	// A coordinator run solves on its workers: dist_* metrics alone must
	// satisfy the instrumentation check when Dist is present...
	coord := testReport(t)
	coord.Dist = &DistOutcomes{Sweeps: 1, Units: 4, Completed: 4}
	coord.Metrics = Snapshot{Counters: map[string]int64{"dist_sweeps_total": 1}}
	blob, err = json.Marshal(coord)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(blob); err != nil {
		t.Fatalf("coordinator report with only dist_* metrics rejected: %v", err)
	}

	// ...but without Dist, dist_* metrics do not count as solver proof.
	plain := testReport(t)
	plain.Metrics = Snapshot{Counters: map[string]int64{"dist_sweeps_total": 1}}
	blob, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(blob); err == nil {
		t.Fatal("one-shot report with only dist_* metrics validated")
	}

	for name, d := range map[string]DistOutcomes{
		"negative_units":    {Units: -1},
		"negative_stolen":   {Stolen: -2},
		"completed>units":   {Units: 2, Completed: 3},
		"negative_worker":   {Units: 2, Completed: 2, Workers: map[string]int64{"w": -1}},
		"workers>completed": {Units: 4, Completed: 2, Workers: map[string]int64{"a": 2, "b": 1}},
	} {
		bad := testReport(t)
		dCopy := d
		bad.Dist = &dCopy
		bad.Metrics = Snapshot{Counters: map[string]int64{"dist_sweeps_total": 1}}
		blob, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateRunReport(blob); err == nil {
			t.Errorf("%s: impossible dist outcomes validated", name)
		}
	}
}
