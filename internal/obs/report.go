package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// SchemaV1 identifies the run-report JSON schema documented in
// DESIGN.md §Observability.
const SchemaV1 = "cachette/run-report/v1"

// BudgetSpent mirrors budget.Spent for the run report without importing
// internal/budget (obs stays a leaf package).
type BudgetSpent struct {
	Points      int64 `json:"points"`
	Scan        int64 `json:"scan"`
	WallNs      int64 `json:"wall_ns"`
	Checkpoints int64 `json:"checkpoints"`
	Graces      int   `json:"graces"`
}

// Provenance embeds what a cme.Report says about what was answered and
// what it cost.
type Provenance struct {
	Tier         string      `json:"tier"`
	Degraded     bool        `json:"degraded"`
	Coverage     float64     `json:"coverage"`
	MissRatioPct float64     `json:"miss_ratio_pct"`
	Accesses     int64       `json:"accesses"`
	Refs         int         `json:"refs"`
	CompleteRefs int         `json:"complete_refs"`
	Budget       BudgetSpent `json:"budget"`
}

// JobOutcomes records what happened to every job of a server run: the
// counts a run report needs so "the server ran" is auditable the same way
// "the analysis ran" is — completed/shed/degraded/failed are the serving
// analogue of tier/coverage provenance.
type JobOutcomes struct {
	// Completed jobs finished with a result (possibly degraded).
	Completed int64 `json:"completed"`
	// Shed requests were rejected at admission (queue full or global
	// budget saturated) — the load the server refused rather than stalled.
	Shed int64 `json:"shed"`
	// Degraded jobs completed below their requested tier (budget ladder).
	Degraded int64 `json:"degraded"`
	// Failed jobs ended with a typed error (cancelled, exhausted with
	// NoFallback, non-affine input, isolated panic).
	Failed int64 `json:"failed"`
	// Retried counts transient-failure re-enqueues.
	Retried int64 `json:"retried,omitempty"`
	// SingleflightHits counts jobs that shared another job's in-flight
	// solve instead of recomputing.
	SingleflightHits int64 `json:"singleflight_hits,omitempty"`
}

// validate rejects impossible outcome counts.
func (j *JobOutcomes) validate() error {
	if j == nil {
		return nil
	}
	if j.Completed < 0 || j.Shed < 0 || j.Degraded < 0 || j.Failed < 0 ||
		j.Retried < 0 || j.SingleflightHits < 0 {
		return fmt.Errorf("run report: negative job outcome count: %+v", *j)
	}
	if j.Degraded > j.Completed {
		return fmt.Errorf("run report: %d degraded jobs exceed %d completed", j.Degraded, j.Completed)
	}
	return nil
}

// DistOutcomes records what happened to every work unit of a distributed
// sweep run: the coordinator's ledger of sharded execution, mirroring
// JobOutcomes for the serve layer. Together with the dist_* metric series
// it makes "the sweep ran distributed" auditable — how much work was
// sharded, how much was stolen from dead shards, how much was never
// executed because content addressing already had the answer.
type DistOutcomes struct {
	// Sweeps is how many sweeps the coordinator ran.
	Sweeps int64 `json:"sweeps"`
	// Units is the total canonical work units decomposed.
	Units int64 `json:"units"`
	// Completed units finished with merged rows.
	Completed int64 `json:"completed"`
	// Leased counts lease grants (> Completed when units were retried or
	// stolen).
	Leased int64 `json:"leased"`
	// Stolen counts expired leases re-issued to another worker (work
	// stealing from dead or slow shards).
	Stolen int64 `json:"stolen"`
	// Deduped counts units (within or across sweeps) answered by an
	// identical unit's result instead of a solve.
	Deduped int64 `json:"deduped"`
	// Retried counts worker-reported unit failures that were re-enqueued.
	Retried int64 `json:"retried"`
	// Pruned counts candidates the advisor frontier pass eliminated before
	// exact solving.
	Pruned int64 `json:"pruned,omitempty"`
	// Workers maps worker id to units completed — per-worker throughput
	// once divided by the run's elapsed time.
	Workers map[string]int64 `json:"workers,omitempty"`
	// TimelineEvents is the total lifecycle transitions (queued, leased,
	// stolen, reported, merged, …) the coordinator recorded across all
	// unit timelines.
	TimelineEvents int64 `json:"timeline_events,omitempty"`
	// Traces lists the trace ids of traced sweeps, linking the run
	// report to the per-sweep trace-event exports.
	Traces []string `json:"traces,omitempty"`
}

// validate rejects impossible distributed-sweep counts.
func (d *DistOutcomes) validate() error {
	if d == nil {
		return nil
	}
	if d.Sweeps < 0 || d.Units < 0 || d.Completed < 0 || d.Leased < 0 ||
		d.Stolen < 0 || d.Deduped < 0 || d.Retried < 0 || d.Pruned < 0 ||
		d.TimelineEvents < 0 {
		return fmt.Errorf("run report: negative dist outcome count: %+v", *d)
	}
	for _, t := range d.Traces {
		if !validHexID(t, 32) {
			return fmt.Errorf("run report: malformed dist trace id %q", t)
		}
	}
	if d.Completed > d.Units {
		return fmt.Errorf("run report: %d completed units exceed %d decomposed", d.Completed, d.Units)
	}
	var byWorker int64
	for w, n := range d.Workers {
		if n < 0 {
			return fmt.Errorf("run report: worker %s: negative unit count %d", w, n)
		}
		byWorker += n
	}
	if byWorker > d.Completed {
		return fmt.Errorf("run report: per-worker units %d exceed %d completed", byWorker, d.Completed)
	}
	return nil
}

// CandidateProvenance is the per-candidate row for batch runs.
type CandidateProvenance struct {
	Label        string  `json:"label"`
	Tier         string  `json:"tier,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	MissRatioPct float64 `json:"miss_ratio_pct,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// RunReport is the structured artifact written by -obs-out: one JSON
// document explaining both what was answered (Report provenance) and
// what it cost (spans + metrics).
type RunReport struct {
	Schema  string `json:"schema"`
	Program string `json:"program"`
	Command string `json:"command"`
	// TraceID is the run's 32-hex distributed-trace id (the root span's
	// trace), correlating this report with coordinator/worker logs and
	// trace-event exports.
	TraceID    string                `json:"trace_id,omitempty"`
	Started    time.Time             `json:"started"`
	ElapsedNs  int64                 `json:"elapsed_ns"`
	Report     *Provenance           `json:"report,omitempty"`
	Candidates []CandidateProvenance `json:"candidates,omitempty"`
	// Jobs carries the job-level outcomes of a server run (nil for
	// one-shot analyses).
	Jobs *JobOutcomes `json:"jobs,omitempty"`
	// Dist carries the work-unit outcomes of a distributed sweep run
	// (nil otherwise).
	Dist    *DistOutcomes `json:"dist,omitempty"`
	Spans   SpanSnapshot  `json:"spans"`
	Metrics Snapshot      `json:"metrics"`
}

// Report assembles a RunReport from the collector's spans and registry.
// The caller fills Program/Command/Report/Candidates.
func (c *Collector) Report() *RunReport {
	if c == nil {
		return nil
	}
	c.Finish()
	return &RunReport{
		Schema:    SchemaV1,
		TraceID:   c.TraceID(),
		Started:   c.start,
		ElapsedNs: int64(time.Since(c.start)),
		Spans:     c.root.Snapshot(),
		Metrics:   c.reg.Snapshot(),
	}
}

// WriteFile persists the run report atomically (fsync + rename).
func (r *RunReport) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(blob, '\n'))
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, then renames it over path, so an interrupted
// writer can never leave a truncated file behind.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = "" // renamed away; nothing to clean up
	return nil
}

// ValidateRunReport checks blob against the v1 schema: schema id,
// non-empty program, a well-formed span tree (every span named, child
// durations non-negative), and a metrics snapshot exposing at least one
// cme_* series.  Returns the decoded report on success.
func ValidateRunReport(blob []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("run report: %w", err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("run report: schema %q, want %q", r.Schema, SchemaV1)
	}
	if r.Program == "" {
		return nil, fmt.Errorf("run report: missing program")
	}
	if r.ElapsedNs < 0 {
		return nil, fmt.Errorf("run report: negative elapsed_ns")
	}
	if r.TraceID != "" && !validHexID(r.TraceID, 32) {
		return nil, fmt.Errorf("run report: malformed trace_id %q", r.TraceID)
	}
	if err := validateSpan(r.Spans, ""); err != nil {
		return nil, err
	}
	if err := r.Jobs.validate(); err != nil {
		return nil, err
	}
	if err := r.Dist.validate(); err != nil {
		return nil, err
	}
	// Geometry-parametric tier counters must be mutually consistent: a
	// closed-form evaluation comes from a fitted column or the pure-cold
	// rung (which counts in both eval and purecold), and a fit can only
	// exist if anchor members were solved to feed it.
	geomEval := r.Metrics.Counters["cme_geom_eval_total"]
	geomFit := r.Metrics.Counters["cme_geom_fit_total"]
	geomPureCold := r.Metrics.Counters["cme_geom_purecold_total"]
	geomAnchors := r.Metrics.Counters["cme_geom_anchor_solves_total"]
	if geomEval > 0 && geomFit == 0 && geomPureCold == 0 {
		return nil, fmt.Errorf("run report: %d cme_geom_eval_total with neither cme_geom_fit_total nor cme_geom_purecold_total", geomEval)
	}
	if geomFit > 0 && geomAnchors == 0 {
		return nil, fmt.Errorf("run report: %d cme_geom_fit_total with no cme_geom_anchor_solves_total", geomFit)
	}
	if geomPureCold > geomEval {
		return nil, fmt.Errorf("run report: cme_geom_purecold_total %d exceeds cme_geom_eval_total %d", geomPureCold, geomEval)
	}
	// Problem-size tier counters: every closed-form evaluation and every
	// fit sample solve belongs to a residue-class fit.
	scalingFits := r.Metrics.Counters["cme_scaling_residue_fits_total"]
	for _, name := range []string{"cme_scaling_closed_evals_total", "cme_scaling_fit_solves_total"} {
		if n := r.Metrics.Counters[name]; n > 0 && scalingFits == 0 {
			return nil, fmt.Errorf("run report: %d %s with no cme_scaling_residue_fits_total", n, name)
		}
	}
	// A one-shot analysis must expose solver metrics; a server run (Jobs
	// present) may instead have shed everything before any solver ran, and
	// a coordinator run (Dist present) solves on its workers, not locally —
	// in those cases the serve_*/dist_* series stand in as proof of
	// instrumentation.
	prefixes := []string{"cme_"}
	if r.Jobs != nil {
		prefixes = append(prefixes, "serve_")
	}
	if r.Dist != nil {
		prefixes = append(prefixes, "dist_")
	}
	if !hasMetricPrefix(r.Metrics, prefixes) {
		return nil, fmt.Errorf("run report: no %s metric in snapshot", strings.Join(prefixes, "/"))
	}
	return &r, nil
}

// hasMetricPrefix reports whether any counter, gauge or histogram name
// starts with one of the prefixes.
func hasMetricPrefix(s Snapshot, prefixes []string) bool {
	match := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for name := range s.Counters {
		if match(name) {
			return true
		}
	}
	for name := range s.Gauges {
		if match(name) {
			return true
		}
	}
	for name := range s.Histograms {
		if match(name) {
			return true
		}
	}
	return false
}

func validateSpan(s SpanSnapshot, parent string) error {
	if s.Name == "" {
		return fmt.Errorf("run report: unnamed span under %q", parent)
	}
	if s.DurNs < 0 {
		return fmt.Errorf("run report: span %q has negative duration", s.Name)
	}
	for _, c := range s.Children {
		if c.Parent != "" && s.SpanID != "" && c.Parent != s.SpanID {
			return fmt.Errorf("run report: span %q parent_id %s does not link to %q (%s)",
				c.Name, c.Parent, s.Name, s.SpanID)
		}
		if c.TraceID != "" && s.TraceID != "" && c.TraceID != s.TraceID {
			return fmt.Errorf("run report: span %q trace_id differs from parent %q", c.Name, s.Name)
		}
		if err := validateSpan(c, s.Name); err != nil {
			return err
		}
	}
	return nil
}
