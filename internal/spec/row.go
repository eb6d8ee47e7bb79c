package spec

import (
	"errors"

	"cachemodel/internal/cme"
)

// RefRow is the per-reference answer row: the raw counts, so bit-identity
// between two answers is checkable from the wire alone. A bounded
// reference's misses lie in [cold+repl, cold+repl+volume−analyzed].
type RefRow struct {
	ID       string `json:"id"`
	Volume   int64  `json:"volume"`
	Analyzed int64  `json:"analyzed"`
	Hits     int64  `json:"hits"`
	Cold     int64  `json:"cold"`
	Repl     int64  `json:"repl"`
	Tier     string `json:"tier"`
	// ClosedForm marks counts evaluated from a closed form rather than
	// an enumerating solve of this candidate.
	ClosedForm bool `json:"closed_form,omitempty"`
}

// Row is one candidate's answer with its provenance: the row shape of
// POST /v1/analyze, /v1/sweep and the dist merged report alike. It
// carries no timing or budget-spend field, so everything in a Row is
// deterministic for an unbudgeted solve and two answers compare as bytes.
type Row struct {
	Label           string   `json:"label"`
	CacheBytes      int64    `json:"cache_bytes"`
	LineBytes       int64    `json:"line_bytes"`
	Assoc           int      `json:"assoc"`
	MissRatioPct    float64  `json:"miss_ratio_pct"`
	EstimatedMisses float64  `json:"estimated_misses"`
	Accesses        int64    `json:"accesses"`
	Tier            string   `json:"tier,omitempty"`
	Degraded        bool     `json:"degraded,omitempty"`
	Coverage        float64  `json:"coverage,omitempty"`
	Refs            []RefRow `json:"refs,omitempty"`
	Error           string   `json:"error,omitempty"`
	// Closed-form provenance (cme.ClosedInfo), set by the problem-size
	// tier (ladders) or the set-count tier (exact grids): whether the
	// candidate was answered in closed form, how many references were
	// covered, whether it was solved by enumeration as an anchor, and why
	// it was not answered in closed form.
	ClosedForm     bool   `json:"closed_form,omitempty"`
	ClosedFormRefs int    `json:"closed_form_refs,omitempty"`
	ClosedAnchor   bool   `json:"closed_anchor,omitempty"`
	ClosedWhy      string `json:"closed_why,omitempty"`
	// Pruned marks a candidate a dist sweep's advisor frontier pass
	// eliminated: the ratio is the cheap-tier estimate, and no exact
	// solve was spent.
	Pruned bool `json:"pruned,omitempty"`
}

// RowOf is c's row before any answer: its label and geometry.
func RowOf(c cme.Candidate) Row {
	return Row{Label: c.Label, CacheBytes: c.Config.SizeBytes, LineBytes: c.Config.LineBytes, Assoc: c.Config.Assoc}
}

// Rows renders a solve outcome into answer rows, index-aligned with cands:
// err is the solve's error as returned, per-candidate failures
// (*cme.BatchError) included. It is the one renderer every front door
// shares, so "the same answer" is a byte comparison of its rows.
func Rows(cands []cme.Candidate, reps []*cme.Report, err error) []Row {
	var batch *cme.BatchError
	errors.As(err, &batch)
	rows := make([]Row, len(cands))
	for i, c := range cands {
		row := RowOf(c)
		var rep *cme.Report
		if i < len(reps) {
			rep = reps[i]
		}
		switch {
		case rep != nil:
			fill(&row, rep)
		case batch != nil && batch.Errs[i] != nil:
			// Strip the solver's "candidate %d (label): " wrapper: the
			// index is batch-local, so it would differ between a dist
			// unit's sub-batch and the whole grid's batch. One unwrap
			// removes exactly that layer.
			e := batch.Errs[i]
			if u := errors.Unwrap(e); u != nil {
				e = u
			}
			row.Error = e.Error()
		case err != nil:
			row.Error = err.Error()
		default:
			row.Error = "no report"
		}
		rows[i] = row
	}
	return rows
}

// fill copies rep's answer and provenance into row.
func fill(row *Row, rep *cme.Report) {
	row.MissRatioPct = rep.MissRatio()
	row.EstimatedMisses = rep.EstimatedMisses()
	row.Accesses = rep.TotalAccesses()
	row.Tier = rep.Tier.String()
	row.Degraded = rep.Degraded
	row.Coverage = rep.Coverage()
	ci := rep.Scaling
	if ci == nil {
		ci = rep.Geom
	}
	if ci != nil {
		row.ClosedForm = ci.Closed()
		row.ClosedFormRefs = ci.ClosedRefs
		row.ClosedAnchor = ci.Anchor
		row.ClosedWhy = ci.Why
	}
	for _, rr := range rep.Refs {
		row.Refs = append(row.Refs, RefRow{ID: rr.Ref.ID, Volume: rr.Volume, Analyzed: rr.Analyzed,
			Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl,
			Tier: rr.Tier.String(), ClosedForm: rr.ClosedForm})
	}
}
