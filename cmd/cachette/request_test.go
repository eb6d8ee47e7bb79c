package main

import (
	"flag"
	"strings"
	"testing"

	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
)

// TestSameCounts pins what every -check rejects: any difference in the
// six per-reference counts, a missing report, a missing, replaced or
// reordered reference, and a count swapped between two references that
// share an ID.
func TestSameCounts(t *testing.T) {
	ref := func(id string, hits, cold int64) *cme.RefReport {
		return &cme.RefReport{Ref: &ir.NRef{ID: id}, Volume: 10, Analyzed: 10, Hits: hits, Cold: cold, Repl: 10 - hits - cold}
	}
	report := func(refs ...*cme.RefReport) *cme.Report { return &cme.Report{Refs: refs} }
	want := report(ref("S1/A#0", 8, 2), ref("S1/A#0", 5, 5), ref("S2/B#0", 9, 1))

	for name, tc := range map[string]struct {
		got  *cme.Report
		fail string
	}{
		"identical":              {got: report(ref("S1/A#0", 8, 2), ref("S1/A#0", 5, 5), ref("S2/B#0", 9, 1))},
		"distinct IDs reordered": {got: report(ref("S2/B#0", 9, 1), ref("S1/A#0", 8, 2), ref("S1/A#0", 5, 5)), fail: "ref S1/A#0 diverged: got {S2/B#0"},
		"count diverged":         {got: report(ref("S1/A#0", 8, 2), ref("S1/A#0", 5, 5), ref("S2/B#0", 8, 1)), fail: "ref S2/B#0 diverged"},
		"duplicate IDs swapped":  {got: report(ref("S1/A#0", 5, 5), ref("S1/A#0", 8, 2), ref("S2/B#0", 9, 1)), fail: "ref S1/A#0 diverged"},
		"reference replaced":     {got: report(ref("S1/A#0", 8, 2), ref("S3/C#0", 5, 5), ref("S2/B#0", 9, 1)), fail: "ref S1/A#0 diverged: got {S3/C#0"},
		"fewer references":       {got: report(ref("S1/A#0", 8, 2)), fail: "1 refs vs 3"},
		"no report":              {fail: "missing report"},
	} {
		err := sameCounts("check "+name, want, tc.got)
		if tc.fail == "" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.fail) || !strings.HasPrefix(err.Error(), "check "+name+": ") {
			t.Errorf("%s: err %v, want %q", name, err, tc.fail)
		}
	}
}

// TestProgramFlagsLocal pins that a typed -size or -iters below 1 is an
// error for an in-process run, while the wire form (dist coordinate)
// keeps zero as "the default".
func TestProgramFlagsLocal(t *testing.T) {
	for _, tc := range []struct {
		args []string
		fail string
	}{
		{args: nil},
		{args: []string{"-size", "0"}, fail: "-size 0"},
		{args: []string{"-size", "-3"}, fail: "-size -3"},
		{args: []string{"-iters", "0"}, fail: "-iters 0"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		pf := addProgramFlags(fs, "tomcatv", 16, 1)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := pf.local()
		if tc.fail == "" && err != nil || tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)) {
			t.Errorf("%v: local() err %v, want %q", tc.args, err, tc.fail)
		}
		if _, err := pf.request(); err != nil {
			t.Errorf("%v: request() err %v", tc.args, err)
		}
	}
	// Without a -size flag (scaling) only -iters is checked.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	if _, err := addProgramFlags(fs, "tomcatv", 0, 1).local(); err != nil {
		t.Errorf("no -size flag: %v", err)
	}
}
