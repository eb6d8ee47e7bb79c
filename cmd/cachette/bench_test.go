package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPinnedArtifacts: every committed bench artifact is the run of its
// pinned command. A local bench of another fixture written over it, or a
// pin changed without regenerating it, breaks the trajectory the
// artifacts record, and fails here.
func TestPinnedArtifacts(t *testing.T) {
	for _, pb := range pinnedBenches {
		blob, err := os.ReadFile(filepath.Join("..", "..", pb.Path))
		if err != nil {
			t.Fatalf("%s: %v", pb.Path, err)
		}
		var doc struct {
			benchHeader
			Results []json.RawMessage `json:"results"`
			Rows    []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("%s: %v", pb.Path, err)
		}
		got := doc.benchHeader
		got.GoMaxProcs = 0
		if got != pb.Header {
			t.Errorf("%s holds %+v, want the pinned run %+v", pb.Path, got, pb.Header)
		}
		if len(doc.Results) == 0 && len(doc.Rows) == 0 {
			t.Errorf("%s has no result rows", pb.Path)
		}
	}
}

// pinned returns the pin of the artifact at path.
func pinned(t *testing.T, path string) pinnedBench {
	for _, pb := range pinnedBenches {
		if pb.Path == path {
			return pb
		}
	}
	t.Fatalf("no pin writes %s", path)
	return pinnedBench{}
}

// TestCLIBenchWritesOnlyPinnedCommand: a pin's flags without -check are
// not the pinned command, so the report goes to stdout and no artifact is
// written; the pinned command itself writes its artifact.
func TestCLIBenchWritesOnlyPinnedCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a CLI process")
	}
	for _, path := range []string{"BENCH_solvers.json", "BENCH_sweep.json"} {
		pb := pinned(t, path)
		dir := t.TempDir()
		args := strings.Fields(pb.Header.Command)[1:]
		if args[len(args)-1] != "-check" {
			t.Fatalf("%s: pin %q does not end in -check", path, pb.Header.Command)
		}
		for _, run := range []struct {
			args  []string
			wrote bool
		}{{args[:len(args)-1], false}, {args, true}} {
			cmd := cliCommand(t, run.args...)
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v", run.args, err)
			}
			var rep benchHeader
			if err := json.Unmarshal(out, &rep); err != nil || rep.Command != "cachette "+strings.Join(run.args, " ") {
				t.Fatalf("%v: stdout report command %q (%v)", run.args, rep.Command, err)
			}
			_, err = os.Stat(filepath.Join(dir, pb.Path))
			if wrote := err == nil; wrote != run.wrote {
				t.Fatalf("%v: wrote %s = %v, want %v", run.args, pb.Path, wrote, run.wrote)
			}
		}
	}
}

// TestCLIRunsWithoutOutWriteNothing: a sweep, and a bench that is not a
// pin, leave their working directory as they found it unless -out names a
// file.
func TestCLIRunsWithoutOutWriteNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns CLI processes")
	}
	for _, args := range [][]string{
		{"sweep", "-program", "lk18", "-size", "64"},
		{"bench", "-scaling", "-program", "hydro", "-iters", "1", "-cache", "256", "-line", "32", "-assoc", "1",
			"-from", "192", "-to", "256", "-step", "64"},
	} {
		dir := t.TempDir()
		cmd := cliCommand(t, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("%v wrote %s", args, e.Name())
		}
	}
}
