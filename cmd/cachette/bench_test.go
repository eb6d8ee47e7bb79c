package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPinnedSolverArtifacts: every committed solver bench artifact is the
// run of its pinned command. A local bench of another fixture written
// over it, or a pin changed without regenerating it, breaks the
// trajectory the artifacts record, and fails here.
func TestPinnedSolverArtifacts(t *testing.T) {
	for _, pb := range pinnedBenches {
		blob, err := os.ReadFile(filepath.Join("..", "..", pb.Path))
		if err != nil {
			t.Fatalf("%s: %v", pb.Path, err)
		}
		var rep benchReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatalf("%s: %v", pb.Path, err)
		}
		got := pinnedBench{Path: pb.Path, Command: pb.Command, Program: rep.Program, Cache: rep.Cache,
			Size: rep.Size, Iters: rep.Iters, Repeat: rep.Repeat}
		if got != pb {
			t.Errorf("%s holds %+v, want the pinned fixture %+v", pb.Path, got, pb)
		}
		if rep.Command != pb.Command {
			t.Errorf("%s was written by %q, want %q", pb.Path, rep.Command, pb.Command)
		}
		if len(rep.Results) == 0 {
			t.Errorf("%s has no result rows", pb.Path)
		}
	}
}

// TestCLIBenchWritesOnlyPinnedCommand: the pinned Tomcatv flags without
// -check are not the pinned command, so the report goes to stdout and no
// artifact is written; the pinned command itself writes its artifact.
func TestCLIBenchWritesOnlyPinnedCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a CLI process")
	}
	pb := pinnedBenches[0]
	dir := t.TempDir()
	args := strings.Fields(pb.Command)[1:]
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
		var rep benchReport
		if err := json.Unmarshal(out, &rep); err != nil || rep.Command != "cachette "+strings.Join(run.args, " ") {
			t.Fatalf("%v: stdout report command %q (%v)", run.args, rep.Command, err)
		}
		_, err = os.Stat(filepath.Join(dir, pb.Path))
		if wrote := err == nil; wrote != run.wrote {
			t.Fatalf("%v: wrote %s = %v, want %v", run.args, pb.Path, wrote, run.wrote)
		}
	}
}
