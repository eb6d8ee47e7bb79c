package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary impersonate the cachette CLI: when
// re-executed with CACHETTE_BE_CLI=1 it runs main() instead of the tests,
// so the os/exec tests below exercise the real binary entry point —
// including flag parsing and signal handling — without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("CACHETTE_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCommand builds an exec.Cmd that re-runs this test binary as the CLI.
func cliCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CACHETTE_BE_CLI=1")
	return cmd
}

// TestServeCLISigtermDrain runs `cachette serve` as a real process, does
// one analysis over HTTP, then sends SIGTERM and verifies the graceful
// drain contract: clean exit status, the result cache flushed to disk,
// and the run report written.
func TestServeCLISigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server process")
	}
	dir := t.TempDir()
	rcPath := filepath.Join(dir, "rc.json")
	obsPath := filepath.Join(dir, "serve-report.json")

	cmd := cliCommand(t, "serve", "-addr", "127.0.0.1:0", "-drain-timeout", "10s",
		"-resultcache", rcPath, "-obs-out", obsPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	defer cmd.Process.Kill()

	// Scan stderr for the resolved listen address, then keep draining the
	// pipe so the child never blocks on a full buffer.
	addrCh := make(chan string, 1)
	logCh := make(chan string, 1)
	go func() {
		var lines strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			lines.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "cachette serve: listening on http://"); ok {
				addrCh <- rest
			}
		}
		logCh <- lines.String()
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its listen address")
	}

	// One end-to-end analysis through the real process.
	resp, err := http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"program":"hydro","size":24}`))
	if err != nil {
		t.Fatalf("POST analyze: %v", err)
	}
	var sub struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Job == "" {
		t.Fatalf("submit: status %d job %q", resp.StatusCode, sub.Job)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.Job)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var jb struct {
			Status string `json:"status"`
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		json.Unmarshal(blob, &jb)
		if jb.Status == "done" {
			break
		}
		if jb.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (%s)", sub.Job, jb.Status, blob)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM → graceful drain → clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("serve exited dirty after SIGTERM: %v\nstderr:\n%s", err, <-logCh)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not exit within 30s of SIGTERM")
	}
	logs := <-logCh
	if !strings.Contains(logs, "drained") {
		t.Errorf("drain never logged:\n%s", logs)
	}

	// The drain flushed a valid checksummed store and wrote the report.
	blob, err := os.ReadFile(rcPath)
	if err != nil {
		t.Fatalf("result cache not flushed: %v", err)
	}
	var store struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &store); err != nil || store.Schema == "" {
		t.Fatalf("flushed store malformed: %v (schema %q)", err, store.Schema)
	}
	rep, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatalf("run report not written: %v", err)
	}
	if !strings.Contains(string(rep), `"jobs"`) || !strings.Contains(string(rep), `"completed": 1`) {
		t.Fatalf("run report missing job outcomes:\n%s", rep)
	}
}

// TestCLIListRuns sanity-checks the re-exec harness on a trivial
// subcommand.
func TestCLIListRuns(t *testing.T) {
	out, err := cliCommand(t, "list").CombinedOutput()
	if err != nil {
		t.Fatalf("list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hydro") {
		t.Fatalf("list output missing built-ins:\n%s", out)
	}
}

// TestCLISimulateNegativeAddresses: a reference below an array's first
// element touches negative addresses. simulate maps them to floor lines
// and non-negative sets instead of panicking, sequentially and sharded,
// and agrees with an exact analyze on the miss count.
func TestCLISimulateNegativeAddresses(t *testing.T) {
	src := filepath.Join(t.TempDir(), "negt.f")
	if err := os.WriteFile(src, []byte(`      SUBROUTINE NEGT
      REAL*8 A(N), B(N)
      DO T = 1, 2
      DO I = 1, N
        B(I) = A(I-5) + A(I)
      ENDDO
      ENDDO
      END
`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-file", src, "-const", "N=64", "-cache", "768", "-line", "32", "-assoc", "1"}
	misses := func(re *regexp.Regexp, cmd ...string) string {
		out, err := cliCommand(t, append(cmd, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", cmd, err, out)
		}
		m := re.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s printed no miss count:\n%s", cmd, out)
		}
		return string(m[1])
	}
	sim := regexp.MustCompile(`misses: ([0-9]+)`)
	want := misses(regexp.MustCompile(`estimated misses: ([0-9]+)`), "analyze", "-exact")
	for _, cmd := range [][]string{{"simulate"}, {"simulate", "-workers", "2"}} {
		if got := misses(sim, cmd...); got != want {
			t.Errorf("%s: %s misses, exact analyze %s", cmd, got, want)
		}
	}
}

// TestCLIDiagnoseMatchesAnalyze: diagnose is analyze's sampled solve with
// attribution, so both print the same miss ratio for the same program,
// cache and plan.
func TestCLIDiagnoseMatchesAnalyze(t *testing.T) {
	args := []string{"-program", "hydro", "-size", "32", "-iters", "2", "-cache", "4096", "-line", "32", "-assoc", "1"}
	ratio := func(cmd string, re *regexp.Regexp) string {
		out, err := cliCommand(t, append([]string{cmd}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", cmd, err, out)
		}
		m := re.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s printed no miss ratio:\n%s", cmd, out)
		}
		return string(m[1])
	}
	a := ratio("analyze", regexp.MustCompile(`miss ratio: ([0-9.]+)%`))
	d := ratio("diagnose", regexp.MustCompile(`miss ratio ([0-9.]+)%`))
	if a != d {
		t.Errorf("analyze prints %s%%, diagnose %s%%", a, d)
	}
}

// TestCLIScalingClosedForm runs `sweep` with a size ladder end to end on
// one geometry and checks it reports full closed-form coverage, one
// labelled row per ladder size in the JSON report. The removed `scaling`
// subcommand is unknown.
func TestCLIScalingClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a CLI process")
	}
	outPath := filepath.Join(t.TempDir(), "ladder.json")
	out, err := cliCommand(t, "sweep", "-exact", "-program", "hydro",
		"-sizes", "256", "-lines", "32", "-assocs", "1",
		"-from", "128", "-to", "224", "-step", "32", "-refs", "-out", outPath).CombinedOutput()
	if err != nil {
		t.Fatalf("sweep ladder: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "closed form: period") {
		t.Fatalf("no closed-form summary:\n%s", s)
	}
	if !strings.Contains(s, "0 fall-through(s)") {
		t.Fatalf("expected the whole ladder in closed form:\n%s", s)
	}
	if !strings.Contains(s, "per-reference closed forms") {
		t.Fatalf("-refs printed no closed forms:\n%s", s)
	}
	var rep struct {
		Results []struct {
			Label      string `json:"label"`
			N          int64  `json:"n"`
			ClosedForm bool   `json:"closed_form"`
		} `json:"results"`
	}
	if blob, err := os.ReadFile(outPath); err != nil || json.Unmarshal(blob, &rep) != nil {
		t.Fatalf("report unreadable: %v", err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("%d rows, want 4: %+v", len(rep.Results), rep.Results)
	}
	for i, r := range rep.Results {
		n := int64(128 + 32*i)
		if r.Label != fmt.Sprintf("256B/32B/direct N=%d", n) || r.N != n || !r.ClosedForm {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
	if out, err := cliCommand(t, "scaling", "-program", "hydro").CombinedOutput(); err == nil {
		t.Fatalf("scaling subcommand still runs:\n%s", out)
	}
}

// TestCLIScalingLadderCap: a size ladder is sized before it is built, so
// a huge or wrapping range and sizes below 1 fail promptly with a non-zero
// exit instead of looping or allocating. An empty sweep axis fails the
// same way rather than running the default grid, and so does a flag that
// means nothing with (or without) a ladder.
func TestCLIScalingLadderCap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns CLI processes")
	}
	ladder := []string{"sweep", "-exact", "-sizes", "256", "-lines", "32", "-assocs", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append(ladder, "-from", "1", "-to", "9223372036854775807", "-step", "1"), "(max 65536)"},
		{[]string{"bench", "-scaling", "-from", "1", "-to", "100000000", "-step", "1"}, "(max 65536)"},
		{append(ladder, "-from", "0", "-to", "64", "-step", "8"), "bad ladder"},
		{append(ladder, "-ns", "64,0"), "sizes must be >= 1"},
		{[]string{"sweep", "-exact", "-sizes", "4096,8192", "-lines", "32,64", "-from", "1", "-to", "65536", "-step", "1"}, "(max 65536)"},
		{[]string{"sweep", "-ns", "64"}, "needs -exact"},
		{append(ladder, "-ns", "64", "-check", "-sim"), "-check, -sim mean nothing"},
		{append(ladder, "-ns", "64", "-pad-array", "ZA"), "-pad-array mean nothing"},
		{append(ladder, "-ns", "64", "-geom-bench"), "-geom-bench mean nothing"},
		{[]string{"sweep", "-size", "8", "-refs"}, "-refs need a problem-size ladder"},
		{[]string{"sweep", "-size", "8", "-sizes", ","}, "empty candidate grid"},
		{[]string{"sweep", "-size", "8", "-assocs", ""}, "empty candidate grid"},
	} {
		cmd := cliCommand(t, tc.args...)
		start := time.Now()
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%v: exit 0, want an argument error\n%s", tc.args, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%v: took %v to reject the arguments", tc.args, d)
		}
	}
}

// TestCLIBenchScalingCheck runs `bench -scaling -check`: the match check
// inside the process gates on bit-identity between the closed form and
// the enumerating solver, so a clean exit plus a sane JSON is the test.
// The run report from -obs-out must pass obscheck and show the size
// tier's counters.
func TestCLIBenchScalingCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a CLI process")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_scaling.json")
	obsPath := filepath.Join(dir, "scaling-run.json")
	out, err := cliCommand(t, "bench", "-scaling", "-program", "hydro",
		"-cache", "256", "-line", "32", "-assoc", "1",
		"-from", "128", "-to", "224", "-step", "32",
		"-check", "-out", outPath, "-obs-out", obsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("bench -scaling: %v\n%s", err, out)
	}
	if out, err := cliCommand(t, "obscheck", obsPath).CombinedOutput(); err != nil {
		t.Fatalf("obscheck rejected the bench -scaling run report: %v\n%s", err, out)
	}
	var run struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if blob, err := os.ReadFile(obsPath); err != nil || json.Unmarshal(blob, &run) != nil {
		t.Fatalf("run report unreadable: %v", err)
	}
	if c := run.Metrics.Counters; c["cme_scaling_closed_evals_total"] != 4 || c["cme_scaling_residue_fits_total"] == 0 {
		t.Fatalf("run report size-tier counters: %v", c)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var rep struct {
		Speedup float64 `json:"speedup"`
		Rows    []struct {
			ClosedForm bool `json:"closed_form"`
			Match      bool `json:"match"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("artifact malformed: %v\n%s", err, blob)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4\n%s", len(rep.Rows), blob)
	}
	for i, r := range rep.Rows {
		if !r.ClosedForm || !r.Match {
			t.Fatalf("row %d: closed_form=%v match=%v\n%s", i, r.ClosedForm, r.Match, blob)
		}
	}
}

// TestCLIAnalyzeSigintPartial verifies that every subcommand's signal
// context now covers SIGTERM: an analyze interrupted by SIGTERM exits
// through the cancellation path (typed error, non-zero exit) instead of
// being killed by the default handler mid-write.
func TestCLIAnalyzeSigintPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a CLI process")
	}
	// A long-running exact analysis so the signal lands mid-solve.
	cmd := cliCommand(t, "analyze", "-program", "tomcatv", "-size", "200", "-iters", "4", "-exact")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start analyze: %v", err)
	}
	defer cmd.Process.Kill()
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		var ee *exec.ExitError
		if err == nil {
			// The solve finished before the signal landed; nothing to assert.
			t.Skip("analysis completed before SIGTERM")
		}
		if !errorsAs(err, &ee) {
			t.Fatalf("analyze died abnormally: %v\n%s", err, out.String())
		}
		// Exit code 1 is the typed-error path through main; being killed by
		// the signal (ExitCode -1) would mean the handler never engaged.
		if ee.ExitCode() != 1 {
			t.Fatalf("exit code %d, want 1 (typed cancellation)\n%s", ee.ExitCode(), out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("analyze ignored SIGTERM")
	}
	if !strings.Contains(out.String(), "cancel") {
		t.Errorf("no cancellation diagnostic in output:\n%s", out.String())
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **exec.ExitError) bool {
	if ee, ok := err.(*exec.ExitError); ok {
		*target = ee
		return true
	}
	return false
}

// TestDistCLICoordinateAndWork drives the distributed sweep commands as
// real processes: one coordinator, two workers, one of which is
// SIGKILLed mid-run and replaced. The coordinator must exit clean with
// its -check bit-identity gate on, write the merged report, and record
// dist outcomes in the run report.
func TestDistCLICoordinateAndWork(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator and worker processes")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")
	obsPath := filepath.Join(dir, "run.json")

	coord := cliCommand(t, "dist", "coordinate", "-addr", "127.0.0.1:0",
		"-program", "hydro", "-size", "12", "-sizes", "1024,2048,4096,8192",
		"-lines", "32,64", "-assocs", "1,2", "-exact", "-check", "-lease-ttl", "1s",
		"-linger", "10s", "-out", outPath, "-obs-out", obsPath)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("start coordinate: %v", err)
	}
	defer coord.Process.Kill()

	addrCh := make(chan string, 1)
	logCh := make(chan string, 1)
	go func() {
		var lines strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			lines.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "cachette dist: coordinating on "); ok {
				addrCh <- rest
			}
		}
		logCh <- lines.String()
	}()
	var base string
	select {
	case base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never announced its address")
	}

	worker := func(id string) *exec.Cmd {
		w := cliCommand(t, "dist", "work", "-coordinator", base, "-id", id,
			"-poll", "50ms", "-resultcache", filepath.Join(dir, id+".rc.json"))
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("start worker %s: %v", id, err)
		}
		return w
	}
	victim := worker("victim")
	survivor := worker("survivor")

	// SIGKILL the victim shortly into the run — whatever it holds leased
	// expires and is stolen; the survivor and the replacement finish the
	// sweep either way.
	time.Sleep(300 * time.Millisecond)
	victim.Process.Kill()
	victim.Wait()
	replacement := worker("replacement")

	waitClean := func(name string, cmd *exec.Cmd) {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s exited dirty: %v", name, err)
			}
		case <-time.After(90 * time.Second):
			t.Fatalf("%s did not exit", name)
		}
	}
	waitClean("survivor", survivor)
	waitClean("replacement", replacement)
	waitClean("coordinator", coord)
	logs := <-logCh
	if !strings.Contains(logs, "-check ok") {
		t.Errorf("bit-identity check never logged:\n%s", logs)
	}

	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("merged report not written: %v", err)
	}
	var rep struct {
		Rows  []struct{ Error string } `json:"rows"`
		Stats struct {
			UnitsDone int `json:"units_done"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("merged report malformed: %v", err)
	}
	// The exact 4-size × 2-line × 2-assoc grid packs into 2 units, one
	// per line size (see dist line-size units).
	if len(rep.Rows) != 16 || rep.Stats.UnitsDone != 2 {
		t.Fatalf("report has %d rows, %d units done; want 16 rows / 2 line-size units\n%s", len(rep.Rows), rep.Stats.UnitsDone, blob)
	}
	rr, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatalf("run report not written: %v", err)
	}
	if !strings.Contains(string(rr), `"dist"`) {
		t.Fatalf("run report missing dist outcomes:\n%s", rr)
	}
}
