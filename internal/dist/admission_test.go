package dist

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestAddSweepRefusesHostileGrid: three 1000-entry axes (a body of about
// 15 KB) ask for 10^9 candidates. The coordinator must refuse the grid
// against MaxCandidates before materialising it, in milliseconds.
func TestAddSweepRefusesHostileGrid(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	axis := func() []int64 {
		out := make([]int64, 1000)
		for i := range out {
			out[i] = int64(1024 * (i + 1))
		}
		return out
	}
	assocs := make([]int, 1000)
	for i := range assocs {
		assocs[i] = i + 1
	}
	sw := &SweepSpec{
		ProgramSpec: ProgramSpec{Program: "hydro", Size: 12},
		SolveSpec:   SolveSpec{Exact: true},
		CacheSizes:  axis(),
		LineSizes:   axis(),
		Assocs:      assocs,
	}
	start := time.Now()
	if _, err := c.AddSweep(context.Background(), sw); err == nil {
		t.Fatal("AddSweep admitted a 10^9-candidate grid")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v", d)
	}
}

// TestSweepRefusesRemovedPartitionKnobs: the partition is one rule, so
// the strict decoder answers 400 to the retired unit_size and
// no_column_units fields instead of ignoring them.
func TestSweepRefusesRemovedPartitionKnobs(t *testing.T) {
	_, srv := newTestCoordinator(t, Options{})
	for _, field := range []string{`"unit_size":2`, `"no_column_units":true`} {
		body := `{"program":"hydro","size":12,"exact":true,` + field + `}`
		resp, err := http.Post(srv.URL+"/v1/dist/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, resp.StatusCode)
		}
	}
}
