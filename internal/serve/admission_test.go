package serve

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeSweepRefusesHostileGrid: four 65536-entry axes (a body of about
// 512 KiB, inside the decode limit) multiply to 2^64 candidates, which
// wraps a plain int product to 0. Admission must size the grid without
// overflowing and answer 400 invalid_request before allocating anything.
func TestServeSweepRefusesHostileGrid(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	axis := "[" + strings.TrimSuffix(strings.Repeat("1,", 1<<16), ",") + "]"
	body := `{"program":"hydro","cache_sizes":` + axis + `,"line_sizes":` + axis +
		`,"assocs":` + axis + `,"pad_array":"ZA","pads":` + axis + `}`
	start := time.Now()
	code, m := postJSON(t, ts, "/v1/sweep", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, body %v", code, m)
	}
	e, _ := m["error"].(map[string]any)
	if e["kind"] != kindInvalid {
		t.Fatalf("error kind %v, want %s (body %v)", e["kind"], kindInvalid, m)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("refusal took %v", d)
	}
}
