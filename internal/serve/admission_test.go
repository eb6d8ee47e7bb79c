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

// TestServeSweepRefusesHostileLadder: a 256-entry grid is admissible on
// its own, but crossed with a 65536-entry ladder it asks for 2^24
// answers. Admission sizes the product before building either axis and
// answers 400 invalid_request within milliseconds — for an explicit size
// list and for a range alike.
func TestServeSweepRefusesHostileLadder(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxProblemSize: 1 << 16})
	grid := `"cache_sizes":[1024,2048,3072,4096,5120,6144,7168,8192,9216,10240,11264,12288,13312,14336,15360,16384],` +
		`"line_sizes":[32,64,128,256],"assocs":[1,2,4,8],"exact":true`
	ns := "[" + strings.TrimSuffix(strings.Repeat("64,", 1<<16), ",") + "]"
	for name, ladder := range map[string]string{
		"ns":    `"ns":` + ns,
		"range": `"from":1,"to":65536,"step":1`,
	} {
		start := time.Now()
		code, m := postJSON(t, ts, "/v1/sweep", `{"program":"hydro",`+grid+`,`+ladder+`}`)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %v", name, code, m)
		}
		e, _ := m["error"].(map[string]any)
		if msg, _ := e["message"].(string); e["kind"] != kindInvalid || !strings.Contains(msg, "16×4×4×1 × 65536 ladder sizes exceeds") {
			t.Fatalf("%s: error %v, want %s naming the product", name, e, kindInvalid)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: refusal took %v", name, d)
		}
	}
}
