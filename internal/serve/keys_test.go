package serve

import "testing"

// TestSweepResultKeyPinned pins the content address (Result.Key) of one
// fixed sweep request, exact and sampled, so a change to how requests
// become candidate grids cannot silently invalidate persisted result
// caches or singleflight identities. The expected values were recorded
// before grids moved into internal/spec and must not change.
func TestSweepResultKeyPinned(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, tc := range []struct{ body, key string }{
		{`{"program":"hydro","size":12,"cache_sizes":[2048,4096],"line_sizes":[32],"assocs":[1,2],"pad_array":"ZA","pads":[0,3],"exact":true}`,
			"720d0ddadb59bcfa024da87cdd8ddd19a68a739601bb42d84a3b459c3c0c3e62"},
		{`{"program":"hydro","size":12,"cache_sizes":[2048,4096],"line_sizes":[32],"assocs":[1,2]}`,
			"b5aaac92cb33b1ae9ea2b4ff9ad2369198f1e6559af17eedbd4aa7623e47ff0f"},
	} {
		jb := waitTerminal(t, ts, submitJob(t, ts, "/v1/sweep", tc.body))
		if jb.Status != StatusDone || jb.Result == nil {
			t.Fatalf("%s: status %s", tc.body, jb.Status)
		}
		if jb.Result.Key != tc.key {
			t.Errorf("%s: key %s, want %s", tc.body, jb.Result.Key, tc.key)
		}
	}
}
