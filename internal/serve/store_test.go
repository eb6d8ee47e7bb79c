//go:build go1.24

package serve

import (
	"runtime"
	"testing"
	"weak"

	"cachemodel/internal/obs"
	"cachemodel/internal/spec"
)

// TestServeRepeatedAnalyzePreparesOnce: a repeated /v1/analyze of one
// program builds its Prepared once; every later admission and attempt
// finds it in the process's store.
func TestServeRepeatedAnalyzePreparesOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	misses := obs.Default.Counter("spec_prepared_misses_total")
	hits := obs.Default.Counter("spec_prepared_hits_total")
	missesBefore, hitsBefore := misses.Value(), hits.Value()
	const body = `{"program":"hydro","size":21,"iters":3}`
	for range 2 {
		if jb := waitTerminal(t, ts, submitJob(t, ts, "/v1/analyze", body)); jb.Status != StatusDone {
			t.Fatalf("status %s result %+v", jb.Status, jb.Result)
		}
	}
	if n := misses.Value() - missesBefore; n != 1 {
		t.Fatalf("two analyses of one program prepared it %d times, want 1", n)
	}
	// Two admissions and two attempts: one miss, three hits.
	if n := hits.Value() - hitsBefore; n != 3 {
		t.Fatalf("%d store hits, want 3", n)
	}
}

// TestServeEvictedPreparedCollectable: finished jobs stay in the job
// table, but they keep the program's spec, not its Prepared, so a program
// evicted from the store after its jobs finish can be collected.
func TestServeEvictedPreparedCollectable(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	const body = `{"program":"hydro","size":19,"iters":3}`
	for range 2 {
		if jb := waitTerminal(t, ts, submitJob(t, ts, "/v1/analyze", body)); jb.Status != StatusDone {
			t.Fatalf("status %s result %+v", jb.Status, jb.Result)
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n < 2 {
		t.Fatalf("job table holds %d jobs, want the 2 finished ones", n)
	}
	prep, err := (&spec.Program{Program: "hydro", Size: 19, Iters: 3}).Prepared(spec.Limits{}, false)
	if err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(prep)
	prep = nil
	// Light programs push it out through the entry bound.
	for i := range spec.StoreEntries {
		if _, err := (&spec.Program{Program: "mmjki", Size: int64(100 + i)}).Prepared(spec.Limits{}, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an evicted Prepared is still reachable after its jobs finished")
	}
}
