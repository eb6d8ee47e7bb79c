package spec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
)

// prepareFor builds the baseline Prepared of a built-in kernel, outside
// any store.
func prepareFor(t *testing.T, name string, size int64) func() (*cme.Prepared, error) {
	return func() (*cme.Prepared, error) {
		np, err := (&Program{Program: name, Size: size}).Prepare(Limits{})
		if err != nil {
			t.Error(err)
			return nil, err
		}
		return cme.Prepare(np, cme.Options{})
	}
}

// solveLine32 makes p build its 32-byte-line reuse vectors.
func solveLine32(t *testing.T, p *cme.Prepared) {
	t.Helper()
	plan, err := Plan(false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := []cme.Candidate{{Label: "1KB", Config: cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}}}
	if _, err := p.SolveBatch(context.Background(), cands, cme.BatchOptions{Plan: plan}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEvictsLeastRecentlyUsed: past its entry bound the store drops
// the least recently used program, and a hit refreshes an entry.
func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	s := newPreparedStore(3, 1<<40)
	get := func(size int64) *cme.Prepared {
		p, err := s.get(fmt.Sprint(size), prepareFor(t, "mmjki", size))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := get(8)
	get(9)
	get(10)
	if get(8) != first {
		t.Fatal("a hit rebuilt the program")
	}
	get(11) // evicts 9, the least recently used
	for key, want := range map[string]bool{"8": true, "9": false, "10": true, "11": true} {
		if _, ok := s.entries[key]; ok != want {
			t.Errorf("entry %s present %v, want %v", key, ok, want)
		}
	}
}

// TestStoreBoundsVectors: past its vector bound the store evicts the
// least recently used programs, but never the one just used, however
// heavy.
func TestStoreBoundsVectors(t *testing.T) {
	s := newPreparedStore(16, 1)
	heavy, err := s.get("hydro", prepareFor(t, "hydro", 16))
	if err != nil {
		t.Fatal(err)
	}
	solveLine32(t, heavy)
	if heavy.VectorCount() <= 1 {
		t.Fatalf("hydro holds %d reuse vectors, want more than the bound", heavy.VectorCount())
	}
	if again, _ := s.get("hydro", nil); again != heavy {
		t.Fatal("the store dropped the entry just used")
	}
	if _, err := s.get("mmjki", prepareFor(t, "mmjki", 8)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.entries["hydro"]; ok {
		t.Error("the store kept a program past its vector bound")
	}
	if _, ok := s.entries["mmjki"]; !ok {
		t.Error("the store dropped the entry just used")
	}
}

// TestStoreTrimsOnlyWhenAProgramEnters: an entry that grows past the
// vector bound while it is solved stays through later hits, and is
// trimmed when the next program enters.
func TestStoreTrimsOnlyWhenAProgramEnters(t *testing.T) {
	s := newPreparedStore(16, 1)
	for _, key := range []string{"mmjki", "hydro"} {
		if _, err := s.get(key, prepareFor(t, key, 16)); err != nil {
			t.Fatal(err)
		}
	}
	heavy, _ := s.get("hydro", nil)
	solveLine32(t, heavy)
	if heavy.VectorCount() <= 1 {
		t.Fatalf("hydro holds %d reuse vectors, want more than the bound", heavy.VectorCount())
	}
	rebuild := func() (*cme.Prepared, error) { return nil, fmt.Errorf("rebuilt") }
	if _, err := s.get("mmjki", rebuild); err != nil {
		t.Fatal(err)
	}
	if again, _ := s.get("hydro", rebuild); again != heavy {
		t.Fatal("a hit trimmed the entry grown past the bound")
	}
	if _, err := s.get("lk21", prepareFor(t, "lk21", 16)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.entries["hydro"]; ok {
		t.Error("the entry grown past the bound outlived the next program to enter")
	}
	if _, ok := s.entries["lk21"]; !ok {
		t.Error("the store dropped the entry just used")
	}
}

// TestStoreBuildsOnce: concurrent misses on one key build it once and
// share the result, and a build error is kept like a result.
func TestStoreBuildsOnce(t *testing.T) {
	s := newPreparedStore(16, 1<<40)
	var builds atomic.Int32
	build := prepareFor(t, "mmjki", 8)
	got := make([]*cme.Prepared, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = s.get("k", func() (*cme.Prepared, error) {
				builds.Add(1)
				return build()
			})
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, want the shared %p", i, p, got[0])
		}
	}
	fail := fmt.Errorf("no such program")
	for range 2 {
		if _, err := s.get("bad", func() (*cme.Prepared, error) { builds.Add(1); return nil, fail }); err != fail {
			t.Fatalf("err %v, want %v", err, fail)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("a failed build ran %d times, want once", n-1)
	}
}

// TestPreparedKey: one program spelled with or without its defaults, in
// any case, is one entry; the adaptive flag and the dimensions are part of
// the key; admission runs before the lookup.
func TestPreparedKey(t *testing.T) {
	a, err := (&Program{Program: "lk21"}).Prepared(serveLimits, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Program{Program: "LK21", Size: DefaultSize, Iters: DefaultIters}).Prepared(serveLimits, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("one program under two spellings got two entries")
	}
	if c, _ := (&Program{Program: "lk21"}).Prepared(serveLimits, true); c == a {
		t.Error("adaptive shares the non-adaptive entry")
	}
	if c, _ := (&Program{Program: "lk21", Size: DefaultSize + 1}).Prepared(serveLimits, false); c == a {
		t.Error("another size shares the entry")
	}
	if _, err := (&Program{Program: "lk21", Size: 2048}).Prepared(serveLimits, false); err == nil {
		t.Error("a size over the limit was prepared")
	}
}
