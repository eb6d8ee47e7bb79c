package cme

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tk derives a cache key from a readable name.
func tk(name string) rcKey { return sha256.Sum256([]byte(name)) }

func rcVal(n int64) cachedRef {
	return cachedRef{Volume: n, Analyzed: n, Hits: n, Tier: TierExact}
}

// TestResultCacheEvictionOrder pins the LRU contract: a get promotes, so
// the entry evicted at capacity is the least recently *used*, not the
// least recently inserted.
func TestResultCacheEvictionOrder(t *testing.T) {
	c := NewResultCache(3)
	for i := 0; i < 3; i++ {
		c.put(tk(fmt.Sprintf("k%d", i)), rcVal(int64(i)))
	}
	if _, ok := c.get(tk("k0")); !ok { // k0 promoted; k1 is now LRU
		t.Fatal("k0 missing right after insert")
	}
	c.put(tk("k3"), rcVal(3))
	if _, ok := c.get(tk("k1")); ok {
		t.Error("k1 survived past capacity; eviction ignored the get-promotion")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(tk(k)); !ok {
			t.Errorf("%s evicted, want only k1 gone", k)
		}
	}
	s := c.Stats()
	// gets: k0 hit, k1 miss, then k0/k2/k3 hits.
	if s.Hits != 4 || s.Misses != 1 || s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 4 hits / 1 miss / 1 eviction / 3 entries", s)
	}
}

// TestResultCachePutPromotes: re-putting an existing key updates the value
// in place and counts as a touch for eviction order.
func TestResultCachePutPromotes(t *testing.T) {
	c := NewResultCache(2)
	c.put(tk("a"), rcVal(1))
	c.put(tk("b"), rcVal(2))
	c.put(tk("a"), rcVal(3)) // update + promote; b becomes LRU
	c.put(tk("c"), rcVal(4)) // evicts b
	if _, ok := c.get(tk("b")); ok {
		t.Error("b survived; re-put of a did not promote")
	}
	if v, ok := c.get(tk("a")); !ok || v.Volume != 3 {
		t.Errorf("a = %+v ok=%v, want updated value 3", v, ok)
	}
}

// TestResultCacheConcurrent hammers get/put from many goroutines (run
// under -race) and checks the counters stay coherent: every get is either
// a hit or a miss, and entries = misses − evictions when every miss is
// followed by one put of a fresh key.
func TestResultCacheConcurrent(t *testing.T) {
	const (
		goroutines = 8
		iters      = 500
		capacity   = 64
	)
	c := NewResultCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("k%d", (g*31+i*7)%97)
				if _, ok := c.get(tk(k)); !ok {
					c.put(tk(k), rcVal(int64(i)))
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != goroutines*iters {
		t.Errorf("hits %d + misses %d != %d gets", s.Hits, s.Misses, goroutines*iters)
	}
	if s.Entries > capacity {
		t.Errorf("%d entries, capacity %d", s.Entries, capacity)
	}
	// Puts of the same key can race (get-miss then put twice), so puts >=
	// misses is not exact; but live entries can never exceed distinct keys
	// and evictions can never exceed puts − entries.
	if s.Evictions < 0 || s.Entries < 0 {
		t.Errorf("negative counters: %+v", s)
	}
	if s.Misses < int64(s.Entries) {
		t.Errorf("%d entries from only %d misses", s.Entries, s.Misses)
	}
}

// TestResultCacheSaveLoadRecency: Save writes least-recent-first so a Load
// into a smaller cache keeps the most recently used entries.
func TestResultCacheSaveLoadRecency(t *testing.T) {
	c := NewResultCache(0)
	for i := 0; i < 4; i++ {
		c.put(tk(fmt.Sprintf("k%d", i)), rcVal(int64(i)))
	}
	if _, ok := c.get(tk("k0")); !ok { // k0 most recent; k1 now oldest
		t.Fatal("k0 missing")
	}
	path := filepath.Join(t.TempDir(), "rc.json")
	if err := c.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	d := NewResultCache(3)
	if err := d.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, ok := d.get(tk("k1")); ok {
		t.Error("k1 survived the capacity-3 reload; Save lost the recency order")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if v, ok := d.get(tk(k)); !ok || v.Volume != int64(k[1]-'0') {
			t.Errorf("%s lost or stale after reload (%+v, ok=%v)", k, v, ok)
		}
	}
}

// TestResultCacheLoadCorruptFlippedBytes is the corruption regression
// test: flip bytes at every position of a persisted store, one at a time,
// and Load each damaged copy. No flip may error, panic, or smuggle a
// damaged entry into the cache — a flip either leaves the store
// byte-identical in meaning (impossible here: any flip breaks the
// checksum or the JSON) or quarantines it to .corrupt and starts cold.
func TestResultCacheLoadCorruptFlippedBytes(t *testing.T) {
	c := NewResultCache(0)
	for i := 0; i < 4; i++ {
		c.put(tk(fmt.Sprintf("k%d", i)), rcVal(int64(i+1)))
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "rc.json")
	if err := c.Save(clean); err != nil {
		t.Fatalf("save: %v", err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Every byte position is a candidate; step a few bytes at a time to
	// keep the test quick while still covering envelope, sum and entries.
	for pos := 0; pos < len(blob); pos += 3 {
		bad := append([]byte(nil), blob...)
		// xor 0x01, not a case flip: Go's JSON decoder matches field names
		// case-insensitively, so a case-flipped envelope key would decode
		// identically and (correctly) load clean.
		bad[pos] ^= 0x01
		path := filepath.Join(dir, fmt.Sprintf("bad%d.json", pos))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewResultCache(0)
		if err := d.Load(path); err != nil {
			t.Fatalf("flip at %d: Load errored: %v", pos, err)
		}
		if s := d.Stats(); s.Entries != 0 {
			t.Fatalf("flip at %d: %d damaged entries loaded", pos, s.Entries)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("flip at %d: no quarantine file: %v", pos, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("flip at %d: damaged store still in place", pos)
		}
	}
	// The clean store still loads in full.
	d := NewResultCache(0)
	if err := d.Load(clean); err != nil {
		t.Fatalf("clean load: %v", err)
	}
	if s := d.Stats(); s.Entries != 4 {
		t.Fatalf("clean load got %d entries, want 4", s.Entries)
	}
}

// TestResultCacheLoadTruncated: every truncation of a valid store is
// quarantined, not erred on.
func TestResultCacheLoadTruncated(t *testing.T) {
	c := NewResultCache(0)
	c.put(tk("k"), rcVal(7))
	dir := t.TempDir()
	clean := filepath.Join(dir, "rc.json")
	if err := c.Save(clean); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n += 7 {
		path := filepath.Join(dir, fmt.Sprintf("trunc%d.json", n))
		if err := os.WriteFile(path, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewResultCache(0)
		if err := d.Load(path); err != nil {
			t.Fatalf("truncation to %d bytes: Load errored: %v", n, err)
		}
		if s := d.Stats(); s.Entries != 0 {
			t.Fatalf("truncation to %d bytes loaded %d entries", n, s.Entries)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("truncation to %d bytes: no quarantine: %v", n, err)
		}
	}
}

// TestResultCacheLoadRejectsImpossibleEntry: a store whose checksum is
// valid but whose entry is semantically impossible (hand-edited) is
// quarantined by the value validator.
func TestResultCacheLoadRejectsImpossibleEntry(t *testing.T) {
	for name, val := range map[string]cachedRef{
		"negative_hits":    {Volume: 4, Analyzed: 4, Hits: -1, Tier: TierExact},
		"analyzed>volume":  {Volume: 4, Analyzed: 5, Tier: TierExact},
		"outcomes>counted": {Volume: 4, Analyzed: 4, Hits: 3, Cold: 2, Tier: TierExact},
		"bad_tier":         {Volume: 4, Analyzed: 4, Tier: Tier(9)},
		"bounded":          {Volume: 4, Analyzed: 0, Tier: TierBounded},
	} {
		k := tk("k")
		inner, err := json.Marshal([]diskEntry{{Key: hex.EncodeToString(k[:]), Val: val}})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(inner)
		blob, err := json.Marshal(diskStore{Schema: StoreSchemaV1, Sum: hex.EncodeToString(sum[:]), Entries: inner})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rc.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewResultCache(0)
		if err := d.Load(path); err != nil {
			t.Fatalf("%s: Load errored: %v", name, err)
		}
		if s := d.Stats(); s.Entries != 0 {
			t.Errorf("%s: impossible entry loaded", name)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Errorf("%s: no quarantine: %v", name, err)
		}
	}
}

// TestResultCacheSaveAtomic: Save must replace an existing store without
// ever leaving a temp file behind (the SIGINT-safety contract).
func TestResultCacheSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.json")
	c := NewResultCache(0)
	c.put(tk("old"), rcVal(1))
	if err := c.Save(path); err != nil {
		t.Fatalf("first save: %v", err)
	}
	c.put(tk("new"), rcVal(2))
	if err := c.Save(path); err != nil {
		t.Fatalf("second save: %v", err)
	}
	d := NewResultCache(0)
	if err := d.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, ok := d.get(tk("new")); !ok {
		t.Error("second save did not replace the store")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestResultCacheLoadMergesIntoWarm pins the merge contract the dist
// worker relies on: loading a store into a non-empty cache adds the
// persisted entries without evicting or clearing the resident ones, and
// an overlapping key takes the loaded value (last write wins — harmless
// under content addressing, where equal keys carry equal payloads).
func TestResultCacheLoadMergesIntoWarm(t *testing.T) {
	saver := NewResultCache(0)
	saver.put(tk("shared"), rcVal(7))
	saver.put(tk("disk_only"), rcVal(8))
	path := filepath.Join(t.TempDir(), "rc.json")
	if err := saver.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}

	warm := NewResultCache(0)
	warm.put(tk("resident"), rcVal(1))
	warm.put(tk("shared"), rcVal(99)) // conflicting payload, same key
	if err := warm.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if v, ok := warm.get(tk("resident")); !ok || v.Volume != 1 {
		t.Errorf("resident entry lost by merge (%+v, ok=%v)", v, ok)
	}
	if v, ok := warm.get(tk("disk_only")); !ok || v.Volume != 8 {
		t.Errorf("persisted entry not merged in (%+v, ok=%v)", v, ok)
	}
	if v, ok := warm.get(tk("shared")); !ok || v.Volume != 7 {
		t.Errorf("conflict kept resident value %+v, want loaded (last write wins)", v)
	}
	if s := warm.Stats(); s.Entries != 3 {
		t.Errorf("%d entries after merge, want 3", s.Entries)
	}
}

// TestResultCacheLoadLayersStores: a worker warming from its own
// checkpoint plus a shared store sees the union, later loads winning on
// overlap.
func TestResultCacheLoadLayersStores(t *testing.T) {
	dir := t.TempDir()
	first := NewResultCache(0)
	first.put(tk("a"), rcVal(1))
	first.put(tk("both"), rcVal(2))
	p1 := filepath.Join(dir, "one.json")
	if err := first.Save(p1); err != nil {
		t.Fatal(err)
	}
	second := NewResultCache(0)
	second.put(tk("b"), rcVal(3))
	second.put(tk("both"), rcVal(4))
	p2 := filepath.Join(dir, "two.json")
	if err := second.Save(p2); err != nil {
		t.Fatal(err)
	}

	c := NewResultCache(0)
	for _, p := range []string{p1, p2, filepath.Join(dir, "missing.json")} {
		if err := c.Load(p); err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
	}
	want := map[string]int64{"a": 1, "b": 3, "both": 4}
	for k, n := range want {
		if v, ok := c.get(tk(k)); !ok || v.Volume != n {
			t.Errorf("%s = %+v ok=%v, want volume %d", k, v, ok, n)
		}
	}
	if s := c.Stats(); s.Entries != len(want) {
		t.Errorf("%d entries, want %d", s.Entries, len(want))
	}
}

// TestResultCacheLoadCorruptKeepsWarmEntries: quarantining a damaged
// store must not disturb what is already resident — the merge semantics
// make corruption strictly additive-or-nothing.
func TestResultCacheLoadCorruptKeepsWarmEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rc.json")
	if err := os.WriteFile(path, []byte(`{"schema":"cachette/resultcache/v1","sum":"00","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	c.put(tk("resident"), rcVal(5))
	if err := c.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if v, ok := c.get(tk("resident")); !ok || v.Volume != 5 {
		t.Errorf("resident entry damaged by corrupt load (%+v, ok=%v)", v, ok)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("%d entries, want only the resident one", s.Entries)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt store not quarantined: %v", err)
	}
}

// TestResultCacheStoreBytesPinned: memory holds raw keys, but the on-disk
// store spells them in hex, byte for byte as stores written with hex keys
// in memory did, so stores stay portable across builds.
func TestResultCacheStoreBytesPinned(t *testing.T) {
	c := NewResultCache(0)
	for _, name := range []string{"a", "b"} {
		c.put(tk(name), cachedRef{Volume: 9, Analyzed: 8, Sampled: true, Hits: 3, Cold: 2, Repl: 1, Tier: TierSampled})
	}
	path := filepath.Join(t.TempDir(), "rc.json")
	if err := c.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"cachette/resultcache/v1","sum":"bfde70f46d1991b4d6722f587a86008f1506b2bee114f5b3015ea696e84a9b2d","entries":[` +
		`{"key":"ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb","val":{"volume":9,"analyzed":8,"sampled":true,"hits":3,"cold":2,"repl":1,"tier":1}},` +
		`{"key":"3e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d","val":{"volume":9,"analyzed":8,"sampled":true,"hits":3,"cold":2,"repl":1,"tier":1}}]}`
	if string(blob) != want {
		t.Errorf("store bytes changed\n got: %s\nwant: %s", blob, want)
	}
}

// TestResultCacheLoadRejectsBadKey: a checksummed store whose key is not
// 64 hex digits is quarantined like any other corrupt store.
func TestResultCacheLoadRejectsBadKey(t *testing.T) {
	good := tk("k")
	for name, key := range map[string]string{
		"short":   "k",
		"non_hex": strings.Repeat("zz", sha256.Size),
		"long":    hex.EncodeToString(good[:]) + "00",
		"empty":   "",
	} {
		inner, err := json.Marshal([]diskEntry{{Key: key, Val: rcVal(1)}})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(inner)
		blob, err := json.Marshal(diskStore{Schema: StoreSchemaV1, Sum: hex.EncodeToString(sum[:]), Entries: inner})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rc.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewResultCache(0)
		if err := d.Load(path); err != nil {
			t.Fatalf("%s: Load errored: %v", name, err)
		}
		if s := d.Stats(); s.Entries != 0 {
			t.Errorf("%s: entry with a bad key loaded", name)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Errorf("%s: no quarantine: %v", name, err)
		}
	}
}

// TestResultCachePrefixCollision: the index keys on the first 8 bytes of
// a key, so two keys sharing them must never answer for each other; the
// newer one takes the slot.
func TestResultCachePrefixCollision(t *testing.T) {
	a, b := tk("a"), tk("a")
	b[31] ^= 1
	c := NewResultCache(4)
	c.put(a, rcVal(1))
	if _, ok := c.get(b); ok {
		t.Fatal("a key sharing a prefix answered for another")
	}
	c.put(b, rcVal(2))
	if v, ok := c.get(b); !ok || v.Volume != 2 {
		t.Errorf("b = %+v ok=%v, want volume 2", v, ok)
	}
	if _, ok := c.get(a); ok {
		t.Error("the displaced key still hits")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("%d entries, want 1", s.Entries)
	}
}

// TestResultCacheIndexChurn holds the open-addressed index to a plain LRU
// model under random puts and gets at capacity. Keys share their first
// byte — the home bucket's low bits — so probe runs are long, wrap the
// table and are cut by evictions, and some share all 8 prefix bytes.
func TestResultCacheIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := func() rcKey {
		var k rcKey
		rng.Read(k[:])
		k[0] = byte(rng.Intn(4))
		if rng.Intn(8) == 0 {
			for i := 1; i < 8; i++ {
				k[i] = 0 // a prefix shared with other such keys
			}
		}
		return k
	}
	type ent struct {
		k rcKey
		v int64
	}
	for _, capacity := range []int{1, 7, 64, 300} {
		c := NewResultCache(capacity)
		var model []ent // least recent first
		var pool []rcKey
		for op := 0; op < 20000; op++ {
			if len(pool) < 4*capacity || rng.Intn(3) == 0 {
				pool = append(pool, key())
			}
			k := pool[rng.Intn(len(pool))]
			at := slices.IndexFunc(model, func(e ent) bool { return e.k.prefix() == k.prefix() })
			if rng.Intn(2) == 0 {
				v, ok := c.get(k)
				if at >= 0 && model[at].k == k {
					e := model[at]
					model = append(slices.Delete(model, at, at+1), e)
					if !ok || v.Volume != e.v {
						t.Fatalf("cap %d op %d: get = %v/%v, want %d", capacity, op, v.Volume, ok, e.v)
					}
				} else if ok {
					t.Fatalf("cap %d op %d: get hit a key the model does not hold", capacity, op)
				}
				continue
			}
			v := int64(op)
			c.put(k, rcVal(v))
			switch {
			case at >= 0:
				model = slices.Delete(model, at, at+1)
			case len(model) == capacity:
				model = model[1:]
			}
			model = append(model, ent{k, v})
			if s := c.Stats(); s.Entries != len(model) {
				t.Fatalf("cap %d op %d: %d entries, model %d", capacity, op, s.Entries, len(model))
			}
		}
		for _, e := range model {
			if v, ok := c.get(e.k); !ok || v.Volume != e.v {
				t.Fatalf("cap %d: resident key lost (%v/%v, want %d)", capacity, v.Volume, ok, e.v)
			}
		}
	}
}
