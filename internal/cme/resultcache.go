package cme

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
	"cachemodel/internal/sampling"
)

// CacheStats are the result cache's observability counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// cachedRef is one cached per-reference result: the complete RefReport of
// a reference under one fully specified candidate (content-addressed, so
// the entry is valid wherever the key matches). Stored per reference over
// the full tile — per-run tile partitions depend on the worker count, but
// their merged sums do not, which is exactly what makes the entry
// portable across runs. Only exact and sampled results are ever stored:
// SolveBatch publishes before the degradation ladder runs, so no cached
// reference is bounded.
type cachedRef struct {
	Volume   int64 `json:"volume"`
	Analyzed int64 `json:"analyzed"`
	Sampled  bool  `json:"sampled,omitempty"`
	Hits     int64 `json:"hits"`
	Cold     int64 `json:"cold"`
	Repl     int64 `json:"repl"`
	Tier     Tier  `json:"tier"`
}

func (v cachedRef) fill(rr *RefReport) {
	rr.Volume = v.Volume
	rr.Analyzed = v.Analyzed
	rr.Sampled = v.Sampled
	rr.Hits = v.Hits
	rr.Cold = v.Cold
	rr.Repl = v.Repl
	rr.Tier = v.Tier
	rr.Complete = true
}

func snapRef(rr *RefReport) cachedRef {
	return cachedRef{Volume: rr.Volume, Analyzed: rr.Analyzed, Sampled: rr.Sampled,
		Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl, Tier: rr.Tier}
}

// ResultCache is a content-addressed, LRU-bounded store of per-reference
// analysis results. Keys hash the prepared program digest, the reference,
// the tile, the cache geometry, the layout (every array base), and the
// solve mode (exact / sampled plan + seed + adaptive), so a hit can only
// ever return the bit-identical result the solver would recompute.
// Safe for concurrent use.
//
// Entries live in a slab of fixed-size chunks, linked by slot index into
// a recency ring, and are found through an open-addressed index of slot
// numbers, so a resident entry costs its key, its value, two int32 links
// and at most two int32 index buckets, with no per-entry allocation.
type ResultCache struct {
	mu  sync.Mutex
	cap int
	// idx is a linearly probed table of slot numbers (0 = empty bucket),
	// keyed by a key's first 8 bytes and kept at most half full. get
	// compares the full key, so two keys sharing a prefix cost a miss,
	// never a wrong answer, and put lets the newer key take the slot.
	idx  []int32
	n    int        // resident entries
	slab [][]rcSlot // slot i is slab[i/rcChunk][i%rcChunk]; slot 0 is the ring's sentinel
	used int32      // slots handed out, the sentinel included

	hits    int64
	misses  int64
	evicted int64
}

// rcKey is a raw SHA-256 content address. Memory holds the 32 bytes; only
// the on-disk store spells them in hex.
type rcKey [sha256.Size]byte

// prefix is the key's index into ResultCache.idx.
func (k *rcKey) prefix() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// rcSlot is one resident entry. prev and next are slot indices in the
// recency ring: the sentinel's next is the most recent entry, its prev
// the least recent.
type rcSlot struct {
	key        rcKey
	val        cachedRef
	prev, next int32
}

// rcChunk is the slab's growth step: the slab never copies resident
// entries and holds at most one chunk of unused slots.
const rcChunk = 1024

// NewResultCache returns a result cache bounded to capacity entries
// (capacity <= 0 selects a generous default).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	c := &ResultCache{cap: capacity, idx: make([]int32, 16)}
	c.grow()
	c.used = 1 // the sentinel, linked to itself
	return c
}

// grow appends a chunk, shorter than rcChunk only when it is the last
// one the capacity allows.
func (c *ResultCache) grow() {
	c.slab = append(c.slab, make([]rcSlot, min(rcChunk, c.cap+1-len(c.slab)*rcChunk)))
}

func (c *ResultCache) slot(i int32) *rcSlot { return &c.slab[i/rcChunk][i%rcChunk] }

// find returns the index bucket holding the slot whose key starts with
// prefix p, or the empty bucket that ends p's probe sequence.
func (c *ResultCache) find(p uint64) (int, bool) {
	mask := uint64(len(c.idx) - 1)
	for b := p & mask; ; b = (b + 1) & mask {
		switch s := c.idx[b]; {
		case s == 0:
			return int(b), false
		case c.slot(s).key.prefix() == p:
			return int(b), true
		}
	}
}

// remove empties index bucket b, shifting later entries of its probe run
// back so every resident slot stays reachable from its home bucket.
func (c *ResultCache) remove(b int) {
	mask := len(c.idx) - 1
	for j := (b + 1) & mask; c.idx[j] != 0; j = (j + 1) & mask {
		home := int(c.slot(c.idx[j]).key.prefix()) & mask
		// The entry at j may fill the hole at b unless its home bucket
		// lies cyclically in (b, j].
		if (j-home)&mask >= (j-b)&mask {
			c.idx[b] = c.idx[j]
			b = j
		}
	}
	c.idx[b] = 0
	c.n--
}

// rehash rebuilds the index at size buckets (a power of two). Every slot
// handed out is resident: eviction reuses a slot in place.
func (c *ResultCache) rehash(size int) {
	c.idx = make([]int32, size)
	mask := uint64(size - 1)
	for i := int32(1); i < c.used; i++ {
		b := c.slot(i).key.prefix() & mask
		for c.idx[b] != 0 {
			b = (b + 1) & mask
		}
		c.idx[b] = i
	}
}

// unlink takes slot i out of the recency ring.
func (c *ResultCache) unlink(i int32) {
	s := c.slot(i)
	c.slot(s.prev).next, c.slot(s.next).prev = s.next, s.prev
}

// pushFront links slot i in as the most recent entry.
func (c *ResultCache) pushFront(i int32) {
	root := c.slot(0)
	s := c.slot(i)
	s.prev, s.next = 0, root.next
	c.slot(root.next).prev = i
	root.next = i
}

// get returns the cached result for key, promoting it to most recent.
func (c *ResultCache) get(key rcKey) (cachedRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.find(key.prefix()); ok && c.slot(c.idx[b]).key == key {
		i := c.idx[b]
		c.unlink(i)
		c.pushFront(i)
		c.hits++
		mCacheHits.Inc()
		return c.slot(i).val, true
	}
	c.misses++
	mCacheMisses.Inc()
	return cachedRef{}, false
}

// put stores a result, evicting the least recently used entry at capacity.
func (c *ResultCache) put(key rcKey, v cachedRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := key.prefix()
	b, ok := c.find(p)
	var i int32
	switch {
	case ok:
		i = c.idx[b]
		c.unlink(i)
	case c.n < c.cap:
		if int(c.used) == len(c.slab)*rcChunk {
			c.grow()
		}
		i = c.used
		c.used++
		c.idx[b] = i
		c.n++
	default:
		// At capacity: the least recent entry's slot takes the new one.
		i = c.slot(0).prev
		c.unlink(i)
		old, _ := c.find(c.slot(i).key.prefix())
		c.remove(old)
		b, _ = c.find(p) // the removal may have shifted p's probe run
		c.idx[b] = i
		c.n++
		c.evicted++
		mCacheEvictions.Inc()
	}
	s := c.slot(i)
	s.key, s.val = key, v
	c.pushFront(i)
	if 2*c.n > len(c.idx) {
		c.rehash(2 * len(c.idx))
	}
}

// Stats returns the counters (and current occupancy).
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Entries: c.n}
}

// diskEntry is the JSON form of one persisted cache entry; Key is the
// hex spelling of the raw key, since encoding/json mangles non-UTF-8
// strings.
type diskEntry struct {
	Key string    `json:"key"`
	Val cachedRef `json:"val"`
}

// StoreSchemaV1 identifies the checksummed on-disk store envelope.
const StoreSchemaV1 = "cachette/resultcache/v1"

// diskStore is the on-disk envelope: the entries blob plus a SHA-256 over
// it, so Load can tell a garbled or truncated-then-patched store from a
// valid one even when the damage still parses as JSON (a flipped digit in
// a count, say).
type diskStore struct {
	Schema  string          `json:"schema"`
	Sum     string          `json:"sum"` // hex SHA-256 of Entries' JSON
	Entries json.RawMessage `json:"entries"`
}

// Save writes the cache contents (least recent first, so a Load replays
// them into the same recency order) to path as checksummed JSON. The
// write is atomic — temp file, fsync, rename — so an interrupted run (the
// SIGINT path) can never leave a truncated store behind; the previous
// store survives intact until the rename commits.
func (c *ResultCache) Save(path string) error {
	c.mu.Lock()
	entries := make([]diskEntry, 0, c.n)
	for i := c.slot(0).prev; i != 0; i = c.slot(i).prev {
		s := c.slot(i)
		entries = append(entries, diskEntry{Key: hex.EncodeToString(s.key[:]), Val: s.val})
	}
	c.mu.Unlock()
	inner, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(inner)
	blob, err := json.Marshal(diskStore{Schema: StoreSchemaV1, Sum: hex.EncodeToString(sum[:]), Entries: inner})
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, blob)
}

// Load merges entries persisted by Save into the cache — it never clears
// what is already resident, so a warm cache can layer several stores (a
// resumed dist worker loads both its own checkpoint and the coordinator's
// shared store). A key present both in memory and on disk keeps the
// loaded value (last write wins), which is harmless by construction:
// content addressing means equal keys carry equal payloads, so the
// "conflict" replaces a value with its bit-identical twin. A missing file
// is not an error (a cold on-disk store is simply empty), and neither is
// a corrupt one: a store that fails to decode, fails its checksum, or
// carries an impossible entry or a key that is not 64 hex digits is
// quarantined — renamed to path+".corrupt" — leaving resident entries
// untouched, and the load simply contributes nothing, recomputing
// instead of erroring. A content-addressed cache can
// always be rebuilt; the only unrecoverable sin would be serving a
// damaged entry as truth.
func (c *ResultCache) Load(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	entries, err := decodeStore(blob)
	if err != nil {
		mCacheCorrupt.Inc()
		// Quarantine keeps the evidence for debugging while getting it out
		// of the load path; a failed rename is not fatal (worst case the
		// next Save overwrites the damage).
		_ = os.Rename(path, path+".corrupt")
		return nil
	}
	for i := range entries {
		c.put(entries[i].key, entries[i].val)
	}
	return nil
}

// decodeStore decodes and fully validates a persisted store, returning
// its entries (unlinked) in file order.
func decodeStore(blob []byte) ([]rcSlot, error) {
	var ds diskStore
	if err := json.Unmarshal(blob, &ds); err != nil {
		return nil, fmt.Errorf("result cache: %v", err)
	}
	if ds.Schema != StoreSchemaV1 {
		return nil, fmt.Errorf("result cache: schema %q, want %q", ds.Schema, StoreSchemaV1)
	}
	sum := sha256.Sum256(ds.Entries)
	if hex.EncodeToString(sum[:]) != ds.Sum {
		return nil, fmt.Errorf("result cache: checksum mismatch")
	}
	var entries []diskEntry
	if err := json.Unmarshal(ds.Entries, &entries); err != nil {
		return nil, fmt.Errorf("result cache: entries: %v", err)
	}
	out := make([]rcSlot, len(entries))
	for i, e := range entries {
		if err := e.Val.validate(); err != nil {
			return nil, fmt.Errorf("result cache: entry %d (%s): %v", i, e.Key, err)
		}
		if len(e.Key) != hex.EncodedLen(sha256.Size) {
			return nil, fmt.Errorf("result cache: entry %d: key of %d bytes, want %d hex digits", i, len(e.Key), hex.EncodedLen(sha256.Size))
		}
		if _, err := hex.Decode(out[i].key[:], []byte(e.Key)); err != nil {
			return nil, fmt.Errorf("result cache: entry %d: key: %v", i, err)
		}
		out[i].val = e.Val
	}
	return out, nil
}

// validate rejects impossible per-reference results — the last line of
// defence should a damaged store still pass the checksum (it cannot via
// Save, but quarantined stores get hand-edited, and defence in depth is
// cheap at load time).
func (v cachedRef) validate() error {
	switch {
	case v.Volume < 0 || v.Analyzed < 0 || v.Hits < 0 || v.Cold < 0 || v.Repl < 0:
		return fmt.Errorf("negative count")
	case v.Analyzed > v.Volume:
		return fmt.Errorf("analyzed %d exceeds volume %d", v.Analyzed, v.Volume)
	case v.Hits+v.Cold+v.Repl > v.Analyzed:
		return fmt.Errorf("outcomes %d exceed analyzed %d", v.Hits+v.Cold+v.Repl, v.Analyzed)
	case v.Tier == TierBounded:
		return fmt.Errorf("bounded tier: only complete exact or sampled results are cached")
	case v.Tier < TierExact || v.Tier > TierBounded:
		return fmt.Errorf("unknown tier %d", v.Tier)
	}
	return nil
}

// refKey builds the content address of one reference's result under one
// candidate: prepared-program digest, reference Seq, tile (the full tile —
// see cachedRef), geometry, every array base in program order (alias
// chains resolve to concrete bases, so the bases pin the layout
// completely), and the solve mode.
func refKey(digest []byte, r *ir.NRef, np *ir.NProgram, cfg cache.Config, mode solveMode) rcKey {
	h := sha256.New()
	h.Write(digest)
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(int64(r.Seq))
	wi(-1) // the full tile (Dim -1): per-ref results are tile-merged
	wi(cfg.SizeBytes)
	wi(cfg.LineBytes)
	wi(int64(cfg.Assoc))
	for _, a := range np.Arrays {
		wi(a.Base)
	}
	if mode.sampled {
		wi(1)
		wi(int64(math.Float64bits(mode.plan.C)))
		wi(int64(math.Float64bits(mode.plan.W)))
		wi(mode.seed)
		if mode.adaptive {
			wi(1)
		} else {
			wi(0)
		}
	} else {
		wi(0)
	}
	var k rcKey
	h.Sum(k[:0])
	return k
}

// solveMode captures the result-affecting solve parameters beyond the
// program and the candidate.
type solveMode struct {
	sampled  bool
	plan     sampling.Plan
	seed     int64
	adaptive bool
}

// batchMode derives the solve mode one SolveBatch invocation with this
// plan would run under (mirroring SolveBatch's seed defaulting).
func (p *Prepared) batchMode(plan *sampling.Plan) solveMode {
	if plan == nil {
		return solveMode{}
	}
	seed := p.opt.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF
	}
	return solveMode{sampled: true, plan: *plan, seed: seed, adaptive: p.opt.Adaptive}
}

// SolveKey returns the SHA-256 content address of one SolveBatch
// invocation over this Prepared program: the prepared digest, every
// candidate's geometry and layout (in order), and the solve mode. Two
// invocations with equal keys produce bit-identical reports, which makes
// the key the natural singleflight handle for a serving layer: identical
// concurrent requests collapse onto one solve, and the key doubles as a
// stable job fingerprint in logs and metrics.
func (p *Prepared) SolveKey(cands []Candidate, plan *sampling.Plan) string {
	mode := p.batchMode(plan)
	h := sha256.New()
	h.Write(p.Digest())
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(int64(len(cands)))
	for _, c := range cands {
		wi(c.Config.SizeBytes)
		wi(c.Config.LineBytes)
		wi(int64(c.Config.Assoc))
		lk := layoutKey(c.Layout)
		wi(int64(len(lk)))
		h.Write([]byte(lk))
	}
	if mode.sampled {
		wi(1)
		wi(int64(math.Float64bits(mode.plan.C)))
		wi(int64(math.Float64bits(mode.plan.W)))
		wi(mode.seed)
		if mode.adaptive {
			wi(1)
		} else {
			wi(0)
		}
	} else {
		wi(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}
