package spec

import (
	"container/list"
	"encoding/json"
	"errors"
	"strings"
	"sync"

	"cachemodel/internal/cme"
	"cachemodel/internal/obs"
)

// The bounds of the process's prepared-program store: StoreEntries
// programs and StoreVectors reuse vectors between them, checked when a
// program enters the store and only then. A Prepared builds its vectors
// per line size on first use, so entries grow while they are solved, past
// StoreVectors if need be, and stay until the next program enters.
// Trimming on every lookup instead rebuilt dist-sweep's programs between
// their units and cost it 40% of its answers per second. One vector costs
// about 105 bytes with its share of the memo table.
const (
	StoreEntries = 16
	StoreVectors = 20_000
)

// Store metrics, in the Default registry so serve's and a coordinator's
// /metrics expose them. The gauges read the store as of the last program
// that entered it: an entry's vectors grow while it is being solved.
var (
	mPreparedHits      = obs.Default.Counter("spec_prepared_hits_total")
	mPreparedMisses    = obs.Default.Counter("spec_prepared_misses_total")
	mPreparedEvictions = obs.Default.Counter("spec_prepared_evictions_total")
	mPreparedEntries   = obs.Default.Gauge("spec_prepared_entries")
	mPreparedVectors   = obs.Default.Gauge("spec_prepared_vectors")
)

// errBuildPanicked is what waiters on an entry get when its build panicked;
// the builder's own caller sees the panic.
var errBuildPanicked = errors.New("preparing the program panicked")

// store is the process's one store of prepared programs: serve's jobs,
// dist's workers and coordinator, and SweepSpec.SolveLocal all solve the
// Prepared it hands out, so a program is prepared once per process
// however many front doors, workers or requests name it.
var store = newPreparedStore(StoreEntries, StoreVectors)

// preparedStore is an LRU of prepared programs, bounded by entry count
// and by the reuse vectors its entries hold. Concurrent misses on one key
// build once; build errors are kept like results.
type preparedStore struct {
	maxEntries int
	maxVectors int64

	mu      sync.Mutex
	entries map[string]*list.Element // key → element holding a *storeEntry
	lru     list.List                // front is the most recently used
}

func newPreparedStore(maxEntries int, maxVectors int64) *preparedStore {
	return &preparedStore{maxEntries: maxEntries, maxVectors: maxVectors, entries: map[string]*list.Element{}}
}

type storeEntry struct {
	key   string
	ready chan struct{} // closed once prep and err are set
	prep  *cme.Prepared
	err   error
}

// vectors is the entry's weight: its Prepared's reuse vectors, or none
// while it is still being built.
func (e *storeEntry) vectors() int64 {
	select {
	case <-e.ready:
		if e.prep != nil {
			return e.prep.VectorCount()
		}
	default:
	}
	return 0
}

// Prepared admits p under lim, then returns the process's prepared form of
// p, building it (front end, then cme.Prepare) without limits on first
// use. The reuse vectors are built per line size inside the Prepared, so
// one entry answers every cache geometry. The key is the program spec, its
// default dimensions applied, and adaptive, the one solve option that
// shapes a Prepared on the wire. The Prepared is shared: solve it with
// SolveBatch, which is safe for concurrent use, and look it up again
// rather than keep it, so an evicted entry can be collected.
func (p *Program) Prepared(lim Limits, adaptive bool) (*cme.Prepared, error) {
	if err := p.Check(lim); err != nil {
		return nil, err
	}
	q := *p
	q.Size, q.Iters = p.dims()
	if q.Source == "" {
		q.Program = strings.ToLower(q.Program)
	}
	// Marshal cannot fail here: strings, integers and a string-keyed map,
	// whose keys it sorts.
	key, _ := json.Marshal(struct {
		P Program
		A bool
	}{q, adaptive})
	return store.get(string(key), func() (*cme.Prepared, error) {
		np, err := q.Prepare(Limits{})
		if err != nil {
			return nil, err
		}
		return cme.Prepare(np, cme.Options{Adaptive: adaptive})
	})
}

// get returns the entry for key, building it on a miss. A miss trims the
// store: entries grow while they are solved (one vector set per line
// size), but the store sheds weight only when a program enters, so
// programs that fit its entry bound are never rebuilt between their
// units.
func (s *preparedStore) get(key string, build func() (*cme.Prepared, error)) (*cme.Prepared, error) {
	s.mu.Lock()
	el, hit := s.entries[key]
	if hit {
		s.lru.MoveToFront(el)
		mPreparedHits.Inc()
	} else {
		el = s.lru.PushFront(&storeEntry{key: key, ready: make(chan struct{})})
		s.entries[key] = el
		mPreparedMisses.Inc()
		s.trimLocked()
	}
	s.mu.Unlock()

	e := el.Value.(*storeEntry)
	if hit {
		<-e.ready
		return e.prep, e.err
	}
	defer close(e.ready)
	e.err = errBuildPanicked
	e.prep, e.err = build()
	return e.prep, e.err
}

// trimLocked evicts least recently used entries while the store holds
// more than maxEntries of them or more than maxVectors reuse vectors,
// but never the front entry, the one just used, so the next lookup of a
// program heavier than the bound still finds it. Solves still holding an
// evicted Prepared finish on it.
func (s *preparedStore) trimLocked() {
	var vecs int64
	for el := s.lru.Front(); el != nil; el = el.Next() {
		vecs += el.Value.(*storeEntry).vectors()
	}
	for s.lru.Len() > 1 && (s.lru.Len() > s.maxEntries || vecs > s.maxVectors) {
		e := s.lru.Remove(s.lru.Back()).(*storeEntry)
		delete(s.entries, e.key)
		vecs -= e.vectors()
		mPreparedEvictions.Inc()
	}
	mPreparedEntries.Set(int64(s.lru.Len()))
	mPreparedVectors.Set(vecs)
}
