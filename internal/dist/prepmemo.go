package dist

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"cachemodel/internal/cme"
)

// prepMemoCap bounds how many prepared programs one memo keeps. A worker
// behind a long-lived coordinator may be sent any number of distinct
// inline sources; each Prepared holds its reuse vectors and memo tables,
// so an unbounded memo is a memory leak proportional to traffic.
const prepMemoCap = 16

// prepMemo is a bounded LRU of prepared programs, keyed by everything
// cme.Prepare depends on: the program spec and the solve options. Workers
// keep one so the units of a sweep share one Prepare; the coordinator
// keeps one so a resubmitted program derives its unit keys without being
// rebuilt. Safe for concurrent use; concurrent misses on one key build it
// once. A Prepared's SolveKey reads only state fixed by Prepare, so
// concurrent submissions may derive keys from one shared entry.
type prepMemo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key → element holding a *prepEntry
	lru     list.List                // front is the most recently used
}

type prepEntry struct {
	key   string
	ready chan struct{} // closed once prep/err are set
	prep  *cme.Prepared
	err   error
}

func newPrepMemo() *prepMemo {
	return &prepMemo{entries: map[string]*list.Element{}}
}

// prepKey is the memo key: a digest of the canonical program spec (JSON
// sorts Consts) and the solve options that shape Prepare.
func prepKey(ps *ProgramSpec, ss SolveSpec) string {
	// Marshal cannot fail here: strings, integers and a string-keyed map.
	blob, _ := json.Marshal(struct {
		P ProgramSpec
		A bool
	}{*ps, ss.Adaptive})
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// get returns the prepared program for (ps, ss), building and inserting
// it on a miss and evicting the least recently used entry beyond
// prepMemoCap. Build errors are memoised like results. The caller applies
// any admission bound (checkSize) before calling: get builds unbounded.
func (m *prepMemo) get(ps *ProgramSpec, ss SolveSpec) (*cme.Prepared, error) {
	key := prepKey(ps, ss)
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		e := el.Value.(*prepEntry)
		m.mu.Unlock()
		<-e.ready
		return e.prep, e.err
	}
	e := &prepEntry{key: key, ready: make(chan struct{})}
	m.entries[key] = m.lru.PushFront(e)
	if m.lru.Len() > prepMemoCap {
		old := m.lru.Remove(m.lru.Back()).(*prepEntry)
		delete(m.entries, old.key)
	}
	m.mu.Unlock()

	defer close(e.ready)
	np, err := ps.build()
	if err != nil {
		e.err = err
		return nil, err
	}
	e.prep, e.err = cme.Prepare(np, ss.options())
	return e.prep, e.err
}
