package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cachemodel/internal/cme"
)

// solveOutcome is what one solve produced, shared verbatim between the
// flight leader and every follower. Reports are read-only after the solve,
// so sharing the slice is safe. err is the solve's error as returned,
// which the rows render; jobErr derives the job's failure from it.
type solveOutcome struct {
	reports []*cme.Report
	err     error
}

// jobErr is the job's failure: the solve's error, except that
// per-candidate construction failures alone (a *cme.BatchError) still
// leave a partially solved sweep counted as a result.
func (o *solveOutcome) jobErr() error {
	if errors.As(o.err, new(*cme.BatchError)) {
		return nil
	}
	return o.err
}

// flightGroup is a minimal singleflight keyed by the content address of a
// solve (a grid's Prepared.SolveKey, a ladder's key from admission):
// concurrent jobs with equal keys collapse onto one solve, and
// bit-identical results come for free because the key covers everything
// that affects them. Hand-rolled — the module is dependency-free by
// design, so x/sync/singleflight is not available.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	out     *solveOutcome
	waiters atomic.Int32
}

// waiting reports how many followers are blocked on key's in-flight call
// (0 when no call is in flight). Tests use it to sequence dedup scenarios
// deterministically.
func (g *flightGroup) waiting(key string) int {
	g.mu.Lock()
	c := g.m[key]
	g.mu.Unlock()
	if c == nil {
		return 0
	}
	return int(c.waiters.Load())
}

// do runs fn once per in-flight key. The caller whose invocation ran fn
// gets shared=false; concurrent callers block until the leader finishes
// and share its outcome with shared=true. A follower whose own ctx ends
// while waiting gets (nil, true) — the leader keeps running for everyone
// else. The leader runs fn on its own goroutine under its own context and
// budget; a follower observing a leader-cancelled outcome should re-issue
// do (the key is free by then, so it becomes the new leader).
func (g *flightGroup) do(ctx context.Context, key string, fn func() *solveOutcome) (out *solveOutcome, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.waiters.Add(1)
		defer c.waiters.Add(-1)
		select {
		case <-c.done:
			return c.out, true
		case <-ctx.Done():
			return nil, true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.out = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.out, false
}
