// Set-sharded parallel simulation. Under LRU (any per-set replacement
// policy, in fact) cache sets are independent: the outcome of an access
// depends only on the earlier accesses that map to the same set. The
// sharded simulator exploits this by partitioning the reference stream by
// cache set across per-shard LRU workers fed through bounded queues, so
// the ground-truth baseline scales with cores while producing counts
// bit-identical to the sequential simulator.
package trace

import (
	"context"
	"runtime"
	"sync"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
)

// shardItem is one access routed to a shard: the global reference index
// (carrying the write flag via np.Refs) and the byte address.
type shardItem struct {
	ref  int32
	addr int64
}

// shardBatch is the unit sent over a shard queue; batching amortises the
// channel synchronisation over many accesses.
const shardBatch = 4096

// queueDepth bounds each shard queue (in batches), so a slow shard
// backpressures the producer instead of ballooning memory.
const queueDepth = 8

// SimulateShardedCtx is SimulatePolicyCtx with set-sharded parallel
// replay: the reference stream is partitioned by cache set across at most
// `workers` shard workers, each running an exact LRU simulator over its
// sets, and the per-shard counts are merged at the end. Counts are
// bit-identical to the sequential simulator at any worker count, because
// every set still observes its accesses in program order. workers <= 1
// falls back to the sequential path. On cancellation or budget exhaustion
// the produced prefix is fully drained before returning, so the truncated
// counts are coherent (they cover exactly the first N accesses of the
// stream for some N).
func SimulateShardedCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, policy cache.WritePolicy, b budget.Budget, workers int) (*SimResult, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nsets := cfg.NumSets()
	if int64(workers) > nsets {
		workers = int(nsets)
	}
	if workers <= 1 {
		return SimulatePolicyCtx(ctx, np, cfg, policy, b)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "simulate.sharded")
	defer span.End()
	span.SetAttr("workers", workers)

	nsh := workers
	queues := make([]chan []shardItem, nsh)
	for i := range queues {
		queues[i] = make(chan []shardItem, queueDepth)
	}
	// Recycle batch buffers between producer and consumers.
	pool := sync.Pool{New: func() any { return make([]shardItem, 0, shardBatch) }}

	type shardState struct {
		sim   *cache.Simulator
		stats []RefStats
	}
	shards := make([]shardState, nsh)
	var wg sync.WaitGroup
	for s := 0; s < nsh; s++ {
		shards[s] = shardState{sim: cache.NewSimulator(cfg), stats: make([]RefStats, len(np.Refs))}
		shards[s].sim.SetWritePolicy(policy)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &shards[s]
			for batch := range queues[s] {
				for _, it := range batch {
					st := &sh.stats[it.ref]
					st.Accesses++
					var miss bool
					if np.Refs[it.ref].Write {
						miss = sh.sim.AccessWrite(it.addr)
					} else {
						miss = sh.sim.Access(it.addr)
					}
					if miss {
						st.Misses++
					}
				}
				pool.Put(batch[:0])
			}
		}(s)
	}

	// Producer: replay the iteration space, route each access to the
	// shard owning its cache set. Budget checkpoints run here, at the same
	// per-access granularity as the sequential path.
	m := budget.NewMeter(ctx, b)
	p := m.Probe()
	pending := make([][]shardItem, nsh)
	for i := range pending {
		pending[i] = pool.Get().([]shardItem)
	}
	var ierr error
	ExecuteAddr(np, func(r *ir.NRef, _ []int64, addr int64) bool {
		s := int(cfg.SetOf(addr) % int64(nsh))
		pending[s] = append(pending[s], shardItem{ref: int32(r.Seq), addr: addr})
		if len(pending[s]) == shardBatch {
			queues[s] <- pending[s]
			pending[s] = pool.Get().([]shardItem)
		}
		if p != nil {
			if ierr = p.Check(1, 0); ierr != nil {
				return false
			}
		}
		return true
	})
	for s := range queues {
		if len(pending[s]) > 0 {
			queues[s] <- pending[s]
		}
		close(queues[s])
	}
	if p != nil {
		p.Drain()
	}
	wg.Wait()

	stats := make([]RefStats, len(np.Refs))
	var accesses, misses int64
	for s := range shards {
		accesses += shards[s].sim.Accesses
		misses += shards[s].sim.Misses
		for i := range shards[s].stats {
			stats[i].Accesses += shards[s].stats[i].Accesses
			stats[i].Misses += shards[s].stats[i].Misses
		}
	}
	res := collectSimResult(np, cfg, stats, accesses, misses)
	if ierr != nil {
		res.Truncated = true
	}
	return res, ierr
}

// SimulateSharded replays the program through the set-sharded parallel
// simulator with an unlimited budget.
func SimulateSharded(np *ir.NProgram, cfg cache.Config, workers int) *SimResult {
	res, _ := SimulateShardedCtx(context.Background(), np, cfg, cache.FetchOnWrite, budget.Budget{}, workers)
	return res
}
