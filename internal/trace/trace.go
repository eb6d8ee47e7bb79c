// Package trace executes a normalised program's iteration space in the
// lexicographic order of §3.2, producing the memory reference stream. It
// drives the exact cache simulator (the paper's validation baseline) and
// provides the set-filtered interval walk (Walker) used by the replacement
// equations to enumerate interference sets.
package trace

import (
	"context"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
)

// Simulator metrics, flushed once per simulation run (the per-access path
// stays atomic-free).
var (
	mSimRuns     = obs.Default.Counter("trace_sim_runs_total")
	mSimAccesses = obs.Default.Counter("trace_sim_accesses_total")
	mSimMisses   = obs.Default.Counter("trace_sim_misses_total")
)

// Time identifies one access instant: the interleaved iteration vector
// (Label, Idx) of §3.2 plus the global intra-point access position Seq.
type Time struct {
	Label []int
	Idx   []int64
	Seq   int
}

// Compare orders two access times (negative, zero, positive).
func Compare(a, b Time) int {
	if c := ir.CompareIterations(a.Label, a.Idx, b.Label, b.Idx); c != 0 {
		return c
	}
	switch {
	case a.Seq < b.Seq:
		return -1
	case a.Seq > b.Seq:
		return 1
	default:
		return 0
	}
}

// Execute visits every reference access of the program in execution order.
// The idx slice passed to visit is reused; copy it if retained. Return
// false from visit to stop early.
func Execute(np *ir.NProgram, visit func(r *ir.NRef, idx []int64) bool) {
	idx := make([]int64, np.Depth)
	for _, nl := range np.Top {
		if !exec(nl, 1, np.Depth, idx, visit) {
			return
		}
	}
}

func exec(nl *ir.NLoop, depth, n int, idx []int64, visit func(*ir.NRef, []int64) bool) bool {
	lo := nl.Bound.Lo.Eval(idx)
	hi := nl.Bound.Hi.Eval(idx)
	for v := lo; v <= hi; v++ {
		idx[depth-1] = v
		if depth == n {
			for _, st := range nl.Stmts {
				if !st.GuardHolds(idx) {
					continue
				}
				for _, r := range st.Refs {
					if !visit(r, idx) {
						return false
					}
				}
			}
			continue
		}
		for _, c := range nl.Loops {
			if !exec(c, depth+1, n, idx, visit) {
				return false
			}
		}
	}
	return true
}

// RefStats accumulates per-reference simulation counters.
type RefStats struct {
	Accesses int64
	Misses   int64
}

// SimResult is the outcome of a full cache simulation of a program.
type SimResult struct {
	Config   cache.Config
	PerRef   map[*ir.NRef]*RefStats
	Accesses int64
	Misses   int64
	// Truncated reports that the simulation was interrupted by
	// cancellation or budget exhaustion; the counts cover only the prefix
	// of the reference stream replayed before the interruption.
	Truncated bool
}

// MissRatio returns the global miss ratio in percent.
func (r *SimResult) MissRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return 100 * float64(r.Misses) / float64(r.Accesses)
}

// Simulate replays the whole program through an exact LRU simulator and
// returns global and per-reference counts. Arrays must be laid out first.
// Writes fetch on miss, per the paper's §2 model.
func Simulate(np *ir.NProgram, cfg cache.Config) *SimResult {
	return SimulatePolicy(np, cfg, cache.FetchOnWrite)
}

// SimulatePolicy is Simulate with an explicit write policy, for
// quantifying the fetch-on-write assumption of the analytical model.
func SimulatePolicy(np *ir.NProgram, cfg cache.Config, policy cache.WritePolicy) *SimResult {
	res, _ := SimulatePolicyCtx(context.Background(), np, cfg, policy, budget.Budget{})
	return res
}

// SimulateCtx is Simulate under a context and a budget: the replay
// checkpoints every simulated access (batched, so the per-access cost is
// an increment), and an interrupted run returns the truncated prefix
// counts together with ErrCanceled or ErrBudgetExceeded. The simulator is
// the validation baseline — there is nothing cheaper to degrade to, so
// exhaustion is an error rather than a fallback.
func SimulateCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, b budget.Budget) (*SimResult, error) {
	return SimulatePolicyCtx(ctx, np, cfg, cache.FetchOnWrite, b)
}

// SimulatePolicyCtx is SimulateCtx with an explicit write policy.
func SimulatePolicyCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, policy cache.WritePolicy, b budget.Budget) (*SimResult, error) {
	_, span := obs.StartSpan(ctx, "simulate")
	defer span.End()
	sim := cache.NewSimulator(cfg)
	sim.SetWritePolicy(policy)
	m := budget.NewMeter(ctx, b)
	p := m.Probe()
	defer p.Drain()
	// Per-reference counters live in a slice indexed by the reference's
	// global Seq (its position in np.Refs); the map the API exposes is
	// built once at the end, keeping a map lookup off the per-access path.
	stats := make([]RefStats, len(np.Refs))
	var ierr error
	ExecuteAddr(np, func(r *ir.NRef, _ []int64, addr int64) bool {
		st := &stats[r.Seq]
		st.Accesses++
		var miss bool
		if r.Write {
			miss = sim.AccessWrite(addr)
		} else {
			miss = sim.Access(addr)
		}
		if miss {
			st.Misses++
		}
		if p != nil {
			if ierr = p.Check(1, 0); ierr != nil {
				return false
			}
		}
		return true
	})
	res := collectSimResult(np, cfg, stats, sim.Accesses, sim.Misses)
	if ierr != nil {
		res.Truncated = true
	}
	return res, ierr
}

// flushSimMetrics publishes one simulation run's totals.
func flushSimMetrics(res *SimResult) {
	mSimRuns.Inc()
	mSimAccesses.Add(res.Accesses)
	mSimMisses.Add(res.Misses)
}

// collectSimResult assembles the public SimResult from Seq-indexed
// counters.
func collectSimResult(np *ir.NProgram, cfg cache.Config, stats []RefStats, accesses, misses int64) *SimResult {
	res := &SimResult{Config: cfg, PerRef: map[*ir.NRef]*RefStats{}, Accesses: accesses, Misses: misses}
	for i := range stats {
		if stats[i].Accesses > 0 {
			s := stats[i]
			res.PerRef[np.Refs[i]] = &s
		}
	}
	flushSimMetrics(res)
	return res
}
