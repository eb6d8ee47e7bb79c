// Package prob implements a probabilistic analytical miss estimator in the
// spirit of Fraguela, Doallo and Zapata (PACT'99), the baseline the paper
// compares against in Table 7. Instead of solving the replacement
// equations pointwise, it models cache-set occupancy statistically:
//
//   - the reuse distance of each reference is derived from its first
//     (most recent) reuse vector,
//   - the footprint of the intervening accesses is estimated analytically
//     (distinct lines ≈ accesses / line length, the stride-1 assumption the
//     PME area vectors make for the common case),
//   - intervening lines are assumed to fall uniformly over the cache sets,
//     so the number of contenders in the reused line's set is Poisson with
//     rate footprint/sets, and the line survives while fewer than k
//     contenders arrive.
//
// The model is fast — it never walks iteration intervals — and reproduces
// the qualitative behaviour of Table 7: usable accuracy on benign
// configurations and large errors where conflict behaviour is pathological
// (small caches with long lines), where the paper's EstimateMisses stays
// accurate.
package prob

import (
	"context"
	"math"
	"math/rand"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
)

// Options tunes the estimator.
type Options struct {
	// Reuse configures reuse-vector generation (shared with the CME
	// analysis so both see the same reuse).
	Reuse reuse.Options
	// MembershipSamples is the number of points sampled per reuse vector
	// to estimate the fraction of consumers whose producer exists
	// (default 64).
	MembershipSamples int
	// Seed seeds the membership sampling (0 = fixed default).
	Seed int64
}

// RefEstimate is the per-reference probabilistic result.
type RefEstimate struct {
	Ref       *ir.NRef
	Volume    int64
	MissRatio float64 // in [0, 1]
}

// Report aggregates the estimates.
type Report struct {
	Config  cache.Config
	Refs    []*RefEstimate
	Elapsed time.Duration
}

// MissRatio returns the access-weighted miss ratio in percent.
func (r *Report) MissRatio() float64 {
	var acc, miss float64
	for _, e := range r.Refs {
		acc += float64(e.Volume)
		miss += float64(e.Volume) * e.MissRatio
	}
	if acc == 0 {
		return 0
	}
	return 100 * miss / acc
}

// Estimate runs the probabilistic model over a prepared program.
func Estimate(np *ir.NProgram, cfg cache.Config, opt Options) (*Report, error) {
	return EstimateCtx(context.Background(), np, cfg, opt, budget.Budget{})
}

// EstimateCtx is Estimate under a context and a budget. The model is
// closed-form per reference (it never walks iteration intervals), so
// checkpoints sit between references; each reference costs
// MembershipSamples points of budget. On interruption the partial report
// covers the references estimated so far.
func EstimateCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, opt Options, b budget.Budget) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := budget.NewMeter(ctx, b)
	if opt.MembershipSamples == 0 {
		opt.MembershipSamples = 64
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 12345
	}
	rng := rand.New(rand.NewSource(seed))
	vecs := reuse.Generate(np, cfg, opt.Reuse)
	spaces := map[*ir.NStmt]*poly.Space{}
	var totalPoints, totalAccesses int64
	for _, s := range np.Stmts {
		sp := poly.FromStmt(s)
		spaces[s] = sp
		totalPoints += sp.Volume()
		totalAccesses += sp.Volume() * int64(len(s.Refs))
	}
	refsPerPoint := 1.0
	if totalPoints > 0 {
		refsPerPoint = float64(totalAccesses) / float64(totalPoints)
	}
	extents := averageExtents(np, spaces)
	rep := &Report{Config: cfg}
	p := m.Probe()
	defer p.Drain()
	for _, r := range np.Refs {
		if p != nil {
			if err := p.Check(int64(opt.MembershipSamples), 0); err != nil {
				rep.Elapsed = time.Since(start)
				return rep, err
			}
		}
		sp := spaces[r.Stmt]
		rep.Refs = append(rep.Refs, &RefEstimate{Ref: r, Volume: sp.Volume(),
			MissRatio: missProbability(r, vecs[r], sp, spaces, cfg, extents, refsPerPoint, rng, opt.MembershipSamples)})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// averageExtents estimates the average trip count at each depth across the
// program's leaf nests, used to convert reuse vectors into iteration
// distances.
func averageExtents(np *ir.NProgram, spaces map[*ir.NStmt]*poly.Space) []float64 {
	n := np.Depth
	sum := make([]float64, n)
	cnt := make([]float64, n)
	for _, s := range np.Stmts {
		lo, hi, ok := spaces[s].BoundingBox()
		if !ok {
			continue
		}
		for k := 0; k < n; k++ {
			sum[k] += float64(hi[k] - lo[k] + 1)
			cnt[k]++
		}
	}
	out := make([]float64, n)
	for k := range out {
		if cnt[k] > 0 {
			out[k] = sum[k] / cnt[k]
		} else {
			out[k] = 1
		}
	}
	return out
}

// distancePoints converts a reuse vector into an approximate iteration
// distance (number of intervening points).
func distancePoints(v *reuse.Vector, extents []float64) float64 {
	n := len(v.LabelDiff)
	d := 0.0
	for k := 0; k < n; k++ {
		// Product of deeper extents.
		inner := 1.0
		for j := k + 1; j < n; j++ {
			inner *= extents[j]
		}
		if v.LabelDiff[k] != 0 {
			// Crossing between sibling nests at depth k: roughly half of
			// each nest's deeper extent on each side.
			d += math.Abs(float64(v.LabelDiff[k])) * inner
		}
		d += math.Abs(float64(v.IdxDiff[k])) * inner
	}
	if d < 0 {
		return 0
	}
	return d
}

// missProbability samples consumer points, attributes each to its first
// valid reuse vector (cold if none), and models the eviction decision per
// vector statistically: the intervening footprint is estimated from the
// vector's iteration distance and the contenders in the reused line's set
// are taken as Poisson over the uniformly filled sets. Only the cold /
// which-vector split is pointwise; the replacement decision — where the
// paper solves equations — stays a closed-form probability, which is what
// makes the method fast and what costs it accuracy on pathological
// conflicts.
func missProbability(r *ir.NRef, vs []*reuse.Vector, sp *poly.Space, spaces map[*ir.NStmt]*poly.Space,
	cfg cache.Config, extents []float64, refsPerPoint float64, rng *rand.Rand, samples int) float64 {

	pts := sp.Sample(rng, samples)
	if len(pts) == 0 {
		return 0
	}
	sets := float64(cfg.NumSets())
	lineElems := float64(cfg.LineElems(r.Array.ElemSize))
	cold := 0
	perVector := make([]int, len(vs))
	for _, idx := range pts {
		found := false
		for vi, v := range vs {
			_, pidx := v.ProducerPoint(idx)
			if !spaces[v.Producer.Stmt].Contains(pidx) {
				continue
			}
			if cfg.MemLine(v.Producer.AddressAt(pidx)) != cfg.MemLine(v.Consumer.AddressAt(idx)) {
				continue
			}
			perVector[vi]++
			found = true
			break
		}
		if !found {
			cold++
		}
	}
	miss := float64(cold) / float64(len(pts))
	for vi, count := range perVector {
		if count == 0 {
			continue
		}
		dist := distancePoints(vs[vi], extents)
		footprint := dist * refsPerPoint / lineElems // distinct intervening lines
		lambda := footprint / sets
		pSurvive := poissonCDF(float64(cfg.Assoc-1), lambda)
		miss += float64(count) / float64(len(pts)) * (1 - pSurvive)
	}
	return miss
}

// poissonCDF returns P(X ≤ x) for X ~ Poisson(lambda).
func poissonCDF(x, lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	if lambda > 1e6 {
		return 0
	}
	sum := 0.0
	term := math.Exp(-lambda)
	if term == 0 {
		// Normal approximation for large lambda.
		z := (x + 0.5 - lambda) / math.Sqrt(lambda)
		return 0.5 * (1 + math.Erf(z/math.Sqrt2))
	}
	for k := 0.0; k <= x; k++ {
		sum += term
		term *= lambda / (k + 1)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
