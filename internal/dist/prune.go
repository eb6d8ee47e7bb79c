package dist

import (
	"context"
	"fmt"

	"cachemodel/internal/advisor"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/sampling"
)

// prunePlan is the cheap sampled tier the advisor pass ranks geometries
// under: loose width, modest confidence — enough to order candidates,
// orders of magnitude cheaper than the exact solves it prunes.
var prunePlan = sampling.Plan{C: 0.9, W: 0.1}

// pruneGrid runs the advisor-driven search mode: one cheap SolveBatch
// over the whole geometry grid, advisor.Frontier keeps the non-dominated
// prefix, and every dominated candidate comes back as a pre-filled row
// (cheap-tier ratio, Pruned provenance) so it never becomes a work unit.
// Candidates the cheap pass could not rank (per-candidate errors,
// incomplete coverage) are kept for the real solve rather than guessed
// at.
func pruneGrid(ctx context.Context, spec *SweepSpec, wcs []WireCandidate) (map[int]Row, error) {
	p, err := spec.ProgramSpec.program()
	if err != nil {
		return nil, err
	}
	cfgs := make([]cache.Config, len(wcs))
	for i, wc := range wcs {
		cfgs[i] = wc.candidate().Config
	}
	choices, err := advisor.SearchConfigs(ctx, func() *ir.Program { return p }, cfgs, spec.options(), &prunePlan)
	if err != nil && len(choices) == 0 {
		return nil, fmt.Errorf("prune pass: %w", err)
	}
	surviving := map[string]bool{}
	for _, ch := range advisor.Frontier(choices, spec.pruneKeep(), spec.pruneMargin()) {
		surviving[ch.Label] = true
	}
	ranked := map[string]float64{}
	for _, ch := range choices {
		ranked[ch.Label] = ch.MissRatio
	}
	pruned := map[int]Row{}
	for i, wc := range wcs {
		ratio, ok := ranked[wc.Label]
		if !ok || surviving[wc.Label] {
			continue
		}
		pruned[i] = Row{
			Label:        wc.Label,
			CacheBytes:   wc.CacheBytes,
			LineBytes:    wc.LineBytes,
			Assoc:        wc.Assoc,
			MissRatioPct: ratio,
			Tier:         "sampled",
			Pruned:       true,
		}
	}
	return pruned, nil
}
