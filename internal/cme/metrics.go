package cme

import "cachemodel/internal/obs"

// Shared solver metrics, registered in the obs.Default registry.  Hot
// paths accumulate into plain local integers and flush here once per
// tile or classifier release, so the steady-state cost is a handful of
// uncontended atomic adds per tile — not per point.
var (
	mTilesSolved      = obs.Default.Counter("cme_tiles_solved_total")
	mPointsClassed    = obs.Default.Counter("cme_points_classified_total")
	mPointsSymbolic   = obs.Default.Counter("cme_points_symbolic_total")
	mPointsEnumerated = obs.Default.Counter("cme_points_enumerated_total")
	mWalks            = obs.Default.Counter("cme_walks_total")
	mWalkMemoHits     = obs.Default.Counter("cme_walk_memo_hits_total")
	// mWalkSteps counts the logical positions the replacement walks
	// scanned (each candidate's stopping position, memo replays
	// excluded); mWalkVisits counts the accesses those walks actually
	// touched — the set-filtered walker skips the rest arithmetically,
	// so visits/steps is the skip ratio.
	mWalkSteps  = obs.Default.Counter("cme_walk_steps_total")
	mWalkVisits = obs.Default.Counter("cme_walk_visits_total")
	// mWalkRows counts the leaf rows the walks entered; the walker skips
	// the rows no reference can contend in and counts their accesses
	// from their bounds.
	mWalkRows = obs.Default.Counter("cme_walk_rows_total")
	// mWalkMemoDisabled counts reuse vectors whose memo arena the hit-rate
	// gate dropped (memoDisableAfter consecutive probe misses).
	mWalkMemoDisabled = obs.Default.Counter("cme_walk_memo_disabled_total")
	mFusedCandidates  = obs.Default.Histogram("cme_fused_walk_candidates", 1, 2, 4, 8, 16, 32)
	mCacheHits        = obs.Default.Counter("cme_resultcache_hits_total")
	mCacheMisses      = obs.Default.Counter("cme_resultcache_misses_total")
	mCacheEvictions   = obs.Default.Counter("cme_resultcache_evictions_total")
	mCacheCorrupt     = obs.Default.Counter("cme_resultcache_corrupt_total")
	mBatchCands       = obs.Default.Counter("cme_batch_candidates_total")
	mBatchDedup       = obs.Default.Counter("cme_batch_dedup_total")

	// Degradation ladder: one increment per reference that leaves the
	// ladder on the sampled rung (a grace resample, or an interrupted
	// sample kept at the size it reached) or on the bounded rung.
	mDegradeSampled = obs.Default.Counter("cme_degrade_sampled_refs_total")
	mDegradeBounded = obs.Default.Counter("cme_degrade_bounded_refs_total")

	// Closed-form scaling tier.
	mScalingFits      = obs.Default.Counter("cme_scaling_residue_fits_total")
	mScalingFitSolves = obs.Default.Counter("cme_scaling_fit_solves_total")
	mScalingEvals     = obs.Default.Counter("cme_scaling_closed_evals_total")
	mScalingFallbacks = obs.Default.Counter("cme_scaling_fallbacks_total")

	// Set-count tier (geom.go): closed-form fills per (member, ref) —
	// pure-cold fills count in both cme_geom_eval_total and
	// cme_geom_purecold_total, anchor copies only in the first — anchors
	// fed to the fused solver (one per planned line size), and refused
	// pairs that fell through to enumeration.
	mGeomEvals     = obs.Default.Counter("cme_geom_eval_total")
	mGeomAnchors   = obs.Default.Counter("cme_geom_anchor_solves_total")
	mGeomPureCold  = obs.Default.Counter("cme_geom_purecold_total")
	mGeomFallbacks = obs.Default.Counter("cme_geom_fallback_total")
)
