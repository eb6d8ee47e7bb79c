package cme

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/inline"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/sampling"
)

// prepTomcatv24 takes a fresh Tomcatv 24 through the front end with the
// baseline layout and prepares it; no line size has been solved yet.
func prepTomcatv24(t testing.TB) *Prepared {
	t.Helper()
	flat, _, err := inline.Flatten(kernels.Tomcatv(24, 1), inline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(np, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentBatchesShareOnePrepared: a baseline exact grid, a padded
// grid and a sampled batch started together on one freshly prepared
// program return, round after round, the counts of the same batches
// solved one after another. The padded grid moves array bases the other
// two read, so it must run alone; the baseline batches run side by side.
func TestConcurrentBatchesShareOnePrepared(t *testing.T) {
	var base, padded []Candidate
	for _, line := range []int64{32, 64} {
		for _, size := range []int64{2048, 8192} {
			for _, k := range []int{1, 2} {
				cfg := cache.Config{SizeBytes: size, LineBytes: line, Assoc: k}
				base = append(base, Candidate{Label: cfg.String(), Config: cfg})
				for _, pad := range []int64{32, 96} {
					padded = append(padded, Candidate{Label: fmt.Sprintf("%s+pad%d", cfg, pad), Config: cfg,
						Layout: &layout.Options{PadOf: map[string]int64{"X": pad, "RX": pad}}})
				}
			}
		}
	}
	plan := &sampling.Plan{C: 0.95, W: 0.05}
	batches := []struct {
		cands []Candidate
		opt   BatchOptions
	}{
		{base, BatchOptions{Workers: 2}},
		{padded, BatchOptions{Workers: 2}},
		{base, BatchOptions{Workers: 2, Plan: plan}},
	}
	solve := func(p *Prepared, i int) []*Report {
		reps, err := p.SolveBatch(context.Background(), batches[i].cands, batches[i].opt)
		if err != nil {
			t.Errorf("batch %d: %v", i, err)
		}
		return reps
	}
	serial := prepTomcatv24(t)
	want := make([][]*Report, len(batches))
	for i := range batches {
		want[i] = solve(serial, i)
	}
	rounds := 6
	if testing.Short() || raceEnabled {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		p := prepTomcatv24(t)
		got := make([][]*Report, len(batches))
		var wg sync.WaitGroup
		for i := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = solve(p, i)
			}()
		}
		wg.Wait()
		for i := range batches {
			for ci, rep := range got[i] {
				sameCounts(t, fmt.Sprintf("round %d batch %d %s", round, i, batches[i].cands[ci].Label), rep, want[i][ci])
			}
		}
	}
}
