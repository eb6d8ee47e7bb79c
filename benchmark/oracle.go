package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
	"cachemodel/internal/trace"
)

// The oracle is the exact LRU simulator (internal/trace). Every answer of
// the timed phase is held to the analysis contract:
//
//   - a program whose references are all uniformly generated must get
//     per-reference miss counts equal to the simulator's;
//   - any other program must never be undercounted in total;
//   - a sampled answer is not checked, only its miss-ratio error recorded.
//
// Workloads add their own checks: dist merged rows must equal an
// in-process SweepSpec.SolveLocal, and a repeated serve request must get
// the bit-identical answer of its first occurrence.

// answer is one solved (program, cache configuration) pair in the compact
// form the checks need.
type answer struct {
	prog  *program
	cfg   cache.Config
	exact bool
	// ids and misses are per reference, in program order.
	ids    []string
	misses []int64
	ratio  float64 // miss ratio, percent
}

func answerFromReport(p *program, cfg cache.Config, rep *cme.Report, exact bool) answer {
	a := answer{prog: p, cfg: cfg, exact: exact, ratio: rep.MissRatio()}
	for _, rr := range rep.Refs {
		a.ids = append(a.ids, rr.Ref.ID)
		a.misses = append(a.misses, rr.Misses())
	}
	return a
}

func answerFromRow(p *program, row dist.Row) answer {
	a := answer{prog: p, exact: true, ratio: row.MissRatioPct,
		cfg: cache.Config{SizeBytes: row.CacheBytes, LineBytes: row.LineBytes, Assoc: row.Assoc}}
	for _, rr := range row.Refs {
		a.ids = append(a.ids, rr.ID)
		a.misses = append(a.misses, rr.Cold+rr.Repl)
	}
	return a
}

func answerFromCandidate(p *program, c serve.CandidateResult, exact bool) answer {
	a := answer{prog: p, exact: exact, ratio: c.MissRatioPct,
		cfg: cache.Config{SizeBytes: c.CacheBytes, LineBytes: c.LineBytes, Assoc: c.Assoc}}
	for _, rr := range c.Refs {
		a.ids = append(a.ids, rr.ID)
		a.misses = append(a.misses, rr.Cold+rr.Repl)
	}
	return a
}

// simAnswer is the simulator's count for one (program, cache) pair.
type simAnswer struct {
	ids             []string
	misses          []int64
	accesses, total int64
}

func (s *simAnswer) ratio() float64 {
	if s.accesses == 0 {
		return 0
	}
	return 100 * float64(s.total) / float64(s.accesses)
}

// checkAnswer holds an exact answer to the simulator contract.
func checkAnswer(a answer, s *simAnswer) error {
	if !a.exact {
		return nil
	}
	where := a.prog.key() + " " + cfgKey(a.cfg)
	if len(a.ids) != len(s.ids) {
		return fmt.Errorf("%s: %d references, simulator %d", where, len(a.ids), len(s.ids))
	}
	var total int64
	for i := range a.ids {
		if a.ids[i] != s.ids[i] {
			return fmt.Errorf("%s: reference %d is %s, simulator has %s", where, i, a.ids[i], s.ids[i])
		}
		if a.prog.uniform && a.misses[i] != s.misses[i] {
			return fmt.Errorf("%s: reference %s: %d misses, simulator %d", where, a.ids[i], a.misses[i], s.misses[i])
		}
		total += a.misses[i]
	}
	if total < s.total {
		return fmt.Errorf("%s: undercount: %d misses, simulator %d", where, total, s.total)
	}
	return nil
}

// checkRows holds dist merged rows to the in-process solve of the same
// sweep, byte for byte.
func checkRows(got, want []dist.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("merged report has %d rows, SolveLocal %d", len(got), len(want))
	}
	for i := range got {
		if err := sameJSON(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d (%s) differs from SolveLocal: %w", i, want[i].Label, err)
		}
	}
	return nil
}

// checkRepeat holds a repeated serve request to the answer of its first
// occurrence.
func checkRepeat(first, again []serve.CandidateResult) error {
	if len(first) != len(again) {
		return fmt.Errorf("repeat has %d candidates, first answer %d", len(again), len(first))
	}
	for i := range first {
		if err := sameJSON(again[i], first[i]); err != nil {
			return fmt.Errorf("candidate %s differs from the first answer: %w", first[i].Label, err)
		}
	}
	return nil
}

func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("got %s, want %s", clip(g), clip(w))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..."
	}
	return string(b)
}

// oracle simulates each (program, cache) pair once per run.
type oracle struct {
	sims        map[string]*simAnswer
	simTime     time.Duration
	simAccesses int64
	// largest is the pair with the most accesses, where the sharded
	// simulator is timed.
	largest struct {
		prog     *program
		cfg      cache.Config
		accesses int64
	}
}

func newOracle() *oracle { return &oracle{sims: map[string]*simAnswer{}} }

func cfgKey(c cache.Config) string { return fmt.Sprintf("%d/%d/%d", c.SizeBytes, c.LineBytes, c.Assoc) }

func (o *oracle) sim(b *bench, p *program, cfg cache.Config) (*simAnswer, error) {
	key := p.key() + " " + cfgKey(cfg)
	if s, ok := o.sims[key]; ok {
		return s, nil
	}
	if p.np == nil {
		if err := b.build(span{}, p); err != nil {
			return nil, err
		}
	}
	sp := b.tr.root(clientLane, 0, "trace.simulate")
	t0 := time.Now()
	res, err := trace.SimulateCtx(context.Background(), p.np, cfg, budget.Budget{})
	o.simTime += time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", key, err)
	}
	o.simAccesses += res.Accesses
	if res.Accesses > o.largest.accesses {
		o.largest.prog, o.largest.cfg, o.largest.accesses = p, cfg, res.Accesses
	}
	s := &simAnswer{accesses: res.Accesses, total: res.Misses}
	for _, r := range p.np.Refs {
		s.ids = append(s.ids, r.ID)
		var m int64
		if st := res.PerRef[r]; st != nil {
			m = st.Misses
		}
		s.misses = append(s.misses, m)
	}
	o.sims[key] = s
	b.custom["trace.simulate_ns_per_access"] = float64(o.simTime.Nanoseconds()) / float64(o.simAccesses)
	return s, nil
}
