package main

import (
	"testing"

	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
)

// TestOracleCatchesContractBreaks feeds the checks one broken answer of
// each kind the oracle guards against, alongside correct ones, and
// asserts the break is counted in failed_pct and fails the run.
func TestOracleCatchesContractBreaks(t *testing.T) {
	uniform := &program{name: "hydro", size: 16, uniform: true}
	nonUniform := &program{name: "mmt", size: 16}
	c := cfg(4096, 32, 1)
	sim := &simAnswer{ids: []string{"A", "B"}, misses: []int64{3, 4}, accesses: 100, total: 7}
	exact := func(p *program, misses ...int64) answer {
		return answer{prog: p, cfg: c, exact: true, ids: []string{"A", "B"}, misses: misses, ratio: 7}
	}

	rows := func(repl int64) []dist.Row {
		return []dist.Row{{Label: "4KB/32B/direct", CacheBytes: 4096, LineBytes: 32, Assoc: 1,
			Refs: []dist.RefRow{{ID: "A", Volume: 10, Analyzed: 10, Hits: 7, Cold: 3}, {ID: "B", Volume: 10, Analyzed: 10, Hits: 6, Repl: repl}}}}
	}
	cands := func(cold int64) []serve.CandidateResult {
		return []serve.CandidateResult{{Label: "4KB/32B/direct", CacheBytes: 4096, LineBytes: 32, Assoc: 1,
			Refs: []serve.RefResult{{ID: "A", Volume: 10, Analyzed: 10, Cold: cold}}}}
	}

	cases := []struct {
		name string
		// check applies the workload's check to the bad request.
		check func(b *bench, bad *request) error
	}{
		{"uniform count off by one", func(b *bench, bad *request) error {
			bad.answers = []answer{exact(uniform, 3, 5)}
			return b.verifyAnswers()
		}},
		{"non-uniform undercount", func(b *bench, bad *request) error {
			bad.answers = []answer{exact(nonUniform, 3, 3)}
			return b.verifyAnswers()
		}},
		{"dist row differs in one reference", func(b *bench, bad *request) error {
			if err := checkRows(rows(5), rows(4)); err != nil {
				b.failReq(bad, err)
			}
			return b.verifyAnswers()
		}},
		{"repeated serve answer differs", func(b *bench, bad *request) error {
			if err := checkRepeat(cands(3), cands(2)); err != nil {
				b.failReq(bad, err)
			}
			return b.verifyAnswers()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(options{scale: "smoke", trace: true})
			b.oracle.sims[uniform.key()+" "+cfgKey(c)] = sim
			b.oracle.sims[nonUniform.key()+" "+cfgKey(c)] = sim
			// Correct answers: exact on the uniform program, an overcount
			// (allowed) on the non-uniform one.
			good1 := &request{id: 1, answers: []answer{exact(uniform, 3, 4)}}
			good2 := &request{id: 2, answers: []answer{exact(nonUniform, 5, 4)}}
			bad := &request{id: 3}
			b.reqs = []*request{good1, good2, bad}
			if err := tc.check(b, bad); err != nil {
				t.Fatal(err)
			}
			if good1.failed != nil || good2.failed != nil {
				t.Fatalf("correct answers failed: %v, %v", good1.failed, good2.failed)
			}
			if bad.failed == nil {
				t.Fatal("the broken answer passed the check")
			}
			res := b.result(&ledger{})
			if res.Failed != 1 || res.Correct {
				t.Errorf("result: %d failed, correct %v", res.Failed, res.Correct)
			}
			if pct := res.Metrics["bench.failed_pct"].Value; pct < 33.3 || pct > 33.4 {
				t.Errorf("failed_pct %v, want 1 in 3", pct)
			}
			if exitCode(res) == 0 {
				t.Error("a run with a broken answer exits 0")
			}
		})
	}
}

func TestCheckAcceptsCorrectAnswers(t *testing.T) {
	sim := &simAnswer{ids: []string{"A"}, misses: []int64{2}, accesses: 10, total: 2}
	p := &program{name: "hydro", size: 16, uniform: true}
	if err := checkAnswer(answer{prog: p, exact: true, ids: []string{"A"}, misses: []int64{2}}, sim); err != nil {
		t.Error(err)
	}
	// Sampled answers are only scored, never failed.
	if err := checkAnswer(answer{prog: p, ids: []string{"A"}, misses: []int64{9}}, sim); err != nil {
		t.Error(err)
	}
	if err := checkAnswer(answer{prog: p, exact: true, ids: []string{"B"}, misses: []int64{2}}, sim); err == nil {
		t.Error("a reference mismatch passed")
	}
}
