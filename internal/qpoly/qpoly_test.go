package qpoly

import (
	"testing"

	"cachemodel/internal/linalg"
)

func rat(n, d int64) linalg.Rat { return linalg.NewRat(n, d) }

func TestQPolyEval(t *testing.T) {
	// n(n+1)/2: integral at every integer although the coefficients are not.
	p := New([]linalg.Rat{{}, rat(1, 2), rat(1, 2)})
	for n := int64(-5); n <= 20; n++ {
		got, ok := p.EvalInt(n)
		if want := n * (n + 1) / 2; !ok || got != want {
			t.Fatalf("EvalInt(%d): got %d (ok=%v), want %d", n, got, ok, want)
		}
	}
	// n/2 is not a count at odd n.
	if _, ok := New([]linalg.Rat{{}, rat(1, 2)}).EvalInt(3); ok {
		t.Fatal("EvalInt(3) of n/2 reported an integer")
	}
	// The zero value is the zero polynomial.
	if v, ok := (Poly{}).EvalInt(7); !ok || v != 0 {
		t.Fatalf("zero polynomial: EvalInt(7) = %d, %v", v, ok)
	}
}

func TestPolyString(t *testing.T) {
	for want, p := range map[string]Poly{
		"0":                 {},
		"7":                 New([]linalg.Rat{rat(7, 1)}),
		"-20":               New([]linalg.Rat{rat(-20, 1), {}, {}}), // zero coefficients print nothing
		"n":                 New([]linalg.Rat{{}, rat(1, 1)}),
		"n - 20":            New([]linalg.Rat{rat(-20, 1), rat(1, 1)}),
		"-n + 4":            New([]linalg.Rat{rat(4, 1), rat(-1, 1)}),
		"n^2 - 2·n + 1":     New([]linalg.Rat{rat(1, 1), rat(-2, 1), rat(1, 1)}),
		"3/4·n^2 - 2·n + 1": New([]linalg.Rat{rat(1, 1), rat(-2, 1), rat(3, 4)}),
		"-1/2·n^3 + n":      New([]linalg.Rat{{}, rat(1, 1), {}, rat(-1, 2)}),
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestFitPolyExactAndVerify(t *testing.T) {
	// f(n) = (3n² − n)/2 sampled at 5 points; degree 2 fit must verify the
	// 2 extra points and reproduce the coefficients exactly.
	f := func(n int64) linalg.Rat {
		return rat(3*n*n-n, 2)
	}
	var ss []Sample
	for _, n := range []int64{4, 7, 10, 13, 16} {
		ss = append(ss, Sample{N: n, V: f(n)})
	}
	p, err := FitPoly(2, ss)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "3/2·n^2 - 1/2·n"; got != want {
		t.Fatalf("fitted %s, want %s", got, want)
	}
	// Perturb one holdout sample: verification must fail.
	ss[4].V = ss[4].V.Add(rat(1, 1))
	if _, err := FitPoly(2, ss); err == nil {
		t.Fatal("perturbed fit verified unexpectedly")
	}
}
