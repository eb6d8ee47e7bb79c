package cme

import (
	"fmt"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
)

// fuzzFamily decodes a problem-size family from prog: k = 1..3 arrays
// X0..X{k-1} of elemSize-byte elements with extents N+pad (pad 0..24),
// then 1..2 nests, each dst(I+o) = src(I+o') for I = 1..N with every
// offset 0..pad of its array. Bytes past the end of prog read as zero.
func fuzzFamily(prog []byte, elemSize int64) func(n int64) *ir.Subroutine {
	next := func() int64 {
		if len(prog) == 0 {
			return 0
		}
		b := int64(prog[0])
		prog = prog[1:]
		return b
	}
	k := next()%3 + 1
	pads := make([]int64, k)
	for i := range pads {
		pads[i] = next() % 25
	}
	type ref struct{ arr, off int64 }
	nests := make([][2]ref, next()%2+1)
	for i := range nests {
		for j := range nests[i] {
			a := next() % k
			nests[i][j] = ref{a, next() % (pads[a] + 1)}
		}
	}
	return func(n int64) *ir.Subroutine {
		b := ir.NewSub("fuzz")
		arrs := make([]*ir.Array, k)
		for i := range arrs {
			arrs[i] = b.Local(fmt.Sprintf("X%d", i), elemSize, n+pads[i])
		}
		for i, nest := range nests {
			v := fmt.Sprintf("I%d", i)
			at := func(r ref) *ir.Ref { return ir.R(arrs[r.arr], ir.Var(v).PlusConst(r.off)) }
			b.Do(v, ir.Con(1), ir.Con(n)).
				Assign(fmt.Sprintf("S%d", i+1), at(nest[0]), at(nest[1])).
				End()
		}
		return b.Build()
	}
}

// FuzzScalingVsEnumerate: for generated copy families and caches of
// 64 B..2 KB, 8..32 B lines and 1..2 ways, every size of a 3-size ladder
// that the scaling solver answers — in closed form or by fall-through —
// equals FindMisses at that size per reference. The ladder spans sizes
// below, inside and past the fit window.
func FuzzScalingVsEnumerate(f *testing.F) {
	// X0, X1, X2 = A(N+20), B(N), C(N); B(I) = A(I), then C(J) or B(J) = A(J+20).
	shiftC := []byte{2, 20, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 20}
	shiftB := []byte{2, 20, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 20}
	f.Add(shiftC, uint8(1), uint8(4), uint8(0), uint8(0), uint16(39), uint16(63), uint16(299))
	f.Add(shiftB, uint8(1), uint8(0), uint8(0), uint8(0), uint16(39), uint16(63), uint16(16))
	f.Add([]byte{1, 24, 1, 0, 0, 0, 24}, uint8(0), uint8(2), uint8(1), uint8(1), uint16(7), uint16(200), uint16(500))
	f.Add([]byte{2, 5, 17, 0, 0, 3, 1, 11}, uint8(1), uint8(5), uint8(2), uint8(0), uint16(1000), uint16(2000), uint16(3000))
	f.Fuzz(func(t *testing.T, prog []byte, elem, cacheSel, lineSel, assocSel uint8, n1, n2, n3 uint16) {
		elemSize := []int64{4, 8}[elem%2]
		cfg := cache.Config{
			SizeBytes: 64 << (cacheSel % 6),
			LineBytes: 8 << (lineSel % 3),
			Assoc:     int(assocSel%2) + 1,
		}
		build := famOf(fuzzFamily(prog, elemSize))
		s, err := PrepareScaling(build, cfg, Options{}, ScalingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		span := 8 * s.MinClosedN()
		for _, raw := range []uint16{n1, n2, n3} {
			n := int64(raw)%span + 1
			rep, err := solveAt(s, n)
			if err != nil {
				t.Fatalf("SolveLadder(%d): %v", n, err)
			}
			checkScalingIdentity(t, build, cfg, n, rep)
		}
	})
}
