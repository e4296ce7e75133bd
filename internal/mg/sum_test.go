package mg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// exactSum is the oracle: the products float64(a[i]·b[i]) summed in
// math/big without rounding, then rounded once to the nearest float64, ties
// to even; NaN for a NaN term or infinities of both signs, ±Inf for one.
func exactSum(a, b []float64) float64 { return exactSumWith(a, b, 0, 0) }

// exactSumWith is exactSum with m more terms, each the finite v.
func exactSumWith(a, b []float64, v float64, m int64) float64 {
	acc := new(big.Float).SetPrec(4096)
	acc.Mul(new(big.Float).SetFloat64(v), new(big.Float).SetInt64(m))
	var nan, pinf, ninf bool
	for i := range a {
		t := float64(a[i] * b[i])
		switch {
		case math.IsNaN(t):
			nan = true
		case math.IsInf(t, 1):
			pinf = true
		case math.IsInf(t, -1):
			ninf = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(t))
		}
	}
	switch {
	case nan || pinf && ninf:
		return math.NaN()
	case pinf:
		return math.Inf(1)
	case ninf:
		return math.Inf(-1)
	}
	sum, _ := acc.Float64()
	return sum + 0 // an exact zero is +0
}

func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// nearCopies is one deposit short of the count at which Add propagates its
// deferred carries.
const nearCopies = 1<<30 - 1

// nearCarry returns a Sum holding nearCopies deposits of v: each of its
// digits is up to 2^62, so that two added before either is normalised
// overflow.
func nearCarry(v float64) Sum {
	var s Sum
	s.Add(v)
	for i := range s.d {
		s.d[i] *= nearCopies
	}
	s.deposits = nearCopies
	return s
}

// splitSums adds the products of a and b through Sums of k parts, each a
// random subset of the terms in a random order handed over in runs of random
// length, and merges the parts in a random order.  Where near is set, four
// more parts start one deposit short of their carry, each holding
// nearCopies copies of v, and take terms like the others.
func splitSums(a, b []float64, k int, rng *rand.Rand, near bool, v float64) float64 {
	perm := rng.Perm(len(a))
	pa, pb := make([]float64, len(a)), make([]float64, len(a))
	for i, p := range perm {
		pa[i], pb[i] = a[p], b[p]
	}
	parts := make([]Sum, k)
	if near {
		parts = append(parts, nearCarry(v), nearCarry(v), nearCarry(v), nearCarry(v))
	}
	for lo := 0; lo < len(pa); {
		n := 1 + rng.IntN(min(len(pa)-lo, 3*sumChunk))
		parts[rng.IntN(len(parts))].AddProducts(pa[lo:lo+n], pb[lo:lo+n])
		lo += n
	}
	var total Sum
	for _, i := range rng.Perm(len(parts)) {
		total.Merge(&parts[i])
	}
	return total.Round()
}

// nearCarryTerms are the terms splitSums loads its four parts near their
// carry with: a negative one near the top of the range, one whose 53 bits
// fill three digits, and the least subnormal, which fills the lowest.
var nearCarryTerms = []float64{-0x1.fffffffffffffp+900, 0x1.fffffffffffffp-3, 0x1p-1074}

// checkOrderFree holds every way of summing the products of a and b to the
// oracle, bit for bit: in order in one call, term by term, split into parts
// and merged (Merge), also beside four parts that start one deposit short of
// their carry and cancel, and each of those through the Go loop alone.
func checkOrderFree(t *testing.T, a, b []float64, seed uint64) {
	t.Helper()
	exact := exactSum(a, b)
	want := map[string]float64{}
	wantNear := make([]float64, len(nearCarryTerms))
	for i, v := range nearCarryTerms {
		wantNear[i] = exactSumWith(a, b, v, 4*nearCopies)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(len(a))))
	for _, goOnly := range []bool{false, true} {
		restore := goLoopsOnly(goOnly)
		var whole, single Sum
		whole.AddProducts(a, b)
		for i := range a {
			single.Add(float64(a[i] * b[i]))
		}
		got := map[string]float64{"one call": whole.Round(), "term by term": single.Round()}
		want["one call"], want["term by term"] = exact, exact
		for k := 1; k <= 4; k++ {
			how := fmt.Sprintf("%d parts", k)
			got[how], want[how] = splitSums(a, b, k, rng, false, 0), exact
			for i, v := range nearCarryTerms {
				how := fmt.Sprintf("%d parts and four of %v near their carry", k, v)
				got[how], want[how] = splitSums(a, b, k, rng, true, v), wantNear[i]
			}
		}
		restore()
		for how, v := range got {
			if w := want[how]; !sameBits(v, w) {
				t.Fatalf("go loop only %v, %s: %v (%#x), exact %v (%#x)", goOnly, how,
					v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
}

// termsFrom reads float64 bit patterns from data, eight bytes a term.
func termsFrom(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// bytesOf is termsFrom's inverse.
func bytesOf(terms ...float64) []byte {
	out := make([]byte, 0, 8*len(terms))
	for _, v := range terms {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestOrderFreeSumShapes: chunks that take the fast path, chunks that spill
// into chunkGo (a term far below the chunk's largest, a non-finite term),
// catastrophic cancellation, subnormals, the float64 range's ends and rows
// of every length around the lane step.
func TestOrderFreeSumShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	seeded := func(n int, scale func(i int) float64) ([]float64, []float64) {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = (2*rng.Float64() - 1) * scale(i)
			b[i] = 2*rng.Float64() - 1
		}
		return a, b
	}
	flat := func(int) float64 { return 1 }
	cases := map[string]func() ([]float64, []float64){
		"smooth": func() ([]float64, []float64) { return seeded(3000, flat) },
		"wide": func() ([]float64, []float64) {
			return seeded(3000, func(i int) float64 { return math.Ldexp(1, i%300-150) })
		},
		"one far term": func() ([]float64, []float64) { a, b := seeded(600, flat); a[77] = 1e-200; return a, b },
		"cancelling": func() ([]float64, []float64) {
			a, b := seeded(1000, flat)
			for i := 0; i < 500; i++ {
				a[500+i], b[500+i] = -a[i], b[i]
			}
			a[999] = 0x1p-60
			return a, b
		},
		"subnormal": func() ([]float64, []float64) {
			return seeded(700, func(i int) float64 { return math.Ldexp(1, -1070+i%40) })
		},
		"huge": func() ([]float64, []float64) {
			a, b := seeded(700, func(int) float64 { return math.MaxFloat64 })
			for i := range b {
				b[i] = math.Copysign(1, b[i])
			}
			return a, b
		},
		"overflowing products": func() ([]float64, []float64) {
			return seeded(64, func(int) float64 { return 1e300 })
		},
		"non-finite": func() ([]float64, []float64) {
			a, b := seeded(300, flat)
			a[5], a[200] = math.Inf(1), math.NaN()
			return a, b
		},
		"infinities": func() ([]float64, []float64) {
			a, b := seeded(300, flat)
			a[5], b[5], a[250], b[250] = math.Inf(1), 1, math.Inf(-1), 1
			return a, b
		},
		"zeros": func() ([]float64, []float64) {
			a, b := make([]float64, 40), make([]float64, 40)
			a[3] = math.Copysign(0, -1)
			return a, b
		},
	}
	for n := 0; n <= 20; n++ {
		cases[fmt.Sprintf("%d terms", n)] = func() ([]float64, []float64) { return seeded(n, flat) }
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := mk()
			checkOrderFree(t, a, b, 7)
		})
	}
}

// TestOrderFreeSumAcrossRanks: the terms split over 1 to 8 ranks, each rank
// taking a block of them, reduce to the same bits on every rank, the oracle's.
func TestOrderFreeSumAcrossRanks(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 5000
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = math.Ldexp(2*rng.Float64()-1, rng.IntN(80)-40), 2*rng.Float64()-1
	}
	want := exactSum(a, b)
	for np := 1; np <= 8; np++ {
		got := make([]float64, np)
		runWorld(t, np, mpi.Optimized(), func(c *mpi.Comm) error {
			lo, hi := petsc.OwnershipRange(n, np, c.Rank())
			var s Sum
			s.AddProducts(a[lo:hi], b[lo:hi])
			got[c.Rank()] = s.Allreduce(c, make([]float64, sumReduceLen))
			return nil
		})
		for r, v := range got {
			if !sameBits(v, want) {
				t.Fatalf("np %d rank %d: %v, exact %v", np, r, v, want)
			}
		}
	}
}

// FuzzOrderFreeSum draws float64 terms from raw bit patterns, so subnormals,
// ±0, NaN, ±Inf and the largest magnitudes all occur, multiplies every other
// one by its neighbour, and sums them in one call, term by term, and split
// into one to four parts merged by Sum.Merge in a random order, with and
// without four more parts that start one deposit short of their carry, each
// through the lane kernel and the Go loop: every result must be the math/big
// sum rounded once, bit for bit, NaN and infinities included.
func FuzzOrderFreeSum(f *testing.F) {
	f.Add(bytesOf(1, 2, 3), uint64(1))
	f.Add(bytesOf(1e308, 1e308, -1e308, -1e308, 1), uint64(2))
	f.Add(bytesOf(0x1p-1074, -0x1p-1074, 0x1p-1073, math.Copysign(0, -1)), uint64(3))
	f.Add(bytesOf(math.Inf(1), 1, math.NaN(), 2, math.Inf(-1)), uint64(4))
	f.Add(bytesOf(1, 0x1p-80, 1, -1, -1, 0x1p-160, 0x1p-300, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), uint64(5))
	long := make([]float64, 40)
	for i := range long {
		long[i] = math.Ldexp(float64(i+1), 3*i-60)
	}
	f.Add(bytesOf(long...), uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		terms := termsFrom(data)
		a, b := make([]float64, len(terms)), make([]float64, len(terms))
		for i, v := range terms {
			a[i], b[i] = v, 1
			if i%2 == 1 {
				b[i] = terms[i-1]
			}
		}
		checkOrderFree(t, a, b, seed)
	})
}

// BenchmarkDot and BenchmarkNorm2 price an inner product of two 96³ vectors
// on one rank: vec is petsc.Vec's one dependent chain, sum the order-free
// Sum through the lane kernel where the CPU has it, and sum/go through the
// Go loop alone.
func BenchmarkDot(b *testing.B) { benchInner(b, false) }

func BenchmarkNorm2(b *testing.B) { benchInner(b, true) }

func benchInner(b *testing.B, norm bool) {
	run := func(name string, goOnly bool, fn func(s *Solver, x, y *petsc.Vec) float64) {
		b.Run(name, func(b *testing.B) {
			defer goLoopsOnly(goOnly)()
			benchKernel(b, fineCells,
				func(s *Solver) int { return 16 * fineCells(s) },
				func(s *Solver, x, rhs, _, _ *petsc.Vec) {
					if norm {
						rhs = x
					}
					fn(s, x, rhs)
				})
		})
	}
	run("vec", false, func(_ *Solver, x, y *petsc.Vec) float64 {
		if norm {
			return x.Norm2()
		}
		return x.Dot(y)
	})
	sum := func(s *Solver, x, y *petsc.Vec) float64 { return s.dot(s.c, x, y) }
	run("sum", false, sum)
	run("sum/go", true, sum)
}
