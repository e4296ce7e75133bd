package mg

import (
	"math"
	"math/bits"

	"nccd/internal/mpi"
)

// Order-free sums (DESIGN §19 "Krylov outer iteration").  The inner products
// of the outer conjugate gradients go through Sum, whose result is the exact
// sum of its float64 terms rounded once to nearest even: a function of the
// multiset of terms alone, whatever their order, however many lanes or
// chunks take them and however the ranks split them.  So x and History are
// the same bits at every rank count.
//
// A Sum holds a fixed-point superaccumulator: sumDigits signed 32-bit digits
// in int64 words, bit 0 of digit 0 worth 2^-1074, the least subnormal, so
// every finite float64 is a whole number of units.  A term is deposited into
// the two or three digits its 53 bits span; carries are deferred.  Ranks
// combine normalised digits, each below 2^32, as float64 through one
// Allreduce(OpSum): below 2^53/size they sum exactly in any order.
//
// Depositing term by term is the oracle and the slow path.  The fast path
// takes the terms in chunks of at most sumChunk: a first pass finds the
// chunk's largest magnitude, below 2^E, and a second runs every term through
// three fixed-anchor folds, each a FastTwoSum of an accumulator anchored at
// 1.5·2^(E_k+sumWindow) and the term or the error the fold before it left:
// s' = s + t, q = s' − s, t' = t − q.  While the accumulator stays inside its
// binade every fold is error-free, and its change over the chunk is a whole
// multiple of its ulp, so the chunk's sum is the three changes plus every
// third-fold error exactly.  A chunk whose third-fold errors are all zero
// (every term within about 2^-69 of the chunk's largest) deposits the three
// changes; any other, and any chunk with a term that is not finite, runs
// again through chunkGo, which deposits the nonzero third-fold errors too.
// Where the CPU has AVX2 (useLanes) both passes run in the lanes of two YMM
// registers (sum_amd64.s); the results are exact either way, so the lane
// kernel and the Go loop agree bit for bit.

const (
	// sumDigits covers every bit of a finite float64 (positions 0 to 2098 in
	// units of 2^-1074) with room for the carries of 2^30 full-size terms.
	sumDigits = 68
	// sumChunk is the most terms one fast chunk takes, 2^(sumWindow−2): a
	// fold accumulator then moves less than a quarter of its binade.
	sumWindow = 12
	sumChunk  = 1 << (sumWindow - 2)
	// sumMinExp and sumMaxExp bound the E a fast chunk may have: the third
	// fold's anchor must be a normal number whose ulp is at least 2^-1074, the
	// first's finite.
	sumMinExp = -1022 + 106 - 3*sumWindow
	sumMaxExp = 1023 - sumWindow
	// sumReduceLen is the length of the vector Allreduce combines: the digits
	// and the counts of NaN, +Inf and −Inf terms.
	sumReduceLen = sumDigits + 3
)

// sumMaxM and sumMinM are 2^sumMaxExp, above every fast chunk's largest
// magnitude, and 2^(sumMinExp−1), below which a chunk takes E = sumMinExp.
var sumMaxM, sumMinM = math.Ldexp(1, sumMaxExp), math.Ldexp(1, sumMinExp-1)

// Sum accumulates float64 terms exactly.  Its zero value is the empty sum.
type Sum struct {
	d               [sumDigits]int64
	deposits        int
	nan, pinf, ninf int64
	sig             [3]float64 // the chunk's anchors, handed to foldLanes
	fold            [4]float64 // foldLanes' three changes and its error bits
}

// Reset empties s.
func (s *Sum) Reset() { *s = Sum{} }

// Add deposits one term.
func (s *Sum) Add(v float64) {
	b := math.Float64bits(v)
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	switch {
	case exp == 0x7ff:
		switch {
		case mant != 0:
			s.nan++
		case b>>63 != 0:
			s.ninf++
		default:
			s.pinf++
		}
		return
	case exp == 0:
		if mant == 0 {
			return
		}
	default:
		mant |= 1 << 52
		exp--
	}
	// v is ±mant·2^exp units of 2^-1074.
	i, sh := exp>>5, uint(exp&31)
	lo, hi := mant<<sh, mant>>(64-sh)
	d0, d1, d2 := int64(lo&0xffffffff), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	s.d[i] += d0
	s.d[i+1] += d1
	s.d[i+2] += d2
	if s.deposits++; s.deposits == 1<<30 {
		s.carry()
	}
}

// carry propagates the deferred carries: every digit but the top one ends
// in [0, 2^32), and the top one, signed, carries the sum's sign.
func (s *Sum) carry() {
	var c int64
	for i := 0; i < sumDigits-1; i++ {
		v := s.d[i] + c
		s.d[i] = v & 0xffffffff
		c = v >> 32
	}
	s.d[sumDigits-1] += c
	s.deposits = 0
}

// Merge adds every term of o to s, exactly, as Allreduce adds the ranks'
// digits: both are normalised first, so the digits' sum stays far from the
// int64 range whatever the deposits either side had deferred.  o keeps its
// sum.
func (s *Sum) Merge(o *Sum) {
	s.carry()
	o.carry()
	for i := range s.d {
		s.d[i] += o.d[i]
	}
	s.nan += o.nan
	s.pinf += o.pinf
	s.ninf += o.ninf
}

// AddProducts adds the terms float64(a[i]·b[i]) for every i < len(a); b must
// be at least as long.  AddProducts(a, a) adds the squares.
func (s *Sum) AddProducts(a, b []float64) {
	b = b[:len(a)]
	for len(a) > 0 {
		n := min(len(a), sumChunk)
		s.chunk(a[:n], b[:n])
		a, b = a[n:], b[n:]
	}
}

// chunk adds the products of at most sumChunk terms, through the fast path
// where the chunk allows it and chunkGo where it does not.
func (s *Sum) chunk(a, b []float64) {
	k := 0
	if useLanes {
		k = len(a) &^ 7
	}
	m := maxAbsProducts(a[k:], b[k:])
	if k > 0 {
		m = max(m, maxLanes(a[:k], b[:k]))
	}
	if !s.anchor(m) {
		s.chunkGo(a, b)
		return
	}
	var d [3]float64
	var errBits uint64
	if k > 0 {
		foldLanes(a[:k], b[:k], &s.sig, &s.fold)
		d = [3]float64{s.fold[0], s.fold[1], s.fold[2]}
		errBits = math.Float64bits(s.fold[3])
	}
	t, e := foldGo(a[k:], b[k:], &s.sig)
	if (errBits|e)&^(1<<63) != 0 {
		s.chunkGo(a, b)
		return
	}
	// Each fold's changes are whole multiples of its ulp, together under a
	// quarter of its binade, so these adds are exact.
	for f := range d {
		s.Add(d[f] + t[f])
	}
}

// anchor sets s.sig to the three folds' anchors for a chunk whose largest
// product magnitude is m, and reports whether m allows the fast path: it is
// finite, and the anchors of the E with m < 2^E are in range.  A chunk below
// 2^sumMinExp takes E = sumMinExp, whose third fold reaches 2^-1074.
func (s *Sum) anchor(m float64) bool {
	if !(m < sumMaxM) {
		return false // NaN, ±Inf, or too large for the first anchor
	}
	e := sumMinExp
	if m >= sumMinM { // m in [2^(e−1), 2^e) with e ≥ sumMinExp
		e = int(math.Float64bits(m)>>52) - 1022
	}
	for f := range s.sig {
		// 1.5·2^(E + (f+1)·sumWindow − 53·f)
		s.sig[f] = math.Float64frombits(uint64(e+(f+1)*sumWindow-53*f+1023)<<52 | 1<<51)
	}
	return true
}

// maxAbsProducts is the largest finite |float64(a[i]·b[i])|, 0 for none.  A
// product that is not finite is left to the folds, whose error it makes NaN.
func maxAbsProducts(a, b []float64) float64 {
	b = b[:len(a)]
	m := 0.0
	for i := range a {
		if t := math.Abs(float64(a[i] * b[i])); t > m && t <= math.MaxFloat64 {
			m = t
		}
	}
	return m
}

// foldGo runs the three folds over the products of a and b, anchored at sig,
// one term at a time, and returns each fold's change and the OR of the bits
// of every third-fold error.
func foldGo(a, b []float64, sig *[3]float64) (d [3]float64, errBits uint64) {
	b = b[:len(a)]
	s0, s1, s2 := sig[0], sig[1], sig[2]
	for i := range a {
		t := float64(a[i] * b[i])
		x := s0 + t
		t -= x - s0
		s0 = x
		x = s1 + t
		t -= x - s1
		s1 = x
		x = s2 + t
		t -= x - s2
		s2 = x
		errBits |= math.Float64bits(t)
	}
	return [3]float64{s0 - sig[0], s1 - sig[1], s2 - sig[2]}, errBits
}

// chunkGo adds the products of a and b one at a time, exactly whatever they
// are: through the folds where the finite products allow it, depositing
// every nonzero third-fold error and every term that is not finite, and
// term by term where they do not.
func (s *Sum) chunkGo(a, b []float64) {
	b = b[:len(a)]
	if !s.anchor(maxAbsProducts(a, b)) {
		for i := range a {
			s.Add(float64(a[i] * b[i]))
		}
		return
	}
	s0, s1, s2 := s.sig[0], s.sig[1], s.sig[2]
	for i := range a {
		t := float64(a[i] * b[i])
		if !(math.Abs(t) <= math.MaxFloat64) {
			s.Add(t)
			continue
		}
		x := s0 + t
		t -= x - s0
		s0 = x
		x = s1 + t
		t -= x - s1
		s1 = x
		x = s2 + t
		t -= x - s2
		s2 = x
		if t != 0 {
			s.Add(t)
		}
	}
	s.Add(s0 - s.sig[0])
	s.Add(s1 - s.sig[1])
	s.Add(s2 - s.sig[2])
}

// Round returns the sum rounded once to the nearest float64, ties to even:
// NaN if a term was NaN or there were infinities of both signs, else ±Inf if
// there was one, and +0 for an exact zero.
func (s *Sum) Round() float64 {
	switch {
	case s.nan > 0 || s.pinf > 0 && s.ninf > 0:
		return math.NaN()
	case s.pinf > 0:
		return math.Inf(1)
	case s.ninf > 0:
		return math.Inf(-1)
	}
	s.carry()
	mag := s.d
	neg := mag[sumDigits-1] < 0
	if neg {
		for i := range mag {
			mag[i] = -mag[i]
		}
		var c int64
		for i := range mag {
			v := mag[i] + c
			mag[i] = v & 0xffffffff
			c = v >> 32
		}
	}
	t := sumDigits - 1
	for t >= 0 && mag[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	digit := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		return uint64(mag[i])
	}
	var v float64
	if top := bits.Len64(uint64(mag[t])); 32*t+top <= 53 {
		v = math.Ldexp(float64(digit(1)<<32|digit(0)), -1074) // exact, subnormal or not
	} else {
		// The magnitude's 64 leading bits, and whether any bit below them is set.
		w := digit(t)<<(64-top) | digit(t-1)<<(32-top) | digit(t-2)>>top
		sticky := digit(t-2)&(1<<top-1) != 0
		for i := t - 3; i >= 0 && !sticky; i-- {
			sticky = mag[i] != 0
		}
		m := w >> 11
		if w&(1<<10) != 0 && (w&(1<<10-1) != 0 || sticky || m&1 != 0) {
			m++
		}
		v = math.Ldexp(float64(m), 32*t+top-53-1074)
	}
	if neg {
		return -v
	}
	return v
}

// Allreduce replaces s on every rank of c by the sum of every rank's s and
// returns it rounded once (Round), the same bits on every rank.  buf holds
// sumReduceLen values and is overwritten.  Collective; a rank alone sends
// nothing.
func (s *Sum) Allreduce(c *mpi.Comm, buf []float64) float64 {
	if c.Size() > 1 {
		s.carry()
		buf = buf[:sumReduceLen]
		for i, v := range s.d {
			buf[i] = float64(v)
		}
		buf[sumDigits], buf[sumDigits+1], buf[sumDigits+2] = float64(s.nan), float64(s.pinf), float64(s.ninf)
		c.Allreduce(buf, mpi.OpSum)
		for i := range s.d {
			s.d[i] = int64(buf[i])
		}
		s.nan, s.pinf, s.ninf = int64(buf[sumDigits]), int64(buf[sumDigits+1]), int64(buf[sumDigits+2])
	}
	return s.Round()
}
