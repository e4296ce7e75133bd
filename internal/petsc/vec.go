// Package petsc reimplements the slice of PETSc the paper exercises:
// parallel vectors, index sets, and the general vector scatter that carries
// all of PETSc's implicit communication (ghost updates, redistribution,
// multigrid transfer).  The scatter runs over two backends covering the
// paper's three experimental arms: PETSc's default hand-tuned pack/isend
// path, and an MPI derived-datatype + collective path whose behaviour
// (baseline vs. optimized) is inherited from the mpi.World configuration.
package petsc

import (
	"fmt"
	"math"

	"nccd/internal/mpi"
)

// flopSec is the virtual-time cost of one floating-point operation on a
// nominal-speed rank (mid-2000s x86 core, ~1.7 GFLOP/s sustained).
const flopSec = 0.6e-9

// Vec is a parallel vector distributed in contiguous blocks across ranks,
// PETSc-style: rank r owns the index range [lo, hi) with sizes as equal as
// possible (the first global%size ranks get one extra element).
type Vec struct {
	c      *mpi.Comm
	global int
	lo, hi int
	a      []float64
}

// NewVec creates a distributed vector of the given global size, initialized
// to zero.  Collective: every rank must call it with the same size.
func NewVec(c *mpi.Comm, global int) *Vec {
	if global < 0 {
		panic("petsc: negative vector size")
	}
	lo, hi := OwnershipRange(global, c.Size(), c.Rank())
	return &Vec{c: c, global: global, lo: lo, hi: hi, a: make([]float64, hi-lo)}
}

// NewVecWithSizes creates a distributed vector whose per-rank local sizes
// are given explicitly (sizes must be identical on every rank and have one
// entry per rank).  Distributed arrays use this for grid-shaped layouts
// that the uniform block distribution cannot express.
func NewVecWithSizes(c *mpi.Comm, sizes []int) *Vec {
	if len(sizes) != c.Size() {
		panic(fmt.Sprintf("petsc: %d sizes for %d ranks", len(sizes), c.Size()))
	}
	lo, global := 0, 0
	for r, n := range sizes {
		if n < 0 {
			panic("petsc: negative local size")
		}
		if r < c.Rank() {
			lo += n
		}
		global += n
	}
	me := sizes[c.Rank()]
	return &Vec{c: c, global: global, lo: lo, hi: lo + me, a: make([]float64, me)}
}

// OwnershipRange returns the [lo, hi) index range rank owns under the
// standard PETSc block distribution of global elements over size ranks.
func OwnershipRange(global, size, rank int) (lo, hi int) {
	base := global / size
	rem := global % size
	lo = rank*base + min(rank, rem)
	n := base
	if rank < rem {
		n++
	}
	return lo, lo + n
}

// Owner returns the rank owning global index i in a vector of the given
// global size over size ranks.
func Owner(global, size, i int) int {
	if i < 0 || i >= global {
		panic(fmt.Sprintf("petsc: index %d out of range [0,%d)", i, global))
	}
	base := global / size
	rem := global % size
	cut := rem * (base + 1)
	if i < cut {
		return i / (base + 1)
	}
	if base == 0 {
		return rem // all remaining ranks own nothing; clamp
	}
	return rem + (i-cut)/base
}

// Comm returns the communicator the vector lives on.
func (v *Vec) Comm() *mpi.Comm { return v.c }

// GlobalSize returns the global element count.
func (v *Vec) GlobalSize() int { return v.global }

// LocalSize returns the locally owned element count.
func (v *Vec) LocalSize() int { return len(v.a) }

// Range returns the locally owned [lo, hi) global index range.
func (v *Vec) Range() (lo, hi int) { return v.lo, v.hi }

// Array returns the local values; indices are local (global index lo+i).
// The slice aliases the vector storage.
func (v *Vec) Array() []float64 { return v.a }

// Duplicate returns a new zeroed vector with the same layout.
func (v *Vec) Duplicate() *Vec {
	return &Vec{c: v.c, global: v.global, lo: v.lo, hi: v.hi, a: make([]float64, len(v.a))}
}

// sameLayout panics unless w matches v's distribution.
func (v *Vec) sameLayout(w *Vec) {
	if v.global != w.global || v.lo != w.lo || v.hi != w.hi {
		panic("petsc: vector layout mismatch")
	}
}

// Set assigns alpha to every element.
func (v *Vec) Set(alpha float64) {
	for i := range v.a {
		v.a[i] = alpha
	}
	v.charge(len(v.a))
}

// Copy copies x into v.
func (v *Vec) Copy(x *Vec) {
	v.sameLayout(x)
	copy(v.a, x.a)
	v.charge(len(v.a))
}

// Scale multiplies every element by alpha.
func (v *Vec) Scale(alpha float64) {
	for i := range v.a {
		v.a[i] *= alpha
	}
	v.charge(len(v.a))
}

// AXPY computes v += alpha*x.
func (v *Vec) AXPY(alpha float64, x *Vec) {
	v.sameLayout(x)
	for i, xv := range x.a {
		v.a[i] += alpha * xv
	}
	v.charge(2 * len(v.a))
}

// AYPX computes v = alpha*v + x.
func (v *Vec) AYPX(alpha float64, x *Vec) {
	v.sameLayout(x)
	for i, xv := range x.a {
		v.a[i] = alpha*v.a[i] + xv
	}
	v.charge(2 * len(v.a))
}

// Dot returns the global inner product <v, x>.  Collective.
func (v *Vec) Dot(x *Vec) float64 {
	v.sameLayout(x)
	s := 0.0
	for i, xv := range x.a {
		s += v.a[i] * xv
	}
	v.charge(2 * len(v.a))
	return v.c.AllreduceScalar(s, mpi.OpSum)
}

// Norm2 returns the global 2-norm.  Collective.
func (v *Vec) Norm2() float64 {
	s := 0.0
	for _, x := range v.a {
		s += x * x
	}
	v.charge(2 * len(v.a))
	return math.Sqrt(v.c.AllreduceScalar(s, mpi.OpSum))
}

// NormInf returns the global max-norm.  Collective.
func (v *Vec) NormInf() float64 {
	m := 0.0
	for _, x := range v.a {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	v.charge(len(v.a))
	return v.c.AllreduceScalar(m, mpi.OpMax)
}

// Sum returns the global sum of all elements.  Collective.
func (v *Vec) Sum() float64 {
	s := 0.0
	for _, x := range v.a {
		s += x
	}
	v.charge(len(v.a))
	return v.c.AllreduceScalar(s, mpi.OpSum)
}

// SetFromFunc fills the local part using f(globalIndex).
func (v *Vec) SetFromFunc(f func(i int) float64) {
	for i := range v.a {
		v.a[i] = f(v.lo + i)
	}
	v.charge(len(v.a))
}

// charge accounts n flops of local work.
func (v *Vec) charge(n int) {
	v.c.Compute(float64(n) * flopSec)
}
