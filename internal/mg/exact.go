package mg

import (
	"math"

	"nccd/internal/dmda"
	"nccd/internal/petsc"
)

// exactSolve is the coarsest level's direct solver under conjugate gradients:
// fast diagonalisation (Lynch, Rice and Thomas, "Direct solution of partial
// difference equations by tensor product methods", Numer. Math. 6, 1964).
// The level's operator is Σ_d inv[d]·T_d, T_d acting along axis d alone,
// each T_d the cell-centred Dirichlet tridiagonal matrix of the axis's n
// cells: 2 on the diagonal, 3 at either end (4 where n is 1), −1 off it.  Its
// eigenvectors are sines, sin(kπ(i+½)/n) for k = 1…n, with eigenvalues
// 4 sin²(kπ/2n), so A = Qᵀ Λ Q with Q the tensor product of the axes'
// orthonormal eigenvector matrices, and x = Qᵀ Λ⁻¹ Q b is three transforms
// along the axes, one division a cell and three transforms back.
//
// Every rank that holds coarse cells runs the same arithmetic on the same
// natural-order array: where the level spans ranks, the right-hand side is
// first gathered over the coarse communicator (PETSc's PCREDUNDANT), and each
// rank keeps its own box of the answer.  So x is the same bits at every rank
// count.
type exactSolve struct {
	dim int
	n   [3]int
	// q[d] is axis d's orthonormal eigenvector matrix, row k the k-th
	// eigenvector (q[d][k·n+i]), and qt[d] its transpose: each is the matrix a
	// transform applies, output index major.
	q, qt [3][]float64
	eig   []float64 // A's eigenvalue of every transformed cell, natural order
	u, v  []float64 // natural-order work arrays
	// gather and nat are the gather of a level that spans ranks and the
	// natural-order array it lands in; nil where this rank owns the whole
	// level, whose owned layout is the natural order.
	gather *dmda.NaturalGather
	nat    []float64
}

// sineBasis is the orthonormal eigenvector matrix of the n-cell T (see
// exactSolve), row k-1 the k-th eigenvector, and its n eigenvalues.
func sineBasis(n int) (q, lambda []float64) {
	q, lambda = make([]float64, n*n), make([]float64, n)
	for k := 1; k <= n; k++ {
		scale := math.Sqrt(2 / float64(n)) // ‖v_k‖² is n/2 for k < n, n for k = n
		if k == n {
			scale = math.Sqrt(1 / float64(n))
		}
		for i := range n {
			q[(k-1)*n+i] = scale * math.Sin(float64(k)*math.Pi*(float64(i)+0.5)/float64(n))
		}
		s := math.Sin(float64(k) * math.Pi / float64(2*n))
		lambda[k-1] = 4 * s * s
	}
	return q, lambda
}

// newExactSolve builds the exact solve of the coarsest level lv of s: the
// axes' bases, the eigenvalues, the work arrays and, where the level spans
// ranks, the gather; a level on one rank is owned whole, and its owned layout
// is the natural order.  Only a rank of the coarse communicator calls it.
func (s *Solver) newExactSolve(lv *level) *exactSolve {
	da := lv.da
	e := &exactSolve{dim: s.dim}
	for d := range 3 {
		e.n[d] = da.GlobalSize(d)
	}
	cells := da.NaturalCount()
	if da.Active() > 1 {
		e.gather = da.NewNaturalGather(s.coarseComm)
		e.nat = make([]float64, cells)
	}
	if da.OwnedBox().Empty() {
		return e // a member of the coarse communicator without coarse cells gathers only
	}
	var lambda [3][]float64
	for d := range s.dim {
		n := e.n[d]
		e.q[d], lambda[d] = sineBasis(n)
		e.qt[d] = make([]float64, n*n)
		for k := range n {
			for i := range n {
				e.qt[d][i*n+k] = e.q[d][k*n+i]
			}
		}
	}
	e.eig = make([]float64, cells)
	c := 0
	for k := range e.n[2] {
		for j := range e.n[1] {
			for i := range e.n[0] {
				at := [3]int{i, j, k}
				sum := 0.0
				for d := range s.dim {
					sum += float64(lv.inv[d] * lambda[d][at[d]])
				}
				e.eig[c] = sum
				c++
			}
		}
	}
	e.u, e.v = make([]float64, cells), make([]float64, cells)
	return e
}

// flops is the arithmetic the virtual clock charges one solve: a multiply and
// an add a cell for every term of the three transforms and the three back,
// and a division a cell.
func (e *exactSolve) flops() float64 {
	cells, terms := len(e.eig), 0
	for d := range e.dim {
		terms += e.n[d]
	}
	return float64(cells * (4*terms + 1))
}

// coarseExact solves A x = b on the coarsest level l exactly (exactSolve):
// it gathers b where the level spans ranks, and on a rank that holds coarse
// cells transforms, divides, transforms back and keeps its own box in x.
// Collective over the coarse communicator.
func (s *Solver) coarseExact(l int, b, x *petsc.Vec) {
	lv := s.levels[l]
	if lv.exact == nil {
		lv.exact = s.newExactSolve(lv)
	}
	e := lv.exact
	own := lv.da.OwnedBox()
	if e.gather == nil {
		if !own.Empty() {
			e.solve(b.Array(), x.Array())
			s.c.Compute(e.flops() * flopSec)
		}
		return
	}
	e.gather.Gather(b, e.nat)
	if own.Empty() {
		return
	}
	e.solve(e.nat, e.nat)
	s.c.Compute(e.flops() * flopSec)
	xa, nx := x.Array(), own.Hi[0]-own.Lo[0]
	o := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			o += copy(xa[o:o+nx], e.nat[(k*e.n[1]+j)*e.n[0]+own.Lo[0]:])
		}
	}
}

// solve writes into out the solution of A x = in, both in natural order; out
// may be in.  The transforms run along x, y and z, the transforms back along
// z, y and x, each from one work array into the other.
func (e *exactSolve) solve(in, out []float64) {
	work := [2][]float64{e.u, e.v}
	src, k := in, 0
	for d := range e.dim {
		e.transform(d, e.q[d], src, work[k])
		src, k = work[k], 1-k
	}
	for c, v := range src {
		src[c] = v / e.eig[c]
	}
	for d := e.dim - 1; d >= 0; d-- {
		dst := work[k]
		if d == 0 {
			dst = out
		}
		e.transform(d, e.qt[d], src, dst)
		src, k = dst, 1-k
	}
}

// transform writes into dst the natural-order array src transformed along
// axis d by the matrix m, output index major: dst's cell a along d is the sum
// over b of m[a·n+b] times src's cell b, added in ascending b from +0.  Along
// x it is a dot product a cell; along y and z the same sums, a contiguous run
// of cells at a time.
func (e *exactSolve) transform(d int, m, src, dst []float64) {
	n := e.n[d]
	if d == 0 {
		for r := 0; r < len(src); r += n {
			in, out := src[r:r+n], dst[r:r+n]
			for a := range out {
				row := m[a*n : a*n+n]
				acc := 0.0
				for b, v := range in {
					acc += float64(row[b] * v)
				}
				out[a] = acc
			}
		}
		return
	}
	run := e.n[0] // the cells one step along d apart
	if d == 2 {
		run *= e.n[1]
	}
	for base := 0; base < len(src); base += n * run {
		for a := range n {
			out := dst[base+a*run : base+(a+1)*run]
			clear(out)
			for b := range n {
				w, in := m[a*n+b], src[base+b*run:base+(b+1)*run]
				for i, v := range in {
					out[i] += float64(w * v)
				}
			}
		}
	}
}
