package mg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nccd/internal/dmda"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// This file is the solver kernels' oracle: the stencil, restriction and
// interpolation loops as they stood before the row-classified and
// table-driven kernels replaced them, and the V-cycle as it drove them (a
// vector copy after every Jacobi sweep, the residual as a stencil pass
// plus an AYPX pass, fresh conjugate-gradient scratch on every coarse
// solve).  They make every decision per cell and are kept only to be
// compared against, bit for bit.  They read every cell, owned or ghost, from
// a ghosted array that GlobalToLocal filled, which the reference allocates
// itself: the solver's lwork holds ghost cells only, and is absent where
// there are none.  Likewise refRestrict reads every fine cell from a finePatch
// that a whole patch scatter filled, and the solver's holds received cells
// only and is absent where there are none: refPatches lends the oracle one.
//
// Every product that feeds an add carries an explicit float64 conversion,
// here and in the kernels alike, so that a compiler that fuses multiply-add
// (arm64) rounds both sides the same way.

// refGhosted is x of level lv as GlobalToLocal lays it out, owned box and
// ghosts, in an array of its own.
func refGhosted(lv *level, x *petsc.Vec) []float64 {
	lw := lv.da.CreateLocalArray()
	lv.da.GlobalToLocal(x, lw)
	return lw
}

// refPatches allocates a finePatch on every level of s that does without one,
// for refRestrict to scatter into and read; the function it returns takes
// them away again.
func refPatches(s *Solver) (restore func()) {
	var lent []*level
	for _, lv := range s.levels {
		if lv.restrictSc != nil && lv.finePatch == nil {
			lv.finePatch = make([]float64, lv.restrictBox.Cells())
			lent = append(lent, lv)
		}
	}
	return func() {
		for _, lv := range lent {
			lv.finePatch = nil
		}
	}
}

// refStencil is the per-cell general form over the ghosted array lw: a loop
// over dimensions with two domain-face tests in every cell.
func refStencil(s *Solver, lv *level, lw, y []float64, jac []float64, omega float64) {
	da := lv.da
	own := da.OwnedBox()
	ghost := da.GhostBox()
	inv := [3]float64{}
	for d := 0; d < s.dim; d++ {
		inv[d] = 1 / (lv.h[d] * lv.h[d])
	}
	gnx := ghost.Hi[0] - ghost.Lo[0]
	gny := ghost.Hi[1] - ghost.Lo[1]
	strides := [3]int{1, gnx, gnx * gny}

	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			row := da.LocalIndex(own.Lo[0], j, k, 0)
			out := refBoxRowIndex(own, j, k)
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				li := row + (i - own.Lo[0])
				u := lw[li]
				coords := [3]int{i, j, k}
				acc := 0.0
				diag := 0.0
				for d := 0; d < s.dim; d++ {
					cd := 2.0
					if coords[d] > 0 {
						acc -= float64(inv[d] * lw[li-strides[d]])
					} else {
						cd++
					}
					if coords[d] < lv.da.GlobalSize(d)-1 {
						acc -= float64(inv[d] * lw[li+strides[d]])
					} else {
						cd++
					}
					acc += float64(cd * inv[d] * u)
					diag += float64(cd * inv[d])
				}
				oi := out + (i - own.Lo[0])
				if jac == nil {
					y[oi] = acc
				} else {
					y[oi] = u + float64(omega/diag*(jac[oi]-acc))
				}
			}
		}
	}
	s.c.Compute(float64(own.Cells()) * float64(4*s.dim+3) * flopSec)
}

func refBoxRowIndex(b dmda.Box, j, k int) int {
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	return ((k-b.Lo[2])*ny + (j - b.Lo[1])) * nx
}

func refPatchIndex(b dmda.Box, i, j, k int) int {
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	return ((k-b.Lo[2])*ny+(j-b.Lo[1]))*nx + (i - b.Lo[0])
}

// refRestrict derives the adjoint weights of every coarse cell from
// interpWeights through a closure and indexes the patch per term.
func refRestrict(s *Solver, l int, rf, out *petsc.Vec) {
	fine := s.levels[l]
	coarse := s.levels[l+1]
	fine.restrictSc.DoArrays(rf.Array(), fine.finePatch)

	cOwn := coarse.da.OwnedBox()
	box := fine.restrictBox
	scale := 1.0
	for d := 0; d < s.dim; d++ {
		scale /= 2
	}
	oa := out.Array()

	candWeights := func(d, ci int, fis *[4]int, ws *[4]float64) int {
		if d >= s.dim {
			fis[0], ws[0] = ci, 1
			return 1
		}
		nf := fine.da.GlobalSize(d)
		nc := coarse.da.GlobalSize(d)
		n := 0
		for fi := 2*ci - 1; fi < 2*ci+3; fi++ {
			if fi < 0 || fi >= nf {
				continue
			}
			lo, wLo, wHi := interpWeights(fi, true, nc)
			var w float64
			switch {
			case lo == ci:
				w = wLo
			case lo+1 == ci:
				w = wHi
			}
			if w != 0 {
				fis[n], ws[n] = fi, w
				n++
			}
		}
		return n
	}

	var fiX, fiY, fiZ [4]int
	var wX, wY, wZ [4]float64
	idx := 0
	for k := cOwn.Lo[2]; k < cOwn.Hi[2]; k++ {
		nz := candWeights(2, k, &fiZ, &wZ)
		for j := cOwn.Lo[1]; j < cOwn.Hi[1]; j++ {
			ny := candWeights(1, j, &fiY, &wY)
			for i := cOwn.Lo[0]; i < cOwn.Hi[0]; i++ {
				nx := candWeights(0, i, &fiX, &wX)
				sum := 0.0
				for a := 0; a < nz; a++ {
					for b := 0; b < ny; b++ {
						for c := 0; c < nx; c++ {
							sum += float64(wZ[a] * wY[b] * wX[c] *
								fine.finePatch[refPatchIndex(box, fiX[c], fiY[b], fiZ[a])])
						}
					}
				}
				oa[idx] = sum * scale
				idx++
			}
		}
	}
	s.c.Compute(float64(cOwn.Cells()) * float64(int(4)<<uint(s.dim)) * flopSec)
}

type refCW struct {
	c int
	w float64
}

// refInterpolate recomputes interpWeights for every cell of every
// dimension and skips absent weights term by term.
func refInterpolate(s *Solver, l int, xc, x *petsc.Vec) {
	fine := s.levels[l]
	coarse := s.levels[l+1]
	fine.interpSc.DoArrays(xc.Array(), fine.coarsePatch)

	fOwn := fine.da.OwnedBox()
	box := fine.interpBox
	xa := x.Array()
	cn := coarse.da
	idx := 0
	for k := fOwn.Lo[2]; k < fOwn.Hi[2]; k++ {
		ck, wkLo, wkHi := interpWeights(k, s.dim > 2, cn.GlobalSize(2))
		for j := fOwn.Lo[1]; j < fOwn.Hi[1]; j++ {
			cj, wjLo, wjHi := interpWeights(j, s.dim > 1, cn.GlobalSize(1))
			for i := fOwn.Lo[0]; i < fOwn.Hi[0]; i++ {
				ci, wiLo, wiHi := interpWeights(i, s.dim > 0, cn.GlobalSize(0))
				v := 0.0
				for _, zk := range [2]refCW{{ck, wkLo}, {ck + 1, wkHi}} {
					if zk.w == 0 {
						continue
					}
					for _, zj := range [2]refCW{{cj, wjLo}, {cj + 1, wjHi}} {
						if zj.w == 0 {
							continue
						}
						for _, zi := range [2]refCW{{ci, wiLo}, {ci + 1, wiHi}} {
							if zi.w == 0 {
								continue
							}
							v += float64(zk.w * zj.w * zi.w * fine.coarsePatch[refPatchIndex(box, zi.c, zj.c, zk.c)])
						}
					}
				}
				xa[idx] += v
				idx++
			}
		}
	}
	s.c.Compute(float64(fOwn.Cells()) * float64(int(3)<<uint(s.dim)) * flopSec)
}

// smooth runs sweeps sweeps of damped Jacobi on level l for A x = b, the
// first of them from what from says of x, as the one wavefront of its stages.
func (s *Solver) smooth(l, sweeps int, from sweepStart, b, x *petsc.Vec) {
	lv := s.levels[l]
	lv.wave.stages = lv.wave.stages[:0]
	s.addSmooth(lv, sweeps, from, b, x)
	s.run(l)
}

// restrictPass and interpolatePass are the solver's two level transfers as
// whole passes, as the pass-by-pass V-cycle ran them: the patch scatter, every
// owned row, the charge.
func restrictPass(s *Solver, l int, rf, out *petsc.Vec) {
	s.restrictScatter(l, rf)
	s.restrictTo(l, rf, out, ownedRows(s.levels[l+1].da.OwnedBox()))
	s.chargeRestrict(l)
}

func interpolatePass(s *Solver, l int, xc, x *petsc.Vec) {
	fine := s.levels[l]
	fine.interpSc.DoArrays(xc.Array(), fine.coarsePatch)
	s.interpolateAdd(l, x, ownedRows(fine.da.OwnedBox()))
	s.chargeInterp(l)
}

func refApplyLevel(s *Solver, l int, x, y *petsc.Vec) {
	lv := s.levels[l]
	refStencil(s, lv, refGhosted(lv, x), y.Array(), nil, 0)
}

func refResidual(s *Solver, l int, b, x, r *petsc.Vec) {
	refApplyLevel(s, l, x, r)
	r.AYPX(-1, b)
}

func refSmooth(s *Solver, l, sweeps int, b, x *petsc.Vec) {
	lv := s.levels[l]
	xnew := lv.r
	for it := 0; it < sweeps; it++ {
		refStencil(s, lv, refGhosted(lv, x), xnew.Array(), b.Array(), omega)
		x.Copy(xnew)
	}
}

// refCoarseSolve is the coarse solve: exact under conjugate gradients
// (refExactSolve), conjugate gradients with one-double reductions under
// Richardson.
func refCoarseSolve(s *Solver, l int, b, x *petsc.Vec) {
	dotComm := s.coarseComm
	if dotComm == nil {
		return
	}
	if !s.Richardson {
		refExactSolve(s, l, b, x)
		return
	}
	lv := s.levels[l]
	// Every product goes into one chain a rank, as PETSc's VecDot adds them.
	dot := func(a, b *petsc.Vec) float64 {
		sum := 0.0
		ba := b.Array()
		for i, v := range a.Array() {
			sum += v * ba[i]
		}
		s.c.Compute(float64(2*len(ba)) * flopSec)
		return dotComm.AllreduceScalar(sum, mpi.OpSum)
	}

	r := lv.r
	refApplyLevel(s, l, x, r)
	r.AYPX(-1, b)
	rr := dot(r, r)
	bnorm := dot(b, b)
	if bnorm == 0 {
		bnorm = 1
	}
	tol2 := coarseRtol * coarseRtol * bnorm
	if rr <= tol2 {
		return
	}
	p := b.Duplicate()
	ap := b.Duplicate()
	p.Copy(r)
	for it := 0; it < coarseIts; it++ {
		refApplyLevel(s, l, p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return
		}
		alpha := rr / pap
		x.AXPY(alpha, p)
		r.AXPY(-alpha, ap)
		rrNew := dot(r, r)
		if rrNew <= tol2 {
			return
		}
		p.AYPX(rrNew/rr, r)
		rr = rrNew
	}
}

// refExactSolve is the exact coarse solve as plain loops over the natural
// array, from the formulas: b gathered over the coarse communicator where the
// level spans ranks (a rank that owns the whole level holds it in natural
// order), every transformed cell one sum from +0 over the cells of its line
// in ascending order, along x, y and z, a division by the sum over the axes of
// inv[d] times the eigenvalue, and the transforms back along z, y and x.  Each
// rank keeps its own box.
func refExactSolve(s *Solver, l int, b, x *petsc.Vec) {
	lv := s.levels[l]
	da := lv.da
	nat := b.Array()
	if da.Active() > 1 {
		nat = make([]float64, da.NaturalCount())
		da.NewNaturalGather(s.coarseComm).Gather(b, nat)
	}
	own := da.OwnedBox()
	if own.Empty() {
		return
	}
	var n [3]int
	for d := range n {
		n[d] = da.GlobalSize(d)
	}
	var q [3][][]float64 // q[d][k-1][i] is the k-th eigenvector of axis d at cell i
	var lambda [3][]float64
	terms := 0
	for d := range s.dim {
		terms += n[d]
		for k := 1; k <= n[d]; k++ {
			scale := math.Sqrt(2 / float64(n[d]))
			if k == n[d] {
				scale = math.Sqrt(1 / float64(n[d]))
			}
			v := make([]float64, n[d])
			for i := range v {
				v[i] = scale * math.Sin(float64(k)*math.Pi*(float64(i)+0.5)/float64(n[d]))
			}
			q[d] = append(q[d], v)
			sn := math.Sin(float64(k) * math.Pi / float64(2*n[d]))
			lambda[d] = append(lambda[d], 4*sn*sn)
		}
	}
	stride := [3]int{1, n[0], n[0] * n[1]}
	each := func(f func(c int, at [3]int)) {
		c := 0
		for k := range n[2] {
			for j := range n[1] {
				for i := range n[0] {
					f(c, [3]int{i, j, k})
					c++
				}
			}
		}
	}
	along := func(d int, back bool, src []float64) []float64 {
		dst := make([]float64, len(src))
		each(func(c int, at [3]int) {
			acc := 0.0
			for m := range n[d] {
				w := q[d][at[d]][m]
				if back {
					w = q[d][m][at[d]]
				}
				acc += float64(w * src[c+(m-at[d])*stride[d]])
			}
			dst[c] = acc
		})
		return dst
	}
	u := nat
	for d := range s.dim {
		u = along(d, false, u)
	}
	each(func(c int, at [3]int) {
		eig := 0.0
		for d := range s.dim {
			eig += float64(lv.inv[d] * lambda[d][at[d]])
		}
		u[c] /= eig
	})
	for d := s.dim - 1; d >= 0; d-- {
		u = along(d, true, u)
	}
	s.c.Compute(float64(len(u)*(4*terms+1)) * flopSec)
	xa := x.Array()
	o := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				xa[o] = u[(k*n[1]+j)*n[0]+i]
				o++
			}
		}
	}
}

func refVCycle(s *Solver, l int, b, x *petsc.Vec) {
	if l == len(s.levels)-1 {
		refCoarseSolve(s, l, b, x)
		return
	}
	refSmooth(s, l, nu1, b, x)
	lv := s.levels[l]
	refResidual(s, l, b, x, lv.r)
	next := s.levels[l+1]
	refRestrict(s, l, lv.r, next.b)
	next.x.Set(0)
	refVCycle(s, l+1, next.b, next.x)
	refInterpolate(s, l, next.x, x)
	refSmooth(s, l, nu2, b, x)
}

// refSolve is Solve over the reference kernels; it returns the residual
// history.
func refSolve(s *Solver, b, x *petsc.Vec, rtol float64, maxCycles int) []float64 {
	lv := s.levels[0]
	refResidual(s, 0, b, x, lv.r)
	r0 := lv.r.Norm2()
	if r0 == 0 {
		return nil
	}
	var hist []float64
	for cycles := 0; cycles < maxCycles; cycles++ {
		refVCycle(s, 0, b, x)
		refResidual(s, 0, b, x, lv.r)
		relres := lv.r.Norm2() / r0
		hist = append(hist, relres)
		if relres <= rtol {
			break
		}
	}
	return hist
}

// refPCG is Solve's conjugate gradients pass by pass over the reference
// kernels: the V-cycle from a zeroed z, and every inner product, AYPX, AXPY
// and the operator as a whole-vector pass of its own, each product deposited
// term by term.  It returns the residual history.
func refPCG(s *Solver, b, x *petsc.Vec, rtol float64, maxCycles int) []float64 {
	r, z, p, ap := b.Duplicate(), b.Duplicate(), b.Duplicate(), b.Duplicate()
	refResidual(s, 0, b, x, r)
	r0 := math.Sqrt(refDot(s, s.c, r, r))
	if r0 == 0 {
		return nil
	}
	charge := func(v *petsc.Vec) { s.c.Compute(float64(2*v.LocalSize()) * flopSec) }
	var hist []float64
	rho := 0.0
	for it := 0; it < maxCycles; it++ {
		z.Set(0)
		refVCycle(s, 0, r, z)
		rz := refDot(s, s.c, r, z)
		if rho == 0 {
			p.Copy(z)
		} else {
			pa, za := p.Array(), z.Array()
			for i := range pa {
				pa[i] = float64(rz/rho*pa[i]) + za[i]
			}
			charge(p)
		}
		refApplyLevel(s, 0, p, ap)
		pap := refDot(s, s.c, p, ap)
		if !(pap > 0) {
			break
		}
		alpha := rz / pap
		for _, u := range []struct {
			y, x *petsc.Vec
			a    float64
		}{{x, p, alpha}, {r, ap, -alpha}} {
			ya, xa := u.y.Array(), u.x.Array()
			for i := range ya {
				ya[i] += float64(u.a * xa[i])
			}
			charge(u.y)
		}
		relres := math.Sqrt(refDot(s, s.c, r, r)) / r0
		rho = rz
		hist = append(hist, relres)
		if relres <= rtol {
			break
		}
	}
	return hist
}

// refDot is ⟨a, b⟩ over c with every product deposited into a Sum one at a
// time.
func refDot(s *Solver, c *mpi.Comm, a, b *petsc.Vec) float64 {
	var sum Sum
	ba := b.Array()
	for i, v := range a.Array() {
		sum.Add(float64(v * ba[i]))
	}
	s.c.Compute(float64(2*a.LocalSize()) * flopSec)
	return sum.Allreduce(c, make([]float64, sumReduceLen))
}

// splitmix64 gives the fills below a value per (seed, index) that does not
// depend on the decomposition.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillSeeded sets every owned value of v to a number in [-1, 1) drawn from
// the seed and the value's global index.
func fillSeeded(v *petsc.Vec, seed uint64) {
	lo, _ := v.Range()
	for i := range v.Array() {
		v.Array()[i] = float64(splitmix64(seed<<32^uint64(lo+i))>>11)/(1<<52) - 1
	}
}

func bitsDiffer(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: value %d is %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// kernelShape is one problem the kernels are compared on.
type kernelShape struct {
	n        []int
	np       int
	levels   int
	minCells int // NewAgglomerated's minCellsPerRank: 0 for New's hierarchy, 1 for every level on every rank
	mode     petsc.ScatterMode
	cfg      mpi.Config
}

// String names the shape's subtests; the name ends with the smoother every
// shape runs, damped Jacobi.
func (k kernelShape) String() string {
	return fmt.Sprintf("%v/np%d/lv%d/agg%d/%v/jacobi", k.n, k.np, k.levels, k.minCells, k.mode)
}

// feasible reports whether every level of the hierarchy has a process
// grid over the ranks NewAgglomerated gives it.
func (k kernelShape) feasible() bool {
	var ext [3]int
	for d := range ext {
		ext[d] = 1
	}
	copy(ext[:], k.n)
	for l := 0; l < k.levels; l++ {
		active := LevelRanks(k.np, ext[0]*ext[1]*ext[2], l == k.levels-1, k.minCells)
		if !dmda.GridFeasible(active, len(k.n), ext) {
			return false
		}
		if l+1 < k.levels {
			for d := range k.n {
				if ext[d]%2 != 0 {
					return false
				}
				ext[d] /= 2
			}
		}
	}
	return true
}

func (k kernelShape) solver(c *mpi.Comm) *Solver {
	return NewAgglomerated(c, k.n, k.levels, k.mode, k.minCells)
}

// checkKernels compares, on every level of s and every owned cell, the
// three stencil forms, the restriction and the interpolation against the
// reference loops.  Collective.
func checkKernels(s *Solver, seed uint64) error {
	for l, lv := range s.levels {
		x, b := lv.da.CreateGlobalVec(), lv.da.CreateGlobalVec()
		fillSeeded(x, seed+uint64(3*l))
		fillSeeded(b, seed+uint64(3*l+1))
		got, want := lv.da.CreateGlobalVec(), lv.da.CreateGlobalVec()

		s.applyLevel(l, x, got)
		refApplyLevel(s, l, x, want)
		if err := bitsDiffer(fmt.Sprintf("level %d operator", l), got.Array(), want.Array()); err != nil {
			return err
		}
		s.residual(l, b, x, got)
		refResidual(s, l, b, x, want)
		if err := bitsDiffer(fmt.Sprintf("level %d residual", l), got.Array(), want.Array()); err != nil {
			return err
		}
		lv.da.GhostUpdate(x, lv.lwork)
		s.stencil(lv, formJacobi, x.Array(), got.Array(), b.Array(), ownedRows(lv.da.OwnedBox()))
		refStencil(s, lv, refGhosted(lv, x), want.Array(), b.Array(), omega)
		if err := bitsDiffer(fmt.Sprintf("level %d jacobi", l), got.Array(), want.Array()); err != nil {
			return err
		}
		// An odd sweep count ends with a copy stage, the one stage no
		// exchange gates, which must still lie deeper than the sweep before it.
		got.Copy(x)
		want.Copy(x)
		s.smooth(l, 3, fromNothing, b, got)
		refSmooth(s, l, 3, b, want)
		if err := bitsDiffer(fmt.Sprintf("level %d three sweeps", l), got.Array(), want.Array()); err != nil {
			return err
		}
		if l+1 == len(s.levels) {
			break
		}
		coarse := s.levels[l+1].da
		gotC, wantC := coarse.CreateGlobalVec(), coarse.CreateGlobalVec()
		restrictPass(s, l, x, gotC)
		restore := refPatches(s)
		refRestrict(s, l, x, wantC)
		restore()
		if err := bitsDiffer(fmt.Sprintf("level %d restriction", l), gotC.Array(), wantC.Array()); err != nil {
			return err
		}
		xc := coarse.CreateGlobalVec()
		fillSeeded(xc, seed+uint64(3*l+2))
		got.Copy(b)
		want.Copy(b)
		interpolatePass(s, l, xc, got)
		refInterpolate(s, l, xc, want)
		if err := bitsDiffer(fmt.Sprintf("level %d interpolation", l), got.Array(), want.Array()); err != nil {
			return err
		}
	}
	return nil
}

// solveOutcome is what one whole solve leaves behind on every rank.
type solveOutcome struct {
	hist  [][]float64
	clock []float64
}

// runSolve solves the seeded problem of shape k on a fresh world, through
// Solve or through the reference passes, by conjugate gradients or by the
// Richardson iteration, and then (kernels only) runs checkKernels on the same
// hierarchy.
func runSolve(t testing.TB, k kernelShape, seed uint64, cycles int, richardson, reference bool) solveOutcome {
	out := solveOutcome{hist: make([][]float64, k.np), clock: make([]float64, k.np)}
	runWorld(t, k.np, k.cfg, func(c *mpi.Comm) error {
		s := k.solver(c)
		s.Richardson = richardson
		b, x := s.CreateVec(), s.CreateVec()
		fillSeeded(b, seed)
		switch {
		case reference && richardson:
			refPatches(s)
			out.hist[c.Rank()] = refSolve(s, b, x, 1e-9, cycles)
		case reference:
			refPatches(s)
			out.hist[c.Rank()] = refPCG(s, b, x, 1e-9, cycles)
		default:
			s.Solve(b, x, 1e-9, cycles)
			out.hist[c.Rank()] = append([]float64(nil), s.History...)
		}
		out.clock[c.Rank()] = c.Clock()
		if reference {
			return nil
		}
		return checkKernels(s, seed)
	})
	return out
}

// checkShape is the whole comparison for one shape, under conjugate gradients
// and the Richardson iteration: per-cell kernels, the per-iteration residual
// history on every rank, and every rank's virtual clock at the end of the
// solve (the kernels and the fused passes must charge what the reference
// charges, in the same order, around the same messages).
func checkShape(t testing.TB, k kernelShape, seed uint64, cycles int) {
	t.Helper()
	for _, richardson := range []bool{false, true} {
		got := runSolve(t, k, seed, cycles, richardson, false)
		want := runSolve(t, k, seed, cycles, richardson, true)
		for r := 0; r < k.np; r++ {
			if len(want.hist[r]) == 0 {
				t.Fatalf("%v: richardson %v: rank %d: reference ran no iteration", k, richardson, r)
			}
			if err := bitsDiffer(fmt.Sprintf("richardson %v: rank %d history", richardson, r), got.hist[r], want.hist[r]); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if math.Float64bits(got.clock[r]) != math.Float64bits(want.clock[r]) {
				t.Fatalf("%v: richardson %v: rank %d virtual clock %v, reference %v", k, richardson, r, got.clock[r], want.clock[r])
			}
		}
	}
}

// kernelShapes is the table of TestKernelsBitwiseEqualReference and the
// seed corpus of FuzzKernelsMatchReference: 1-D to 3-D, cubic and not,
// rank counts that put an owned box on every combination of domain faces
// (np 3 and 6 leave ranks wholly interior along an axis), 2 to 4 levels,
// agglomerated coarse levels, both scatter backends and all three MPI
// configurations, ghosts along x, y and z down to an owned box one cell wide.
// Every coarsest level here is small enough that New puts it on one rank
// (minCells 0), so the entries with minCells 1 keep a coarsest level spread
// over every rank.
var kernelShapes = []kernelShape{
	{n: []int{64}, np: 1, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{64}, np: 3, levels: 4, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{32, 24}, np: 1, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{32, 24}, np: 6, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{32, 32}, np: 4, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{16, 16, 16}, np: 1, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{16, 16, 16}, np: 2, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{24, 16, 40}, np: 1, levels: 4, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{24, 16, 40}, np: 3, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Baseline()},
	{n: []int{24, 16, 40}, np: 4, levels: 4, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
	{n: []int{24, 16, 40}, np: 6, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{24, 16, 40}, np: 8, levels: 4, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{40, 24, 16}, np: 8, levels: 2, mode: petsc.ScatterHandTuned, cfg: mpi.Baseline()},
	{n: []int{16, 16, 16}, np: 8, levels: 3, minCells: 512, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{24, 24, 24}, np: 6, levels: 3, minCells: 256, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{100, 4, 4}, np: 3, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	// Where owned cells read in place meet ghosts read from lwork: an x cut
	// makes the ghost each row's end cell; owned extents 4, 2, 1 end with a
	// single row whose y- and z-neighbour rows are all received.
	{n: []int{40, 8, 8}, np: 2, levels: 2, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{8, 8, 8}, np: 8, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
	// The restriction's x run (coarse cells 1 to nx-2 of a row on one rank),
	// which runs four cells at a time: of two cells, so that every cell takes
	// the general form; of exactly four, under a y and a z cut whose rows
	// are gathered from the vector and the patch side by side; of five, whose
	// second group stores three cells again.
	{n: []int{8, 16, 16}, np: 1, levels: 2, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{12, 16, 16}, np: 4, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{14, 8, 8}, np: 1, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
	// A y and a z cut that leave every rank one coarse cell either way, so that
	// every coarse row gathers owned and received fine rows (FactorGrid never
	// cuts the shortest extent, so x is too short for a run here).
	{n: []int{4, 4, 4}, np: 4, levels: 2, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	// Eight ranks agglomerated onto two along x: each active rank receives
	// three quarters of its patch and owns the columns of half its coarse row,
	// so the run stops there and the cell astride the edge mixes columns.
	{n: []int{32, 16, 16}, np: 8, levels: 2, minCells: 512, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	// The coarsest level on one rank by New's rule at np 2 and 3: a two-level
	// hierarchy on the compiled configuration and a three-level one on the
	// baseline (more such entries, at np 2, 3 and 4, are above).
	{n: []int{16, 16, 16}, np: 2, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
	{n: []int{24, 24, 24}, np: 3, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Baseline()},
	// Skirts as deep as the owned box: a z cut that leaves the ranks five or
	// six planes of level 0 and two or three of level 1, so that the later
	// stages of both wavefronts run nothing inside the middle rank's level 1;
	// a y and z cut, whose skirts are rows beside the planes as well as planes,
	// down to two rows by three planes on level 1; and, beside them, a z cut
	// that leaves each rank eight planes of level 1, more than any stage's
	// skirt, so that every stage runs planes inside the wavefront too.
	{n: []int{12, 12, 16}, np: 3, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Compiled()},
	{n: []int{8, 8, 12}, np: 4, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{16, 16, 32}, np: 2, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	// Every level on every rank: the paper's hierarchy, down to one coarse
	// cell per rank.
	{n: []int{16, 16, 16}, np: 2, levels: 3, minCells: 1, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{64}, np: 3, levels: 4, minCells: 1, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	{n: []int{32, 32}, np: 4, levels: 3, minCells: 1, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{24, 16, 40}, np: 6, levels: 3, minCells: 1, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
	{n: []int{8, 8, 8}, np: 8, levels: 3, minCells: 1, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
}

func TestKernelsBitwiseEqualReference(t *testing.T) {
	for i, k := range kernelShapes {
		k, seed := k, uint64(i+1)
		if !k.feasible() {
			t.Fatalf("%v: table entry has no process grid", k)
		}
		t.Run(k.String(), func(t *testing.T) { checkShape(t, k, seed, 4) })
	}
}

// checkReadInPlace solves on 1, 2 and 8 ranks with NaN in every cell this rank
// owns of one receive array per level, which received returns with the box it
// frames and its index function.  The exchange that fills the array writes
// received cells only, so the owned ones are NaN after the solve too; the
// residual history is the reference's all the same, bit for bit, so the kernels
// read no owned cell from the array.  A rank that owns a whole level has no
// array to read.
func checkReadInPlace(t *testing.T, name string, received func(lv *level) (a []float64, frame dmda.Box, index func(i, j, k int) int)) {
	for i, k := range []kernelShape{
		{n: []int{16, 16, 16}, np: 1, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()},
		{n: []int{16, 16, 16}, np: 2, levels: 3, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()},
		{n: []int{16, 16, 16}, np: 8, levels: 3, mode: petsc.ScatterDatatype, cfg: mpi.Optimized()},
	} {
		seed := uint64(i + 1)
		ownedOf := func(lv *level, visit func(v *float64)) {
			a, frame, index := received(lv)
			own := frame.Intersect(lv.da.OwnedBox())
			for k := own.Lo[2]; k < own.Hi[2] && a != nil; k++ {
				for j := own.Lo[1]; j < own.Hi[1]; j++ {
					for i := own.Lo[0]; i < own.Hi[0]; i++ {
						visit(&a[index(i, j, k)])
					}
				}
			}
		}
		got := make([][]float64, k.np)
		runWorld(t, k.np, k.cfg, func(c *mpi.Comm) error {
			s := k.solver(c)
			for l, lv := range s.levels {
				if a, _, _ := received(lv); k.np == 1 && a != nil {
					return fmt.Errorf("level %d of a one-rank solver allocated a %s of %d cells", l, name, len(a))
				}
				ownedOf(lv, func(v *float64) { *v = math.NaN() })
			}
			b, x := s.CreateVec(), s.CreateVec()
			fillSeeded(b, seed)
			s.Solve(b, x, 1e-9, 4)
			got[c.Rank()] = append([]float64(nil), s.History...)
			for l, lv := range s.levels {
				written := 0
				ownedOf(lv, func(v *float64) {
					if !math.IsNaN(*v) {
						written++
					}
				})
				if written > 0 {
					return fmt.Errorf("level %d: the exchange wrote %d owned cells of %s", l, written, name)
				}
			}
			return nil
		})
		want := runSolve(t, k, seed, 4, false, true)
		for r := range got {
			if err := bitsDiffer(fmt.Sprintf("rank %d history", r), got[r], want.hist[r]); err != nil {
				t.Errorf("%v: %v", k, err)
			}
		}
	}
}

// TestOwnedCellsReadInPlace: the stencil reads no owned cell from lwork.
func TestOwnedCellsReadInPlace(t *testing.T) {
	checkReadInPlace(t, "lwork", func(lv *level) ([]float64, dmda.Box, func(i, j, k int) int) {
		return lv.lwork, lv.da.GhostBox(), func(i, j, k int) int { return lv.da.LocalIndex(i, j, k, 0) }
	})
}

// TestTransfersReadOwnedInPlace: the restriction reads no owned cell from
// finePatch.
func TestTransfersReadOwnedInPlace(t *testing.T) {
	checkReadInPlace(t, "finePatch", func(lv *level) ([]float64, dmda.Box, func(i, j, k int) int) {
		return lv.finePatch, lv.restrictBox, func(i, j, k int) int { return refPatchIndex(lv.restrictBox, i, j, k) }
	})
}

// TestFirstSweepFromKnownState: on every kernelShapes entry and every level,
// one sweep from the stored residual (after residual) and one from zero
// (after x.Set(0)) leave x, the level's r and the rank's virtual clock as the
// same sweep from nothing leaves them, bit for bit.  Both worlds run the same
// steps and differ only in what the sweeps are told, so a clock that drifts
// shows at the first step it drifts in.  b has a −0 cell and a NaN cell on
// every rank that owns two, for which b − (+0) must be b.  A sweep told x is
// zero is handed NaN in every cell of x instead, since it reads none of them.
func TestFirstSweepFromKnownState(t *testing.T) {
	type step struct {
		what  string
		x, r  []float64
		clock float64
	}
	run := func(k kernelShape, seed uint64, known bool) [][]step {
		out := make([][]step, k.np)
		runWorld(t, k.np, k.cfg, func(c *mpi.Comm) error {
			s := k.solver(c)
			for l, lv := range s.levels {
				b, x0, x := lv.da.CreateGlobalVec(), lv.da.CreateGlobalVec(), lv.da.CreateGlobalVec()
				fillSeeded(b, seed+uint64(2*l))
				fillSeeded(x0, seed+uint64(2*l+1))
				if ba := b.Array(); len(ba) >= 2 {
					ba[0], ba[len(ba)-1] = math.Copysign(0, -1), math.NaN()
				}
				for _, from := range []sweepStart{fromResidual, fromZero} {
					x.Copy(x0)
					what := fmt.Sprintf("level %d from zero", l)
					if from == fromResidual {
						s.residual(l, b, x, lv.r)
						what = fmt.Sprintf("level %d from the residual", l)
					} else {
						x.Set(0)
						if known {
							// A sweep from zero reads no x.
							for i := range x.Array() {
								x.Array()[i] = math.NaN()
							}
						}
					}
					if !known {
						from = fromNothing
					}
					s.smooth(l, 1, from, b, x)
					out[c.Rank()] = append(out[c.Rank()], step{what,
						append([]float64(nil), x.Array()...), append([]float64(nil), lv.r.Array()...), c.Clock()})
				}
			}
			return nil
		})
		return out
	}
	for i, k := range kernelShapes {
		k, seed := k, uint64(i+1)
		t.Run(k.String(), func(t *testing.T) {
			got, want := run(k, seed, true), run(k, seed, false)
			for r := range want {
				for n, w := range want[r] {
					g := got[r][n]
					for _, err := range []error{bitsDiffer(w.what+": x", g.x, w.x), bitsDiffer(w.what+": r", g.r, w.r)} {
						if err != nil {
							t.Fatalf("rank %d: %v", r, err)
						}
					}
					if math.Float64bits(g.clock) != math.Float64bits(w.clock) {
						t.Fatalf("rank %d: %s: virtual clock %v, from nothing %v", r, w.what, g.clock, w.clock)
					}
				}
			}
		})
	}
}

// TestStencilPassesAllocateNothing: on one rank with tracing off the operator,
// one smoother sweep from each start, the residual, both level transfers, both
// halves of a V-cycle as the wavefronts that run them and one whole V-cycle
// allocate nothing in either arm, at 16³ and at 40³, whose level-0
// restriction run of 18 cells is the first wide enough for restrictLanes, on
// the solver's goroutine alone and in bands of two workers; on two ranks the
// exact coarse solve allocates no more than its gather's Allgatherv.
func TestStencilPassesAllocateNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withWorkers(workers, func() {
			for _, n := range []int{16, 40} {
				for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
					checkPassesAllocateNothing(t, n, mode)
				}
			}
		})
	}
}

func checkPassesAllocateNothing(t *testing.T, n int, mode petsc.ScatterMode) {
	runWorld(t, 1, mpi.Compiled(), func(c *mpi.Comm) error {
		s := New(c, []int{n, n, n}, 2, mode)
		b, x, y := s.CreateVec(), s.CreateVec(), s.CreateVec()
		coarse := s.DA(1).CreateGlobalVec()
		fillSeeded(b, 1)
		fillSeeded(x, 2)
		s.vcycle(0, fromNothing, b, y, endNone) // the coarse solve's scratch is allocated by the first
		for name, pass := range map[string]func(){
			"applyLevel":           func() { s.applyLevel(0, x, y) },
			"smooth":               func() { s.smooth(0, 1, fromNothing, b, x) },
			"smooth from residual": func() { s.smooth(0, 1, fromResidual, b, x) },
			"smooth from zero":     func() { s.smooth(0, 1, fromZero, b, x) },
			"residual":             func() { s.residual(0, b, x, y) },
			"restrictTo":           func() { restrictPass(s, 0, x, coarse) },
			"interpolateAdd":       func() { interpolatePass(s, 0, coarse, y) },
			"pre group":            func() { s.pre(0, fromResidual, b, x) },
			"post group":           func() { s.post(0, b, x, endResidual) },
			"post group, dot":      func() { s.post(0, b, x, endDot) },
			"direction":            func() { s.direction(1, 2) },
			"step":                 func() { s.step(x, 0.5) },
			"dot":                  func() { s.dot(s.c, b, x) },
			"vcycle":               func() { s.vcycle(0, fromNothing, b, y, endNone) },
		} {
			if a := testing.AllocsPerRun(10, pass); a != 0 {
				return fmt.Errorf("%d³, %v: %s allocates %v times a call", n, mode, name, a)
			}
		}
		return nil
	})
	// On two ranks with every level on both, the coarsest level's exact solve
	// gathers its right-hand side from both into buffers it keeps.  A message
	// between two ranks allocates in the in-process world, so the solve is
	// held to what a bare Allgatherv of the same counts allocates: the gather's
	// placement, the transforms and the copy into x allocate nothing.  Under
	// the race detector sync.Pool drops puts at random, and the messages'
	// pooled buffers with them, so the two counts differ by chance there.
	if raceBuild {
		return
	}
	runWorld(t, 2, mpi.Compiled(), func(c *mpi.Comm) error {
		s := NewAgglomerated(c, []int{n, n, n}, 2, mode, 1)
		l := s.Levels() - 1
		lv := s.levels[l]
		fillSeeded(lv.b, 1)
		mine, all := make([]byte, 8), make([]byte, 16)
		binary.LittleEndian.PutUint64(mine, uint64(8*lv.da.OwnedCount()))
		c.Allgather(mine, all)
		counts := []int{int(binary.LittleEndian.Uint64(all)), int(binary.LittleEndian.Uint64(all[8:]))}
		packed := make([]float64, lv.da.NaturalCount())
		gather := testing.AllocsPerRun(10, func() {
			s.coarseComm.Allgatherv(floatbytes.Bytes(lv.b.Array()), counts, floatbytes.Bytes(packed))
		})
		if a := testing.AllocsPerRun(10, func() { s.coarseSolve(l, lv.b, lv.x) }); a > gather {
			return fmt.Errorf("%d³, %v, two ranks: the exact coarse solve allocates %v times a call, its Allgatherv %v", n, mode, a, gather)
		}
		return nil
	})
}

// TestApplyRefusesItsSourceAsResult: Apply reads x in place while it writes
// y, so Apply(x, x) is a one-line panic, not a half-updated product.
func TestApplyRefusesItsSourceAsResult(t *testing.T) {
	runWorld(t, 1, mpi.Optimized(), func(c *mpi.Comm) (err error) {
		s := New(c, []int{8, 8, 8}, 1, petsc.ScatterHandTuned)
		x := s.CreateVec()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "mg: Apply(x, x)") || strings.Contains(msg, "\n") {
				err = fmt.Errorf("Apply(x, x) said %q", msg)
			}
		}()
		s.Apply(x, x)
		return nil
	})
}

// fuzzMinCells are the agglomeration thresholds FuzzKernelsMatchReference
// picks from: New's hierarchy, every level on every rank, and two that move
// finer levels onto fewer ranks.  Every kernelShapes entry's is among them.
var fuzzMinCells = [4]int{0, 1, 256, 512}

// FuzzKernelsMatchReference draws a problem shape from its arguments: one
// extent byte per dimension (each becomes a multiple of 2^(levels-1)), a
// rank count, a level count and a fill seed whose low four bits also pick
// the backend, the MPI configuration (mpi.Compiled or mpi.Optimized) and the
// agglomeration threshold.  Shapes with no process grid on some level are
// skipped; the seed corpus is kernelShapes, whose mpi.Baseline entries the
// fuzzer runs under mpi.Optimized.
func FuzzKernelsMatchReference(f *testing.F) {
	for i, k := range kernelShapes {
		ext := make([]byte, len(k.n))
		for d, e := range k.n {
			ext[d] = byte(e>>uint(k.levels-1) - 1)
		}
		seed := uint64(i+1) << 4
		if k.mode == petsc.ScatterDatatype {
			seed |= 1
		}
		if k.cfg == mpi.Compiled() {
			seed |= 2
		}
		a := slices.Index(fuzzMinCells[:], k.minCells)
		if a < 0 {
			f.Fatalf("%v: minCells %d is not one the fuzzer draws", k, k.minCells)
		}
		seed |= uint64(a) << 2
		f.Add(ext, uint8(k.np), uint8(k.levels), seed)
	}
	f.Fuzz(func(t *testing.T, ext []byte, np, levels uint8, seed uint64) {
		if len(ext) < 1 || len(ext) > 3 || np < 1 || np > 8 || levels < 1 || levels > 4 {
			t.Skip()
		}
		k := kernelShape{np: int(np), levels: int(levels), mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()}
		cells := 1
		for _, e := range ext {
			n := (int(e)%64 + 1) << uint(levels-1)
			k.n = append(k.n, n)
			cells *= n
		}
		if cells > 1<<15 {
			t.Skip()
		}
		if seed&1 != 0 {
			k.mode = petsc.ScatterDatatype
		}
		if seed&2 != 0 {
			k.cfg = mpi.Compiled()
		}
		k.minCells = fuzzMinCells[seed>>2&3]
		if !k.feasible() {
			t.Skip()
		}
		checkShape(t, k, seed, 2)
	})
}
