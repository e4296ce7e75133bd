// Package ksp implements the Krylov solver layer of the mini-PETSc stack:
// conjugate gradients and Richardson iteration with pluggable operators and
// preconditioners, mirroring PETSc's KSP/PC split (paper Figure 1).
package ksp

import (
	"fmt"
	"math"
	"strconv"

	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

// Operator applies a linear operator: y = A*x.  Implementations include
// mat.AIJ and the matrix-free stencil operators in internal/mg.
type Operator interface {
	Apply(x, y *petsc.Vec)
}

// Preconditioner applies an approximate inverse: z = M⁻¹*r.
type Preconditioner interface {
	Precondition(r, z *petsc.Vec)
}

// None is the identity preconditioner.
type None struct{}

// Precondition copies r into z.
func (None) Precondition(r, z *petsc.Vec) { z.Copy(r) }

// Jacobi preconditions with the inverse of the operator diagonal.
type Jacobi struct {
	invDiag *petsc.Vec
}

// NewJacobi builds a Jacobi preconditioner from the operator diagonal d.
// Zero diagonal entries are treated as 1.
func NewJacobi(d *petsc.Vec) *Jacobi {
	inv := d.Duplicate()
	da, ia := d.Array(), inv.Array()
	for i, v := range da {
		if v == 0 {
			ia[i] = 1
		} else {
			ia[i] = 1 / v
		}
	}
	return &Jacobi{invDiag: inv}
}

// Precondition computes z = D⁻¹ r.
func (j *Jacobi) Precondition(r, z *petsc.Vec) { z.PointwiseMult(j.invDiag, r) }

// Result reports the outcome of a solve.
type Result struct {
	Iterations int
	Residual   float64 // final residual 2-norm
	Converged  bool
}

func (r Result) String() string {
	state := "diverged"
	if r.Converged {
		state = "converged"
	}
	return fmt.Sprintf("%s in %d iterations, residual %.3e", state, r.Iterations, r.Residual)
}

// CG is the preconditioned conjugate-gradient solver.  The operator (and
// preconditioner) must be symmetric positive definite.
type CG struct {
	A      Operator
	M      Preconditioner
	Rtol   float64 // relative tolerance on ‖r‖/‖b‖ (default 1e-8)
	Atol   float64 // absolute tolerance on ‖r‖ (default 1e-50)
	MaxIts int     // default 10000

	// Monitor, when non-nil, is called with (iteration, residual norm).
	Monitor func(it int, rnorm float64)
}

func (s *CG) defaults() (float64, float64, int) {
	rtol, atol, maxIts := s.Rtol, s.Atol, s.MaxIts
	if rtol == 0 {
		rtol = 1e-8
	}
	if atol == 0 {
		atol = 1e-50
	}
	if maxIts == 0 {
		maxIts = 10000
	}
	return rtol, atol, maxIts
}

// iterSpan marks one Krylov iteration on the rank's virtual timeline.  The
// enabled check runs before any attribute formatting so a disabled tracer
// costs one atomic load per iteration.
func iterSpan(c *mpi.Comm, it int, rnorm float64) {
	if !c.Tracer().Enabled() {
		return
	}
	c.Span("ksp_iter", c.Clock(),
		obs.Attr{Key: "iteration", Val: strconv.Itoa(it)},
		obs.Attr{Key: "rnorm", Val: strconv.FormatFloat(rnorm, 'g', 4, 64)})
}

// solveSpan wraps a whole solve with a span carrying its outcome.
func solveSpan(c *mpi.Comm, method string, start float64, res Result) {
	if !c.Tracer().Enabled() {
		return
	}
	c.Span("ksp_solve", start,
		obs.Attr{Key: "method", Val: method},
		obs.Attr{Key: "iterations", Val: strconv.Itoa(res.Iterations)},
		obs.Attr{Key: "converged", Val: strconv.FormatBool(res.Converged)})
}

// Solve solves A x = b, using x as the initial guess and overwriting it
// with the solution.  Collective.
func (s *CG) Solve(b, x *petsc.Vec) Result {
	c := b.Comm()
	start := c.Clock()
	res := s.solve(b, x)
	solveSpan(c, "cg", start, res)
	return res
}

func (s *CG) solve(b, x *petsc.Vec) Result {
	rtol, atol, maxIts := s.defaults()
	M := s.M
	if M == nil {
		M = None{}
	}

	r := b.Duplicate()
	z := b.Duplicate()
	p := b.Duplicate()
	ap := b.Duplicate()

	// r = b - A x
	s.A.Apply(x, r)
	r.AYPX(-1, b)

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	rnorm := r.Norm2()
	if s.Monitor != nil {
		s.Monitor(0, rnorm)
	}
	if rnorm <= rtol*bnorm || rnorm <= atol {
		return Result{Iterations: 0, Residual: rnorm, Converged: true}
	}

	M.Precondition(r, z)
	p.Copy(z)
	rz := r.Dot(z)

	for it := 1; it <= maxIts; it++ {
		s.A.Apply(p, ap)
		pap := p.Dot(ap)
		if pap <= 0 || math.IsNaN(pap) {
			return Result{Iterations: it, Residual: rnorm, Converged: false}
		}
		alpha := rz / pap
		x.AXPY(alpha, p)
		r.AXPY(-alpha, ap)
		rnorm = r.Norm2()
		if s.Monitor != nil {
			s.Monitor(it, rnorm)
		}
		iterSpan(b.Comm(), it, rnorm)
		if rnorm <= rtol*bnorm || rnorm <= atol {
			return Result{Iterations: it, Residual: rnorm, Converged: true}
		}
		M.Precondition(r, z)
		rzNew := r.Dot(z)
		beta := rzNew / rz
		rz = rzNew
		p.AYPX(beta, z)
	}
	return Result{Iterations: maxIts, Residual: rnorm, Converged: false}
}

// Richardson is the preconditioned Richardson iteration
// x ← x + ω M⁻¹ (b - A x), PETSc's KSPRICHARDSON.  With a multigrid
// preconditioner and ω=1 this is exactly "iterating V-cycles", the solver
// configuration of the paper's application study.
type Richardson struct {
	A      Operator
	M      Preconditioner
	Omega  float64 // default 1
	Rtol   float64 // default 1e-8
	Atol   float64
	MaxIts int // default 1000

	Monitor func(it int, rnorm float64)
}

// Solve solves A x = b from initial guess x, overwriting x.  Collective.
func (s *Richardson) Solve(b, x *petsc.Vec) Result {
	c := b.Comm()
	start := c.Clock()
	res := s.solve(b, x)
	solveSpan(c, "richardson", start, res)
	return res
}

func (s *Richardson) solve(b, x *petsc.Vec) Result {
	omega := s.Omega
	if omega == 0 {
		omega = 1
	}
	rtol, atol, maxIts := s.Rtol, s.Atol, s.MaxIts
	if rtol == 0 {
		rtol = 1e-8
	}
	if atol == 0 {
		atol = 1e-50
	}
	if maxIts == 0 {
		maxIts = 1000
	}
	M := s.M
	if M == nil {
		M = None{}
	}

	r := b.Duplicate()
	z := b.Duplicate()

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	var rnorm float64
	for it := 0; ; it++ {
		s.A.Apply(x, r)
		r.AYPX(-1, b) // r = b - A x
		rnorm = r.Norm2()
		if s.Monitor != nil {
			s.Monitor(it, rnorm)
		}
		iterSpan(b.Comm(), it, rnorm)
		if rnorm <= rtol*bnorm || rnorm <= atol {
			return Result{Iterations: it, Residual: rnorm, Converged: true}
		}
		if it >= maxIts {
			return Result{Iterations: it, Residual: rnorm, Converged: false}
		}
		M.Precondition(r, z)
		x.AXPY(omega, z)
	}
}
