package mg

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// benchKernel times fn on the finest level of a one-rank 96³, two-level
// hierarchy (the benchmark spine's grid) and reports ns per cell written;
// bytes is what one call reads and writes.
func benchKernel(b *testing.B, cells func(s *Solver) int, bytes func(s *Solver) int, fn func(s *Solver, x, rhs, out, coarse *petsc.Vec)) {
	benchKernelAt(b, 96, cells, bytes, fn)
}

// benchKernelAt is benchKernel on an n³ grid.
func benchKernelAt(b *testing.B, n int, cells func(s *Solver) int, bytes func(s *Solver) int, fn func(s *Solver, x, rhs, out, coarse *petsc.Vec)) {
	runWorld(b, 1, mpi.Optimized(), func(c *mpi.Comm) error {
		s := New(c, []int{n, n, n}, 2, petsc.ScatterDatatype)
		x, rhs, out := s.CreateVec(), s.CreateVec(), s.CreateVec()
		coarse := s.DA(1).CreateGlobalVec()
		fillSeeded(x, 1)
		fillSeeded(rhs, 2)
		fillSeeded(coarse, 3)
		b.SetBytes(int64(bytes(s)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(s, x, rhs, out, coarse)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells(s)), "ns/cell")
		return nil
	})
}

func fineCells(s *Solver) int   { return s.DA(0).OwnedCount() }
func coarseCells(s *Solver) int { return s.DA(1).OwnedCount() }

// BenchmarkStencil times the stencil pass alone (one rank has no ghost cell
// to receive, so every source row is x's own): apply is the form behind
// Solver.Apply, jacobi one smoother sweep, and update the first sweep of a
// smoothing pass whose residual is known, which evaluates no stencil.  apply
// and jacobi run the inner cells as the build dispatches them (the lane
// kernel where the CPU has it); apply/go and jacobi/go run them through the
// Go loop alone, so one run prints both kernels' ns/cell.  jacobi/48,
// jacobi/24 and jacobi/12 are the sweep on the coarser levels' extents of the
// same hierarchy, whose shorter rows leave more of a pass to the work done
// once a row or once a plane.  Beside them are level 0's other vector passes:
// step is the conjugate gradients' step (its two AXPYs and ‖r‖², a sum chunk
// at a time) and aypx the direction's AYPX; update, step and aypx run as the
// build dispatches them, update/go, step/go and aypx/go through the Go loops
// alone (step/go's sum too).
func BenchmarkStencil(b *testing.B) {
	b.Run("apply", func(b *testing.B) { benchStencil(b, 96, formApply, 2, false) })
	b.Run("apply/go", func(b *testing.B) { benchStencil(b, 96, formApply, 2, true) })
	b.Run("jacobi", func(b *testing.B) { benchStencil(b, 96, formJacobi, 3, false) })
	b.Run("jacobi/go", func(b *testing.B) { benchStencil(b, 96, formJacobi, 3, true) })
	for _, n := range []int{48, 24, 12} {
		b.Run(fmt.Sprintf("jacobi/%d", n), func(b *testing.B) { benchStencil(b, n, formJacobi, 3, false) })
	}
	update := func(s *Solver, x, rhs, out *petsc.Vec) {
		s.update(s.levels[0], x.Array(), rhs.Array(), out.Array(), ownedRows(s.DA(0).OwnedBox()))
	}
	var sum Sum
	step := func(s *Solver, x, _, _ *petsc.Vec) { s.stepCells(x, 1e-9, 0, x.LocalSize(), &sum) }
	aypx := func(_ *Solver, x, _, out *petsc.Vec) { aypxCells(out.Array(), x.Array(), 0.5) }
	for _, goOnly := range []bool{false, true} {
		suffix := ""
		if goOnly {
			suffix = "/go"
		}
		b.Run("update"+suffix, func(b *testing.B) { benchVector(b, 3, goOnly, update) })
		b.Run("step"+suffix, func(b *testing.B) { benchVector(b, 6, goOnly, step) })
		b.Run("aypx"+suffix, func(b *testing.B) { benchVector(b, 3, goOnly, aypx) })
	}
}

// benchVector times one pass fn over level 0 of the 96³ grid, which reads or
// writes the given number of whole vectors, through the Go loops alone where
// goOnly is set.
func benchVector(b *testing.B, vectors int, goOnly bool, fn func(s *Solver, x, rhs, out *petsc.Vec)) {
	defer goLoopsOnly(goOnly)()
	benchKernel(b, fineCells,
		func(s *Solver) int { return 8 * vectors * fineCells(s) },
		func(s *Solver, x, rhs, out, _ *petsc.Vec) { fn(s, x, rhs, out) })
}

// benchStencil times one stencil pass of form over the finest level of an n³
// grid, which reads or writes the given number of whole vectors, with the
// inner cells run through the Go loop alone where goOnly is set.
func benchStencil(b *testing.B, n int, form stencilForm, vectors int, goOnly bool) {
	defer goLoopsOnly(goOnly)()
	benchKernelAt(b, n, fineCells,
		func(s *Solver) int { return 8 * vectors * fineCells(s) },
		func(s *Solver, x, rhs, out, _ *petsc.Vec) {
			s.stencil(s.levels[0], form, x.Array(), out.Array(), rhs.Array(), ownedRows(s.DA(0).OwnedBox()))
		})
}

// BenchmarkApply times Solver.Apply: the ghost update, which on one rank has
// nothing to move, and the stencil.
func BenchmarkApply(b *testing.B) {
	benchKernel(b, fineCells,
		func(s *Solver) int { return 8 * 2 * fineCells(s) },
		func(s *Solver, x, _, out, _ *petsc.Vec) { s.Apply(x, out) })
}

// BenchmarkRestrict and BenchmarkInterpolate time a whole level transfer
// as a V-cycle pays for it, patch scatter included.  level0 runs the x runs
// as the build dispatches them (the lane kernels where the CPU has them);
// level0/go runs them through the Go loops alone, so one run prints both
// kernels' ns/cell.
func BenchmarkRestrict(b *testing.B) {
	b.Run("level0", func(b *testing.B) { benchRestrict(b, false) })
	b.Run("level0/go", func(b *testing.B) { benchRestrict(b, true) })
}

func benchRestrict(b *testing.B, goOnly bool) {
	defer goLoopsOnly(goOnly)()
	benchKernel(b, coarseCells,
		func(s *Solver) int { return 8 * (s.levels[0].restrictBox.Cells() + coarseCells(s)) },
		func(s *Solver, x, _, _, coarse *petsc.Vec) { restrictPass(s, 0, x, coarse) })
}

func BenchmarkInterpolate(b *testing.B) {
	b.Run("level0", func(b *testing.B) { benchInterpolate(b, false) })
	b.Run("level0/go", func(b *testing.B) { benchInterpolate(b, true) })
}

func benchInterpolate(b *testing.B, goOnly bool) {
	defer goLoopsOnly(goOnly)()
	benchKernel(b, fineCells,
		func(s *Solver) int { return 8 * (len(s.levels[0].coarsePatch) + 2*fineCells(s)) },
		func(s *Solver, _, _, out, coarse *petsc.Vec) { interpolatePass(s, 0, coarse, out) })
}

// goLoopsOnly clears useLanes where goOnly is set and returns what restores
// it.
func goLoopsOnly(goOnly bool) (restore func()) {
	was := useLanes
	if goOnly {
		useLanes = false
	}
	return func() { useLanes = was }
}

// BenchmarkSolve96 is one whole four-level 96³ solve on one rank from a zero
// guess, the benchmark spine's mg96_np1 op without its harness, so that
// go test -bench Solve96 -cpuprofile gives the kernels' shares of a solve and
// -benchmem what a solve allocates.  cg is Solve's conjugate gradients,
// richardson the bare V-cycles; each reports its iterations and ms per
// iteration.  A one-rank solve runs its waves in slabs across the cores
// GOMAXPROCS leaves free, so -cpu 1,2 gives the serial solve and the slabbed
// one side by side; each reports the tasks a solve hands its crew and the
// milliseconds a solve's own goroutine waits for its helpers.
func BenchmarkSolve96(b *testing.B) {
	for _, richardson := range []bool{false, true} {
		name := "cg"
		if richardson {
			name = "richardson"
		}
		b.Run(name, func(b *testing.B) {
			runWorld(b, 1, mpi.Compiled(), func(c *mpi.Comm) error {
				s := New(c, []int{96, 96, 96}, 4, petsc.ScatterDatatype)
				s.Richardson = richardson
				rhs, x := s.CreateVec(), s.CreateVec()
				fillSeeded(rhs, 1)
				b.ReportAllocs()
				b.ResetTimer()
				tasks, waited := cores.tasks.Load(), cores.waited.Load()
				cycles := 0
				for i := 0; i < b.N; i++ {
					x.Set(0)
					cycles, _ = s.Solve(rhs, x, 1e-6, 30)
				}
				b.ReportMetric(float64(cycles), "iterations")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N)/float64(cycles), "ms/cycle")
				b.ReportMetric(float64(cores.tasks.Load()-tasks)/float64(b.N), "tasks/op")
				b.ReportMetric(float64(cores.waited.Load()-waited)/1e6/float64(b.N), "wait-ms/op")
				return nil
			})
		})
	}
}

// BenchmarkNew96 times New on the benchmark spine's hierarchy, four levels
// of 96³, at one and two ranks under both arms; -benchmem gives what building
// it allocates (at two ranks, both ranks' share).
func BenchmarkNew96(b *testing.B) {
	for _, np := range []int{1, 2} {
		for _, arm := range []struct {
			name string
			mode petsc.ScatterMode
		}{{"datatype", petsc.ScatterDatatype}, {"hand", petsc.ScatterHandTuned}} {
			b.Run(fmt.Sprintf("np%d/%s", np, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				runWorld(b, np, mpi.Compiled(), func(c *mpi.Comm) error {
					c.Barrier()
					if c.Rank() == 0 {
						b.ResetTimer()
					}
					c.Barrier()
					for i := 0; i < b.N; i++ {
						New(c, []int{96, 96, 96}, 4, arm.mode)
					}
					return nil
				})
			})
		}
	}
}
