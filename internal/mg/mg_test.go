package mg

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

func runWorld(t testing.TB, n int, cfg mpi.Config, f func(c *mpi.Comm) error) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
	if err := w.Run(f); err != nil {
		t.Fatal(err)
	}
	return w
}

// setManufactured fills b = A x* for the product-of-sines solution at cell
// centers and returns x*.
func setManufactured(s *Solver, b *petsc.Vec) *petsc.Vec {
	da := s.DA(0)
	dim := s.dim
	xstar := s.CreateVec()
	a := xstar.Array()
	own := da.OwnedBox()
	idx := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				v := 1.0
				coords := [3]int{i, j, k}
				for d := 0; d < dim; d++ {
					x := (float64(coords[d]) + 0.5) / float64(da.GlobalSize(d))
					v *= math.Sin(math.Pi * x)
				}
				a[idx] = v
				idx++
			}
		}
	}
	s.Apply(xstar, b)
	return xstar
}

func TestOperatorSPDProperties(t *testing.T) {
	runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
		s := New(c, []int{16, 16}, 1, petsc.ScatterHandTuned)
		x := s.CreateVec()
		y := s.CreateVec()
		ax := s.CreateVec()
		ay := s.CreateVec()
		x.SetFromFunc(func(i int) float64 { return math.Sin(float64(i)) })
		y.SetFromFunc(func(i int) float64 { return math.Cos(float64(3 * i)) })
		s.Apply(x, ax)
		s.Apply(y, ay)
		// Symmetry: <Ax, y> == <x, Ay>.
		l, r := ax.Dot(y), x.Dot(ay)
		if math.Abs(l-r) > 1e-6*math.Abs(l) {
			return fmt.Errorf("operator not symmetric: %v vs %v", l, r)
		}
		// Positive definiteness on a nonzero vector.
		if x.Dot(ax) <= 0 {
			return fmt.Errorf("operator not positive definite")
		}
		return nil
	})
}

func TestVCycleContracts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		np     int
		n      []int
		levels int
	}{
		{"1d", 2, []int{64}, 3},
		{"2d", 4, []int{32, 32}, 3},
		{"3d", 4, []int{16, 16, 16}, 2},
		{"3d-3lv", 8, []int{24, 24, 24}, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runWorld(t, tc.np, mpi.Optimized(), func(c *mpi.Comm) error {
				s := New(c, tc.n, tc.levels, petsc.ScatterHandTuned)
				b := s.CreateVec()
				setManufactured(s, b)
				x := s.CreateVec()

				r := s.CreateVec()
				s.Apply(x, r)
				r.AYPX(-1, b)
				prev := r.Norm2()
				for cyc := 0; cyc < 3; cyc++ {
					s.vcycle(0, fromNothing, b, x, endNone)
					s.Apply(x, r)
					r.AYPX(-1, b)
					cur := r.Norm2()
					if cur > 0.5*prev {
						return fmt.Errorf("cycle %d contraction only %v -> %v", cyc, prev, cur)
					}
					prev = cur
				}
				return nil
			})
		})
	}
}

func TestSolveReachesTolerance(t *testing.T) {
	runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
		s := New(c, []int{32, 32}, 3, petsc.ScatterDatatype)
		b := s.CreateVec()
		xstar := setManufactured(s, b)
		x := s.CreateVec()
		cycles, relres := s.Solve(b, x, 1e-8, 50)
		if relres > 1e-8 {
			return fmt.Errorf("relres %v after %d cycles", relres, cycles)
		}
		x.AXPY(-1, xstar)
		if e := x.NormInf(); e > 1e-6 {
			return fmt.Errorf("solution error %v", e)
		}
		return nil
	})
}

func TestSolveMatchesAcrossBackendsAndConfigs(t *testing.T) {
	// The three experimental arms must produce numerically identical
	// solutions (communication backends must not change the math).
	type arm struct {
		name string
		cfg  mpi.Config
		mode petsc.ScatterMode
	}
	arms := []arm{
		{"hand-tuned", mpi.Baseline(), petsc.ScatterHandTuned},
		{"datatype-baseline", mpi.Baseline(), petsc.ScatterDatatype},
		{"datatype-optimized", mpi.Optimized(), petsc.ScatterDatatype},
	}
	var sums []float64
	var cycleCounts []int
	for _, a := range arms {
		var sum float64
		var cycles int
		runWorld(t, 4, a.cfg, func(c *mpi.Comm) error {
			s := New(c, []int{16, 16, 16}, 2, a.mode)
			b := s.CreateVec()
			setManufactured(s, b)
			x := s.CreateVec()
			cyc, _ := s.Solve(b, x, 1e-9, 60)
			total := x.Sum()
			if c.Rank() == 0 {
				cycles, sum = cyc, total
			}
			return nil
		})
		sums = append(sums, sum)
		cycleCounts = append(cycleCounts, cycles)
	}
	for i := 1; i < len(sums); i++ {
		if math.Abs(sums[i]-sums[0]) > 1e-9*math.Abs(sums[0]) {
			t.Fatalf("arm %d solution differs: %v vs %v", i, sums[i], sums[0])
		}
		if cycleCounts[i] != cycleCounts[0] {
			t.Fatalf("arm %d cycle count differs: %d vs %d", i, cycleCounts[i], cycleCounts[0])
		}
	}
}

func TestZeroRHS(t *testing.T) {
	runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
		s := New(c, []int{16}, 2, petsc.ScatterHandTuned)
		b := s.CreateVec()
		x := s.CreateVec()
		cycles, relres := s.Solve(b, x, 1e-8, 10)
		if cycles != 0 || relres != 0 {
			return fmt.Errorf("zero rhs: cycles=%d relres=%v", cycles, relres)
		}
		return nil
	})
}

// TestNaNRHSIsNotConverged: a NaN in b makes every residual NaN, and both
// iterations report a NaN relative residual, never one at or below rtol.
func TestNaNRHSIsNotConverged(t *testing.T) {
	for _, richardson := range []bool{false, true} {
		runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
			s := New(c, []int{16}, 2, petsc.ScatterHandTuned)
			s.Richardson = richardson
			b, x := s.CreateVec(), s.CreateVec()
			b.Set(1)
			b.Array()[0] = math.NaN()
			if _, relres := s.Solve(b, x, 1e-8, 10); !math.IsNaN(relres) {
				return fmt.Errorf("richardson=%v: NaN rhs solved to relres %v", richardson, relres)
			}
			return nil
		})
	}
}

func TestValidation(t *testing.T) {
	runWorld(t, 1, mpi.Optimized(), func(c *mpi.Comm) error {
		mustPanic := func(name string, f func()) error {
			defer func() { recover() }()
			f()
			return fmt.Errorf("%s: expected panic", name)
		}
		if err := mustPanic("indivisible", func() { New(c, []int{10}, 3, petsc.ScatterHandTuned) }); err != nil {
			return err
		}
		if err := mustPanic("no levels", func() { New(c, []int{8}, 0, petsc.ScatterHandTuned) }); err != nil {
			return err
		}
		return nil
	})
}

func TestPaperConfiguration100Cubed(t *testing.T) {
	// The paper's exact application setup: 100^3 grid, one dof, three
	// levels (100 -> 50 -> 25).  Run a couple of V-cycles on 8 ranks to
	// validate the configuration end to end (full convergence is covered
	// by the benchmark harness).
	if testing.Short() {
		t.Skip("large grid in -short mode")
	}
	runWorld(t, 8, mpi.Optimized(), func(c *mpi.Comm) error {
		s := New(c, []int{100, 100, 100}, 3, petsc.ScatterDatatype)
		if s.Levels() != 3 {
			return fmt.Errorf("levels = %d", s.Levels())
		}
		if s.DA(2).GlobalSize(0) != 25 {
			return fmt.Errorf("coarsest extent = %d, want 25", s.DA(2).GlobalSize(0))
		}
		b := s.CreateVec()
		setManufactured(s, b)
		x := s.CreateVec()

		r := s.CreateVec()
		s.Apply(x, r)
		r.AYPX(-1, b)
		before := r.Norm2()
		s.vcycle(0, fromNothing, b, x, endNone)
		s.vcycle(0, fromNothing, b, x, endNone)
		s.Apply(x, r)
		r.AYPX(-1, b)
		after := r.Norm2()
		if after > before/4 {
			return fmt.Errorf("100^3 V-cycles barely contracted: %v -> %v", before, after)
		}
		return nil
	})
}

// TestNewAllocatesWhatItKeeps: on one rank New allocates the vectors and
// arrays the solver keeps plus a fixed allowance for everything else (the
// DAs, scatters, datatypes and transfer tables, all O(rows) or less), so a
// throwaway list of one entry per cell — 256 KiB on this grid's finest
// level — cannot come back unnoticed.
func TestNewAllocatesWhatItKeeps(t *testing.T) {
	const allowance = 128 << 10
	for _, mode := range []petsc.ScatterMode{petsc.ScatterDatatype, petsc.ScatterHandTuned} {
		runWorld(t, 1, mpi.Compiled(), func(c *mpi.Comm) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := New(c, []int{32, 32, 32}, 4, mode)
			runtime.ReadMemStats(&after)
			kept := 8 * (s.res.LocalSize() + len(s.sumBuf))
			for _, lv := range s.levels {
				kept += 8 * (3*lv.da.OwnedCount() + len(lv.lwork) + len(lv.zeroRow) + len(lv.finePatch) + len(lv.coarsePatch))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(kept+allowance) {
				return fmt.Errorf("%v: New allocated %d B, keeps %d B of vectors and arrays: %d B over them, allowance %d B",
					mode, got, kept, int(got)-kept, allowance)
			}
			t.Logf("%v: New allocated %d B, keeps %d B", mode, after.TotalAlloc-before.TotalAlloc, kept)
			return nil
		})
	}
}
