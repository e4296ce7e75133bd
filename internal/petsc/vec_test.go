package petsc

import (
	"fmt"
	"math"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/simnet"
)

func runWorld(t *testing.T, n int, cfg mpi.Config, f func(c *mpi.Comm) error) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
	if err := w.Run(f); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOwnershipRangePartition(t *testing.T) {
	for _, tc := range []struct{ global, size int }{
		{10, 3}, {7, 7}, {3, 5}, {0, 4}, {100, 1}, {13, 4},
	} {
		covered := 0
		prevHi := 0
		for r := 0; r < tc.size; r++ {
			lo, hi := OwnershipRange(tc.global, tc.size, r)
			if lo != prevHi {
				t.Fatalf("g=%d s=%d: rank %d starts at %d, want %d", tc.global, tc.size, r, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative local size")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.global {
			t.Fatalf("g=%d s=%d: covered %d", tc.global, tc.size, covered)
		}
	}
}

func TestOwnerMatchesRange(t *testing.T) {
	for _, tc := range []struct{ global, size int }{
		{10, 3}, {7, 7}, {3, 5}, {100, 8}, {13, 4}, {128, 128},
	} {
		for i := 0; i < tc.global; i++ {
			r := Owner(tc.global, tc.size, i)
			lo, hi := OwnershipRange(tc.global, tc.size, r)
			if i < lo || i >= hi {
				t.Fatalf("g=%d s=%d: Owner(%d)=%d but range [%d,%d)", tc.global, tc.size, i, r, lo, hi)
			}
		}
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Owner(10, 2, 10)
}

func TestVecBasicsParallel(t *testing.T) {
	runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
		v := NewVec(c, 10)
		if v.GlobalSize() != 10 {
			return fmt.Errorf("global size %d", v.GlobalSize())
		}
		v.SetFromFunc(func(i int) float64 { return float64(i) })
		// sum 0..9 = 45
		if s := v.Sum(); s != 45 {
			return fmt.Errorf("sum = %v", s)
		}
		// dot with itself: sum i^2 = 285
		if d := v.Dot(v); d != 285 {
			return fmt.Errorf("dot = %v", d)
		}
		if n := v.Norm2(); math.Abs(n-math.Sqrt(285)) > 1e-12 {
			return fmt.Errorf("norm2 = %v", n)
		}
		if m := v.NormInf(); m != 9 {
			return fmt.Errorf("norminf = %v", m)
		}
		return nil
	})
}

func TestVecOps(t *testing.T) {
	runWorld(t, 3, mpi.Optimized(), func(c *mpi.Comm) error {
		x := NewVec(c, 11)
		y := NewVec(c, 11)
		w := x.Duplicate()
		x.Set(2)
		y.SetFromFunc(func(i int) float64 { return float64(i) })

		// y += -1 * y -> 0
		y.AXPY(-1, y)
		if n := y.Norm2(); n != 0 {
			return fmt.Errorf("AXPY zeroing failed: %v", n)
		}

		// y = 0*y + x = x
		y.AYPX(0, x)
		if d := y.Dot(x); d != 4*11 {
			return fmt.Errorf("AYPX: dot = %v", d)
		}

		y.Scale(0.5)
		if s := y.Sum(); s != 11 {
			return fmt.Errorf("scale: sum = %v", s)
		}

		w.Copy(x)
		if s := w.Sum(); s != 2*11 {
			return fmt.Errorf("copy: sum = %v", s)
		}
		return nil
	})
}

func TestNewVecWithSizes(t *testing.T) {
	runWorld(t, 3, mpi.Optimized(), func(c *mpi.Comm) error {
		v := NewVecWithSizes(c, []int{4, 0, 2})
		if v.GlobalSize() != 6 {
			return fmt.Errorf("global size %d", v.GlobalSize())
		}
		lo, hi := v.Range()
		want := [][2]int{{0, 4}, {4, 4}, {4, 6}}[c.Rank()]
		if lo != want[0] || hi != want[1] {
			return fmt.Errorf("rank %d range [%d,%d), want %v", c.Rank(), lo, hi, want)
		}
		v.Set(1)
		if s := v.Sum(); s != 6 {
			return fmt.Errorf("sum = %v", s)
		}
		defer func() { recover() }()
		NewVecWithSizes(c, []int{1})
		return fmt.Errorf("expected panic for wrong size count")
	})
}

func TestVecLayoutMismatchPanics(t *testing.T) {
	runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
		a := NewVec(c, 8)
		b := NewVec(c, 9)
		defer func() {
			if recover() == nil {
				panic("expected layout mismatch panic")
			}
		}()
		a.AXPY(1, b)
		return nil
	})
}

func TestVecChargesFlops(t *testing.T) {
	w := runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
		v := NewVec(c, 1<<16)
		v.Set(1)
		v.AXPY(2, v)
		return nil
	})
	if w.Stats(0).ComputeSec <= 0 {
		t.Fatal("vector ops charged no compute time")
	}
}

func TestISVariants(t *testing.T) {
	g := ISGeneral([]int{5, 3, 1})
	if g.Len() != 3 || g.At(1) != 3 {
		t.Fatalf("general IS wrong: %v", g.Indices())
	}
	s := ISStride(4, 10, 3)
	want := []int{10, 13, 16, 19}
	for i, x := range want {
		if s.At(i) != x {
			t.Fatalf("stride IS[%d] = %d, want %d", i, s.At(i), x)
		}
	}
}

func TestISValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ISGeneral([]int{0, 5}).Validate(5)
}

func TestISPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("neg stride len: expected panic")
		}
	}()
	ISStride(-1, 0, 1)
}
