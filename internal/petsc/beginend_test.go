package petsc

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/simnet"
)

// beginEndModes covers every backend plus the compiled-plan engine on the
// datatype path.
func beginEndModes() []struct {
	name string
	cfg  mpi.Config
	mode ScatterMode
} {
	return []struct {
		name string
		cfg  mpi.Config
		mode ScatterMode
	}{
		{"hand-tuned", mpi.Baseline(), ScatterHandTuned},
		{"datatype-optimized", mpi.Optimized(), ScatterDatatype},
		{"datatype-compiled", mpi.Compiled(), ScatterDatatype},
	}
}

// TestScatterBeginEndMatchesDo: splitting a scatter into Begin/End with
// unrelated local work in between must produce exactly what Do produces.
func TestScatterBeginEndMatchesDo(t *testing.T) {
	p, m := 4, 8
	n := p * m
	var ix, iy []int
	for r := 0; r < p; r++ {
		dst := (r + p/2) % p
		for k := 0; k < m/2; k++ {
			ix = append(ix, r*m+2*k)
			iy = append(iy, dst*m+2*k)
		}
	}
	for _, arm := range beginEndModes() {
		runWorld(t, p, arm.cfg, func(c *mpi.Comm) error {
			x := NewVec(c, n)
			yDo := NewVec(c, n)
			ySplit := NewVec(c, n)
			x.SetFromFunc(func(i int) float64 { return float64(i)*3 + 2 })
			yDo.Set(-1)
			ySplit.Set(-1)

			sc1 := NewScatter(x, ISGeneral(ix), yDo, ISGeneral(iy), arm.mode)
			sc1.Do(x, yDo)

			sc2 := NewScatter(x, ISGeneral(ix), ySplit, ISGeneral(iy), arm.mode)
			sc2.Begin(x, ySplit)
			// Overlappable local work between Begin and End.
			sum := 0.0
			for _, v := range x.Array() {
				sum += v
			}
			sc2.End()
			_ = sum

			for i, v := range ySplit.Array() {
				if v != yDo.Array()[i] {
					return fmt.Errorf("%s: split y[%d] = %v, Do gave %v", arm.name, i, v, yDo.Array()[i])
				}
			}
			return nil
		})
	}
}

// TestScatterBeginEndReuse: a Begin/End pair must be repeatable with fresh
// data, the steady state of a solver iteration.
func TestScatterBeginEndReuse(t *testing.T) {
	for _, arm := range beginEndModes() {
		runWorld(t, 3, arm.cfg, func(c *mpi.Comm) error {
			x := NewVec(c, 12)
			y := NewVec(c, 12)
			ix := ISStride(12, 0, 1)
			iy := ISStride(12, 0, 1)
			sc := NewScatter(x, ix, y, iy, arm.mode)
			for round := 1; round <= 3; round++ {
				x.SetFromFunc(func(i int) float64 { return float64(i * round) })
				sc.BeginArrays(x.Array(), y.Array())
				sc.End()
				lo, _ := y.Range()
				for i, v := range y.Array() {
					if v != float64((lo+i)*round) {
						return fmt.Errorf("%s round %d: y[%d] = %v", arm.name, round, lo+i, v)
					}
				}
			}
			return nil
		})
	}
}

// TestScatterBeginEndMisuse: double Begin and End-without-Begin must panic
// (surfacing as a Run error), not silently corrupt state.
func TestScatterBeginEndMisuse(t *testing.T) {
	mk := func(f func(sc *Scatter, x, y *Vec)) error {
		w := mpi.NewWorld(simnet.Uniform(1, simnet.IBDDR()), mpi.Optimized())
		return w.Run(func(c *mpi.Comm) error {
			x := NewVec(c, 4)
			y := NewVec(c, 4)
			is := ISStride(4, 0, 1)
			sc := NewScatter(x, is, y, is, ScatterHandTuned)
			f(sc, x, y)
			return nil
		})
	}
	if err := mk(func(sc *Scatter, x, y *Vec) {
		sc.Begin(x, y)
		sc.Begin(x, y)
	}); err == nil {
		t.Fatal("double Begin did not error")
	}
	if err := mk(func(sc *Scatter, x, y *Vec) {
		sc.End()
	}); err == nil {
		t.Fatal("End without Begin did not error")
	}
}
