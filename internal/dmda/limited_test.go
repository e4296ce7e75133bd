package dmda

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

func TestLimitedDecomposition(t *testing.T) {
	// 6 ranks, decomposition limited to 2: ranks 2..5 own nothing but the
	// ghost exchange must still be correct for the active ranks.
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		runWorld(t, 6, mpi.Optimized(), func(c *mpi.Comm) error {
			da := NewLimited(c, []int{16, 8}, 1, StencilStar, 1, mode, 2)
			if da.Active() != 2 {
				return fmt.Errorf("active = %d", da.Active())
			}
			if c.Rank() >= 2 {
				if da.OwnedCount() != 0 || da.GhostCount() != 0 {
					return fmt.Errorf("inactive rank %d owns %d/%d values",
						c.Rank(), da.OwnedCount(), da.GhostCount())
				}
			} else if da.OwnedCount() == 0 {
				return fmt.Errorf("active rank %d owns nothing", c.Rank())
			}
			g := da.CreateGlobalVec()
			if g.GlobalSize() != 16*8 {
				return fmt.Errorf("global size %d", g.GlobalSize())
			}
			fillGlobal(da, g)
			l := da.CreateLocalArray()
			da.GlobalToLocal(g, l)
			return checkGhosts(da, l)
		})
	}
}

func TestLimitedPatchScatterAcrossLayouts(t *testing.T) {
	// A patch scatter from a rank-limited DA must serve requests from all
	// ranks, including inactive ones.
	runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
		da := NewLimited(c, []int{10}, 1, StencilStar, 1, petsc.ScatterHandTuned, 1)
		g := da.CreateGlobalVec()
		fillGlobal(da, g)
		// Every rank (active or not) requests cells [2, 5).
		want := Box{Lo: [3]int{2, 0, 0}, Hi: [3]int{5, 1, 1}}
		sc, got := da.NewPatchScatter(want)
		patch := make([]float64, got.Cells())
		sc.DoArrays(g.Array(), patch)
		for i := 0; i < 3; i++ {
			if patch[i] != cellValue(2+i, 0, 0, 0) {
				return fmt.Errorf("rank %d patch[%d] = %v", c.Rank(), i, patch[i])
			}
		}
		return nil
	})
}

func TestLimitedNoLimitIsFull(t *testing.T) {
	runWorld(t, 3, mpi.Baseline(), func(c *mpi.Comm) error {
		da := NewLimited(c, []int{9}, 1, StencilStar, 1, petsc.ScatterHandTuned, 0)
		if da.Active() != 3 {
			return fmt.Errorf("active = %d, want 3", da.Active())
		}
		return nil
	})
}
