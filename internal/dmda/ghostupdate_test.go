package dmda

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// TestGhostUpdate: GhostUpdate is GlobalToLocal without the owned box.  On
// every rank of every case, starting from an array full of a sentinel, each
// cell outside the owned box ends up as GlobalToLocal leaves it (a star
// stencil's corners, which neither writes, included), each owned cell still
// holds the sentinel, and the rank's virtual clock and Stats are those of
// GlobalToLocal: the paper's DMGlobalToLocal is what stays priced.  A rank
// whose ghost box is its owned box passes no array at all.  Both arms, all
// three engines, star and box stencils, dof 2, np 1 to 8, in one, two and
// three dimensions.
func TestGhostUpdate(t *testing.T) {
	const sentinel = -7.5
	type outcome struct {
		l     []float64
		clock float64
		stats mpi.Stats
	}
	grids := []struct {
		n     []int
		width int
	}{
		{n: []int{9, 8, 7}, width: 1},
		{n: []int{17, 11}, width: 2},
		{n: []int{23}, width: 1},
	}
	cfgs := map[string]mpi.Config{"baseline": mpi.Baseline(), "optimized": mpi.Optimized(), "compiled": mpi.Compiled()}
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		for _, st := range []StencilType{StencilStar, StencilBox} {
			for name, cfg := range cfgs {
				t.Run(fmt.Sprintf("%v/%v/%s", mode, st, name), func(t *testing.T) {
					for _, grid := range grids {
						for np := 1; np <= 8; np++ {
							// exchange fills a sentinel array through move on every rank.
							exchange := func(move func(da *DA, g *petsc.Vec, l []float64), check func(da *DA, rank int, got outcome) error) {
								runWorld(t, np, cfg, func(c *mpi.Comm) error {
									da := New(c, grid.n, 2, st, grid.width, mode)
									g := da.CreateGlobalVec()
									fillGlobal(da, g)
									l := da.CreateLocalArray()
									for i := range l {
										l[i] = sentinel
									}
									move(da, g, l)
									return check(da, c.Rank(), outcome{l, c.Clock(), c.Stats()})
								})
							}
							whole := make([]outcome, np)
							exchange((*DA).GlobalToLocal, func(_ *DA, r int, got outcome) error {
								whole[r] = got
								return nil
							})
							exchange(func(da *DA, g *petsc.Vec, l []float64) {
								if da.GhostBox() == da.OwnedBox() {
									l = nil
								}
								da.GhostUpdate(g, l)
							}, func(da *DA, r int, got outcome) error {
								if got.clock != whole[r].clock || got.stats != whole[r].stats {
									return fmt.Errorf("%v np %d rank %d: GhostUpdate counted %+v at clock %v, GlobalToLocal %+v at %v",
										grid.n, np, r, got.stats, got.clock, whole[r].stats, whole[r].clock)
								}
								own, ghost := da.OwnedBox(), da.GhostBox()
								for k := ghost.Lo[2]; k < ghost.Hi[2]; k++ {
									for j := ghost.Lo[1]; j < ghost.Hi[1]; j++ {
										for i := ghost.Lo[0]; i < ghost.Hi[0]; i++ {
											cell := Box{Lo: [3]int{i, j, k}, Hi: [3]int{i + 1, j + 1, k + 1}}
											for f := 0; f < 2; f++ {
												at := da.LocalIndex(i, j, k, f)
												want := whole[r].l[at]
												if !cell.Intersect(own).Empty() {
													want = sentinel
												}
												if got.l[at] != want {
													return fmt.Errorf("%v np %d rank %d: (%d,%d,%d,%d) = %v, want %v", grid.n, np, r, i, j, k, f, got.l[at], want)
												}
											}
										}
									}
								}
								return nil
							})
						}
					}
				})
			}
		}
	}
}
