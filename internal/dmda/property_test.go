package dmda

import (
	"fmt"
	"math/rand"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// TestGhostExchangePropertyRandom drives random DA shapes through both
// backends and both configs, checking ghosts against the global oracle.
func TestGhostExchangePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		dim := 1 + rng.Intn(3)
		n := make([]int, dim)
		for d := range n {
			n[d] = 4 + rng.Intn(12)
		}
		dof := 1 + rng.Intn(3)
		width := 1 + rng.Intn(2)
		st := StencilType(rng.Intn(2))
		mode := petsc.ScatterMode(rng.Intn(2))
		np := 1 + rng.Intn(6)
		cfg := mpi.Baseline()
		if rng.Intn(2) == 0 {
			cfg = mpi.Optimized()
		}
		desc := fmt.Sprintf("trial %d: dim=%d n=%v dof=%d w=%d st=%v mode=%v np=%d",
			trial, dim, n, dof, width, st, mode, np)
		runWorld(t, np, cfg, func(c *mpi.Comm) error {
			da := New(c, n, dof, st, width, mode)
			g := da.CreateGlobalVec()
			fillGlobal(da, g)
			l := da.CreateLocalArray()
			da.GlobalToLocal(g, l)
			if err := checkGhosts(da, l); err != nil {
				return fmt.Errorf("%s: %v", desc, err)
			}
			return nil
		})
	}
}

// TestPatchScatterPropertyRandom checks random patch requests, including
// overlapping and empty ones, against the oracle.
func TestPatchScatterPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(823546))
	for trial := 0; trial < 8; trial++ {
		np := 1 + rng.Intn(5)
		nx := 6 + rng.Intn(10)
		ny := 6 + rng.Intn(10)
		seed := rng.Int63()
		runWorld(t, np, mpi.Optimized(), func(c *mpi.Comm) error {
			da := New(c, []int{nx, ny}, 1, StencilStar, 1, petsc.ScatterDatatype)
			g := da.CreateGlobalVec()
			fillGlobal(da, g)
			// Each rank requests an independent random box (deterministic
			// from the shared seed plus its rank).
			lr := rand.New(rand.NewSource(seed + int64(c.Rank())))
			want := Box{
				Lo: [3]int{lr.Intn(nx) - 2, lr.Intn(ny) - 2, 0},
				Hi: [3]int{lr.Intn(nx) + 2, lr.Intn(ny) + 2, 1},
			}
			sc, got := da.NewPatchScatter(want)
			patch := make([]float64, got.Cells())
			sc.DoArrays(g.Array(), patch)
			idx := 0
			for j := got.Lo[1]; j < got.Hi[1]; j++ {
				for i := got.Lo[0]; i < got.Hi[0]; i++ {
					if patch[idx] != cellValue(i, j, 0, 0) {
						return fmt.Errorf("trial %d rank %d: patch (%d,%d) = %v",
							trial, c.Rank(), i, j, patch[idx])
					}
					idx++
				}
			}
			return nil
		})
	}
}
