// Laplace3d: the paper's application (Section 5.5) as a standalone program
// — a 3-D Laplacian solved with geometric multigrid on a DMDA grid — run
// over all three experimental arms so the communication-backend impact is
// visible side by side.
//
// Run with: go run ./examples/laplace3d [-extent 48] [-levels 3] [-ranks 32]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"nccd/internal/core"
	"nccd/internal/mg"
	"nccd/internal/mpi"
)

func main() {
	extent := flag.Int("extent", 48, "grid cells per dimension (paper: 100)")
	levels := flag.Int("levels", 3, "multigrid levels (paper: 3)")
	ranks := flag.Int("ranks", 32, "simulated ranks")
	rtol := flag.Float64("rtol", 1e-8, "relative residual tolerance")
	agglomerate := flag.Int("agglomerate", 0,
		"min cells per rank before a level agglomerates: 0 = default (a coarsest level of <= 4096 cells on one rank), "+
			"1 = every level on every rank, k = at least k cells per rank (try 2048)")
	flag.Parse()

	fmt.Printf("solving the 3-D Laplacian on a %d^3 grid, %d-level multigrid, %d ranks\n\n",
		*extent, *levels, *ranks)

	for _, arm := range core.Arms() {
		seconds, cycles, relres, errnorm := solve(*ranks, *extent, *levels, *rtol, *agglomerate, arm)
		fmt.Printf("%-16s %8.3f s  (%d CG iterations, relres %.1e, error vs exact %.2e)\n",
			arm.Name, seconds, cycles, relres, errnorm)
	}
}

// solve runs one arm and returns (virtual seconds, cycles, relative
// residual, inf-norm error against the manufactured solution).
func solve(ranks, extent, levels int, rtol float64, agglomerate int, arm core.Arm) (float64, int, float64, float64) {
	w := core.NewPaperWorld(ranks, arm.Config)
	var seconds, relres, errnorm float64
	var cycles int
	err := w.Run(func(c *mpi.Comm) error {
		s := mg.NewAgglomerated(c, []int{extent, extent, extent}, levels, arm.Mode, agglomerate)

		// Manufactured solution u* = prod sin(pi x_d); b = A u*.
		xstar := s.CreateVec()
		da := s.DA(0)
		own := da.OwnedBox()
		a := xstar.Array()
		idx := 0
		for k := own.Lo[2]; k < own.Hi[2]; k++ {
			for j := own.Lo[1]; j < own.Hi[1]; j++ {
				for i := own.Lo[0]; i < own.Hi[0]; i++ {
					v := 1.0
					for _, coord := range []int{i, j, k} {
						v *= math.Sin(math.Pi * (float64(coord) + 0.5) / float64(extent))
					}
					a[idx] = v
					idx++
				}
			}
		}
		b := s.CreateVec()
		s.Apply(xstar, b)

		x := s.CreateVec()
		c.Barrier()
		t0 := c.Clock()
		cyc, rr := s.Solve(b, x, rtol, 100)
		elapsed := c.AllreduceScalar(c.Clock()-t0, mpi.OpMax)

		x.AXPY(-1, xstar)
		en := x.NormInf()
		if c.Rank() == 0 {
			seconds, cycles, relres, errnorm = elapsed, cyc, rr, en
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return seconds, cycles, relres, errnorm
}
