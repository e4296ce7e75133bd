// Heat2d: explicit time stepping of the 2-D heat equation on a distributed
// structured grid — the classic ghost-exchange workload the paper's
// Section 2 motivates.  A hot square in the center of the domain diffuses
// outward; every time step performs one DMDA GlobalToLocal ghost update
// (star stencil), so the run's communication profile is exactly PETSc's.
//
// Run with: go run ./examples/heat2d [-n 128] [-steps 200] [-mode datatype]
package main

import (
	"flag"
	"fmt"
	"log"

	"nccd/internal/core"
	"nccd/internal/dmda"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

func main() {
	n := flag.Int("n", 128, "grid points per side")
	steps := flag.Int("steps", 200, "time steps")
	ranks := flag.Int("ranks", 16, "simulated ranks")
	modeName := flag.String("mode", "datatype", `scatter backend: "hand-tuned" or "datatype"`)
	flag.Parse()

	mode := petsc.ScatterDatatype
	if *modeName == "hand-tuned" {
		mode = petsc.ScatterHandTuned
	}

	w := core.NewPaperWorld(*ranks, mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		da := dmda.New(c, []int{*n, *n}, 1, dmda.StencilStar, 1, mode)
		u := da.CreateGlobalVec()
		unew := da.CreateGlobalVec()
		l := da.CreateLocalArray()

		// Initial condition: a hot square in the middle.
		own := da.OwnedBox()
		ua := u.Array()
		idx := 0
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				if i > *n/3 && i < 2**n/3 && j > *n/3 && j < 2**n/3 {
					ua[idx] = 100
				}
				idx++
			}
		}

		const alpha = 0.24 // diffusion number (stable < 0.25 in 2-D)
		for s := 0; s < *steps; s++ {
			da.GlobalToLocal(u, l)
			na := unew.Array()
			idx := 0
			gnx := da.GhostBox().Hi[0] - da.GhostBox().Lo[0]
			for j := own.Lo[1]; j < own.Hi[1]; j++ {
				for i := own.Lo[0]; i < own.Hi[0]; i++ {
					li := da.LocalIndex(i, j, 0, 0)
					up, down, left, right := 0.0, 0.0, 0.0, 0.0
					if j+1 < *n {
						up = l[li+gnx]
					}
					if j > 0 {
						down = l[li-gnx]
					}
					if i > 0 {
						left = l[li-1]
					}
					if i+1 < *n {
						right = l[li+1]
					}
					na[idx] = l[li] + alpha*(up+down+left+right-4*l[li])
					idx++
				}
			}
			c.Compute(float64(own.Cells()) * 7 * 0.6e-9)
			u, unew = unew, u

			if s%50 == 49 {
				heat := u.Sum()
				max := u.NormInf()
				if c.Rank() == 0 {
					fmt.Printf("step %4d: total heat %.1f, max %.2f\n", s+1, heat, max)
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	stats := w.TotalStats()
	fmt.Printf("\nsimulated %d ranks, %s scatter backend\n", *ranks, *modeName)
	fmt.Printf("virtual run time (slowest rank): %.3f ms\n", w.MaxClock()*1e3)
	// A rank's own cells are copied into its ghosted array, not sent: the
	// counts are of what crosses between ranks.
	fmt.Printf("messages between ranks: %d, bytes moved between them: %.1f MiB, pack time: %.3f ms\n",
		stats.MsgsSent, float64(stats.BytesSent)/(1<<20), stats.PackSec*1e3)
}
