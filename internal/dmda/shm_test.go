package dmda

import (
	"fmt"
	"sync"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport/shm"
)

// runWorldShm executes f on np worlds wired through one shared-memory
// segment — the ghost exchanges genuinely cross the lock-free rings, the
// transport a co-located rank uses under mgsolve -pernode.
func runWorldShm(t *testing.T, np int, cfg mpi.Config, f func(c *mpi.Comm) error) {
	t.Helper()
	const worldID = 0xda5
	seg, err := shm.NewMemSegment(np, 1<<18, worldID)
	if err != nil {
		t.Fatalf("segment: %v", err)
	}
	ranks := make([]int, np)
	for r := range ranks {
		ranks[r] = r
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := shm.New(shm.Config{
				Rank: r, Size: np, Ranks: ranks, WorldID: worldID,
				Seg: seg, RingBytes: 1 << 18,
			})
			if err != nil {
				errs[r] = err
				return
			}
			w, err := mpi.NewWorldTransport(tr, simnet.Uniform(np, simnet.ShmIntra()), cfg)
			if err != nil {
				errs[r] = err
				return
			}
			defer w.Close()
			errs[r] = w.Run(f)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestGlobalToLocalOverlapShm is TestGlobalToLocalOverlapTCP's twin over
// the shared-memory rings: the overlap path must produce the same ghost
// regions through every scatter backend when the bytes travel through a
// segment instead of sockets.
func TestGlobalToLocalOverlapShm(t *testing.T) {
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runWorldShm(t, 4, mpi.Compiled(), func(c *mpi.Comm) error {
				da := New(c, []int{12, 10, 8}, 2, StencilStar, 1, mode)
				g := da.CreateGlobalVec()
				fillGlobal(da, g)
				l := da.CreateLocalArray()
				for iter := 0; iter < 3; iter++ {
					da.GlobalToLocalBegin(g, l)
					own := da.OwnedBox()
					sum := 0.0
					for k := own.Lo[2]; k < own.Hi[2]; k++ {
						sum += float64(k)
					}
					_ = sum
					da.GlobalToLocalEnd()
					if err := checkGhosts(da, l); err != nil {
						return fmt.Errorf("iter %d: %w", iter, err)
					}
				}
				return nil
			})
		})
	}
}
