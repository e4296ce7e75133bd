package dmda

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// runWorldTCP executes f on np single-rank TCP-connected worlds in this
// process — the ghost exchanges genuinely cross sockets.
func runWorldTCP(t *testing.T, np int, cfg mpi.Config, f func(c *mpi.Comm) error) {
	t.Helper()
	addrs := make([]string, np)
	lns := make([]net.Listener, np)
	for r := 0; r < np; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(transport.TCPConfig{
				Rank: r, Size: np, WorldID: 0xda, Addrs: addrs, Listener: lns[r],
				DialTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			w, err := mpi.NewWorldTransport(tr, simnet.Uniform(np, simnet.IBDDR()), cfg)
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

// TestGlobalToLocalOverlapTCP verifies the communication/computation
// overlap path (GlobalToLocalBegin / local work / GlobalToLocalEnd) over
// real sockets for every scatter backend: the ghost regions must come out
// exactly as they do in-process.
func TestGlobalToLocalOverlapTCP(t *testing.T) {
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runWorldTCP(t, 4, mpi.Compiled(), func(c *mpi.Comm) error {
				da := New(c, []int{12, 10, 8}, 2, StencilStar, 1, mode)
				g := da.CreateGlobalVec()
				fillGlobal(da, g)
				l := da.CreateLocalArray()
				for iter := 0; iter < 3; iter++ {
					da.GlobalToLocalBegin(g, l)
					// Interior work that legitimately overlaps the exchange.
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
