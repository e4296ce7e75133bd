package petsc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/mpi"
	"nccd/internal/simnet"
	"nccd/internal/transport"
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

// runWorldTCP executes f on np single-rank worlds connected over loopback
// TCP in this process.
func runWorldTCP(t *testing.T, np int, cfg mpi.Config, f func(c *mpi.Comm) error) {
	t.Helper()
	addrs := make([]string, np)
	lns := make([]net.Listener, np)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(transport.TCPConfig{Rank: r, Size: np, WorldID: 0x9e7c,
				Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
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

// TestScatterBeginEndMatchesDo: splitting a scatter into Begin/End with
// unrelated local work in between must produce exactly what Do produces —
// in process on the virtual clock, and over the shm rings and TCP sockets,
// where the datatype arm's End is a real wait on the wire.
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
	for _, world := range []struct {
		name string
		run  func(t *testing.T, np int, cfg mpi.Config, f func(c *mpi.Comm) error)
	}{
		{"inproc", func(t *testing.T, np int, cfg mpi.Config, f func(c *mpi.Comm) error) { runWorld(t, np, cfg, f) }},
		{"shm", runWorldShm},
		{"tcp", runWorldTCP},
	} {
		for _, arm := range beginEndModes() {
			t.Run(world.name+"/"+arm.name, func(t *testing.T) {
				world.run(t, p, arm.cfg, func(c *mpi.Comm) error {
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
							return fmt.Errorf("split y[%d] = %v, Do gave %v", i, v, yDo.Array()[i])
						}
					}
					return nil
				})
			})
		}
	}
}

// TestScatterBeginAfterCommError: a Begin that dies of a typed communication
// error leaves nothing in flight.  A peer crashes mid-run; the survivors see
// it under Guard (the binned Alltoallw may instead route around the dead
// peer and see nothing) and revoke; every further Begin then raises the
// typed error again, never the already-in-flight panic.
func TestScatterBeginAfterCommError(t *testing.T) {
	const p, m = 3, 8
	for _, arm := range append(allModes(), beginEndModes()[2]) {
		t.Run(arm.name, func(t *testing.T) {
			cl := simnet.Uniform(p, simnet.IBDDR())
			cl.Faults = &simnet.FaultPlan{CrashAt: map[int]float64{2: 2e-5}}
			err := mpi.NewWorld(cl, arm.cfg).Run(func(c *mpi.Comm) error {
				me := c.Rank()
				idx := []int{0, 2, 4, 6}
				sc := NewScatterFromPlan(c, m, m, Plan{
					Sends: []PeerIndices{{Peer: (me + 1) % p, Local: idx}},
					Recvs: []PeerIndices{{Peer: (me + p - 1) % p, Local: idx}},
				}, arm.mode)
				x, y := make([]float64, m), make([]float64, m)
				once := func() error {
					return mpi.Guard(func() error {
						sc.BeginArrays(x, y)
						c.Compute(1e-6)
						sc.End()
						return nil
					})
				}
				typed := func(err error) bool { return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked) }
				var err error
				for i := 0; i < 200 && err == nil; i++ {
					err = once()
				}
				if err != nil && !typed(err) {
					return fmt.Errorf("crash of rank 2 surfaced as %v", err)
				}
				c.Revoke()
				for i := 0; i < 2; i++ {
					if err := once(); !typed(err) {
						return fmt.Errorf("scatter %d on the revoked communicator: %v", i, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
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
