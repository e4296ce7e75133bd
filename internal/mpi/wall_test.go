package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// tcpWorlds builds an n-rank world as n TCP-connected Worlds in this one
// process — the same topology as n OS processes, minus the fork — using
// pre-bound listeners to avoid port races.  fp is the cluster's fault plan,
// hb the endpoints' heartbeat interval (0 for none).
func tcpWorlds(t *testing.T, n int, cfg Config, fp *simnet.FaultPlan, hb time.Duration) []*World {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(transport.TCPConfig{
				Rank: r, Size: n, WorldID: 0x4ccd, Addrs: addrs, Listener: lns[r],
				DialTimeout: 10 * time.Second, Heartbeat: hb,
			})
			if err != nil {
				errs[r] = err
				return
			}
			cl := simnet.Uniform(n, simnet.IBDDR())
			cl.Faults = fp
			worlds[r], errs[r] = NewWorldTransport(tr, cl, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	return worlds
}

// runAll executes f on every world concurrently (each hosts one rank) and
// returns the per-rank Run errors.
func runAll(ws []*World, f func(c *Comm) error) []error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for r := range ws {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = ws[r].Run(f)
		}(r)
	}
	wg.Wait()
	return errs
}

// TestWallCollectives drives point-to-point, the collectives and Split
// across 4 single-rank worlds connected over localhost TCP.
func TestWallCollectives(t *testing.T) {
	const n = 4
	ws := tcpWorlds(t, n, Optimized(), nil, 0)
	errs := runAll(ws, func(c *Comm) error {
		me := c.Rank()
		c.Barrier()

		if got := c.AllreduceScalar(float64(me+1), OpSum); got != 10 {
			return fmt.Errorf("allreduce sum = %v, want 10", got)
		}
		if got := c.AllreduceScalar(float64(me), OpMax); got != 3 {
			return fmt.Errorf("allreduce max = %v, want 3", got)
		}

		var seed []byte
		if me == 2 {
			seed = []byte("wall-bcast")
		}
		if got := c.Bcast(2, seed); !bytes.Equal(got, []byte("wall-bcast")) {
			return fmt.Errorf("bcast got %q", got)
		}

		// Ring exchange with a distinctive payload per link.
		next, prev := (me+1)%n, (me+n-1)%n
		c.Send(next, 7, []byte{byte(me), byte(me * 3)})
		got, src := c.Recv(prev, 7)
		if src != prev || !bytes.Equal(got, []byte{byte(prev), byte(prev * 3)}) {
			return fmt.Errorf("ring recv from %d: src=%d payload=%v", prev, src, got)
		}

		mine := []byte{byte(me * 11)}
		all := make([]byte, n)
		c.Allgather(mine, all)
		for r := 0; r < n; r++ {
			if all[r] != byte(r*11) {
				return fmt.Errorf("allgather slot %d = %d", r, all[r])
			}
		}

		// Split into even/odd sub-communicators and reduce within each.
		sub := c.Split(me%2, 0)
		want := 2.0 // evens: 0+2
		if me%2 == 1 {
			want = 4.0 // odds: 1+3
		}
		if got := sub.AllreduceScalar(float64(me), OpSum); got != want {
			return fmt.Errorf("split allreduce = %v, want %v", got, want)
		}
		c.Barrier()
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestWallLossyLink runs traffic over every wall-clock mesh — TCP, shm
// rings, the job multiplexer and the two-level router — with a seeded
// drop/corrupt/dup plan on the cluster.  The runtime's one loss/ack/dedup
// loop decides every fault at the sender and the receivers' checksum and
// sequence defenses reject the damaged and duplicated copies, so everything
// arrives exactly once and intact, and every pooled buffer comes back.
func TestWallLossyLink(t *testing.T) {
	const rounds = 30
	fp := &simnet.FaultPlan{Seed: 7, Drop: 0.05, Corrupt: 0.05, Duplicate: 0.03}
	for _, mesh := range repMeshes {
		if !mesh.wall {
			continue
		}
		t.Run(mesh.name, func(t *testing.T) {
			poolBase := datatype.PoolOutstandingBytes()
			t.Cleanup(func() { // registered first, so it runs after every endpoint closed
				deadline := time.Now().Add(5 * time.Second)
				for datatype.PoolOutstandingBytes() != poolBase && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := datatype.PoolOutstandingBytes(); got != poolBase {
					t.Errorf("pool outstanding %d bytes, started at %d", got, poolBase)
				}
			})
			trs, _ := mesh.build(t)
			ws := repWorlds(t, trs, Optimized(), fp)
			errs := runAll(ws, func(c *Comm) error {
				me, n := c.Rank(), c.Size()
				for k := 0; k < rounds; k++ {
					for j := 0; j < n; j++ {
						if j != me {
							c.Send(j, 3, []byte{byte(k), byte(me), byte(j)})
						}
					}
					for j := 0; j < n; j++ {
						if j == me {
							continue
						}
						got, _ := c.Recv(j, 3)
						if !bytes.Equal(got, []byte{byte(k), byte(j), byte(me)}) {
							return fmt.Errorf("round %d: payload %v from rank %d", k, got, j)
						}
						datatype.PutBuffer(got)
					}
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			var st Stats
			var crc, dups int64
			for _, w := range ws {
				st.Add(w.TotalStats())
				crc += w.ChecksumRejects()
				dups += w.DuplicateRejects()
				w.Close()
			}
			if st.Retransmits == 0 || crc == 0 || dups == 0 {
				t.Fatalf("a defense never fired: %d retransmits, %d CRC rejects, %d duplicate rejects",
					st.Retransmits, crc, dups)
			}
		})
	}
}

// TestWallRevokeWakesBlockedSurvivor exercises revocation over real
// sockets: a scheduled crash kills rank 2's process-world, rank 1 observes
// the death and revokes the communicator, and rank 0 — blocked on rank 1,
// which is alive and never sends — is woken with ErrRevoked by the revoke
// frame alone.  A sub-communicator split off beforehand, which the revoke
// does not reach, keeps rank 1 up until rank 0 has been woken.
func TestWallRevokeWakesBlockedSurvivor(t *testing.T) {
	const n = 3
	fp := &simnet.FaultPlan{CrashAt: map[int]float64{2: 0.5}}
	ws := tcpWorlds(t, n, Optimized(), fp, 0)
	errs := runAll(ws, func(c *Comm) error {
		me := c.Rank()
		sub := c.Split(min(me, 2)/2, me) // ranks 0 and 1, and rank 2 alone
		switch me {
		case 2:
			c.Compute(1)      // the clock crosses CrashAt
			c.Send(0, 1, nil) // the crash fires here
			return errors.New("scheduled crash did not fire")
		case 1:
			if err := Guard(func() error { c.Recv(2, 1); return nil }); !errors.Is(err, ErrRankFailed) {
				return fmt.Errorf("crash went unnoticed: %v", err)
			}
			c.Revoke()
			sub.Recv(0, 2) // rank 0 was woken
			return nil
		}
		_, _, err := c.RecvDeadline(1, 1, 20)
		if !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("wait on a live peer ended with %v, want ErrRevoked", err)
		}
		sub.Send(1, 2, nil)
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got := ws[2].CrashedRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("world 2 crashed ranks = %v", got)
	}
}

// TestSuspicionTracedOnce: on a traced flat-TCP world with heartbeats, a
// peer silent long enough to be suspected, but resumed before it would be
// declared down, shows as exactly one non-hard "suspect" span — the
// endpoint's — and one count in the endpoint's Stats.  The world neither
// traces nor counts suspicion of its own.
func TestSuspicionTracedOnce(t *testing.T) {
	// Suspicion after 150 ms of silence, hard failure after 450 ms: resuming
	// at the first suspicion leaves more than 200 ms to spare.
	const beat = 50 * time.Millisecond
	ws := tcpWorlds(t, 2, Baseline(), nil, beat)
	eps := make([]*transport.TCP, 2)
	for r, w := range ws {
		eps[r] = w.Transport().(*transport.TCP)
		w.EnableTrace()
	}

	eps[1].PauseHeartbeats(true)
	deadline := time.Now().Add(5 * time.Second)
	for eps[0].Stats().Suspects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the silent peer was never suspected")
		}
		time.Sleep(time.Millisecond)
	}
	eps[1].PauseHeartbeats(false)
	time.Sleep(4 * beat) // beats resume; the suspicion clears, nothing is declared

	var suspects []obs.Span
	for _, s := range ws[0].Tracer().Spans() {
		if s.Kind == "suspect" {
			suspects = append(suspects, s)
		}
	}
	if len(suspects) != 1 || suspects[0].Peer != 1 || len(suspects[0].Attrs) != 1 || suspects[0].Attrs[0].Key != "silent" {
		t.Fatalf("suspect spans %+v, want one non-hard span for rank 1", suspects)
	}
	if got := eps[0].Stats().Suspects; got != 1 {
		t.Fatalf("Suspects = %d, want 1", got)
	}
	if !ws[0].Alive(1) {
		t.Fatal("a suspected peer was declared down")
	}
}
