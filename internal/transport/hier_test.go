package transport_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// startHierWorld brings up a 2-node × 2-rank mixed-transport world in
// this process: each node's pair shares an in-process shm segment, the
// TCP mesh spans all four ranks.  It returns the routers and, by rank, the
// two endpoints each routes over.
func startHierWorld(t *testing.T, recv []func(hdr transport.Header, payload []byte)) ([]*transport.Hierarchical, []*shm.Transport, []*transport.TCP) {
	t.Helper()
	const n = 4
	nodeOf := []int{0, 0, 1, 1}
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	segs := make([]*shm.Segment, 2)
	for g := range segs {
		seg, err := shm.NewMemSegment(2, 1<<16, 0x417)
		if err != nil {
			t.Fatal(err)
		}
		segs[g] = seg
	}
	hs := make([]*transport.Hierarchical, n)
	intras, inters := make([]*shm.Transport, n), make([]*transport.TCP, n)
	for r := 0; r < n; r++ {
		node := nodeOf[r]
		intra, err := shm.New(shm.Config{Rank: r, Size: n, Ranks: []int{node * 2, node*2 + 1},
			WorldID: 0x417, Seg: segs[node], RingBytes: 1 << 16,
			Heartbeat: transport.HeartbeatConfig{Interval: 20 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		inter, err := transport.NewTCP(transport.TCPConfig{Rank: r, Size: n, WorldID: 0x417,
			Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		h, err := transport.NewHierarchical(r, nodeOf, intra, inter)
		if err != nil {
			t.Fatal(err)
		}
		hs[r], intras[r], inters[r] = h, intra, inter
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = hs[r].Start(func(to int, hdr transport.Header, payload []byte) {
				recv[r](hdr, payload)
			}, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hs {
			h.Close()
		}
	})
	return hs, intras, inters
}

// TestHierarchicalRouting verifies per-peer routing: co-located traffic
// moves through the shm rings, remote traffic through the sockets, and
// both arrive intact.
func TestHierarchicalRouting(t *testing.T) {
	var got [4]atomic.Int64
	recv := make([]func(hdr transport.Header, payload []byte), 4)
	for r := 0; r < 4; r++ {
		r := r
		recv[r] = func(hdr transport.Header, payload []byte) {
			got[r].Add(int64(hdr.Tag))
			datatype.PutBuffer(payload)
		}
	}
	hs, intras, inters := startHierWorld(t, recv)

	send := func(src, dst, tag int) {
		t.Helper()
		if err := hs[src].Send(dst, transport.Header{Ctx: 1, Tag: int32(tag)}, datatype.GetBuffer(128)); err != nil {
			t.Fatalf("send %d->%d: %v", src, dst, err)
		}
	}
	send(0, 1, 10)    // intra node 0
	send(0, 2, 100)   // inter
	send(3, 2, 1000)  // intra node 1
	send(2, 0, 10000) // inter
	deadline := time.Now().Add(5 * time.Second)
	for got[1].Load() != 10 || got[2].Load() != 1100 || got[0].Load() != 10000 {
		if time.Now().After(deadline) {
			t.Fatalf("deliveries incomplete: %d %d %d", got[0].Load(), got[1].Load(), got[2].Load())
		}
		time.Sleep(time.Millisecond)
	}

	shm0 := intras[0].Stats()
	if shm0.FramesSent != 1 {
		t.Fatalf("rank 0 shm frames sent %d, want 1 (only the co-located send)", shm0.FramesSent)
	}
	tcp0 := inters[0].Stats()
	if tcp0.FramesSent != 1 {
		t.Fatalf("rank 0 tcp frames sent %d, want 1 (only the remote send)", tcp0.FramesSent)
	}
}

// TestHierarchicalHealthFilter kills a co-located peer's shm presence
// while its TCP connection stays open, and conversely checks that only
// the route-owning transport reports the failure upward.
func TestHierarchicalHealthFilter(t *testing.T) {
	recv := make([]func(hdr transport.Header, payload []byte), 4)
	for r := 0; r < 4; r++ {
		recv[r] = func(hdr transport.Header, payload []byte) { datatype.PutBuffer(payload) }
	}
	hs, intras, _ := startHierWorld(t, recv)

	var suspects [4]atomic.Int64
	hs[0].SetHealth(transport.HealthFuncs{
		Suspect: func(r int, s bool, silent time.Duration) {
			if s {
				suspects[r].Add(1)
			}
		},
	})
	// Rank 1 (co-located with 0) stops stamping its presence slot; its TCP
	// endpoint keeps beating nothing (no TCP heartbeats configured), so any
	// suspicion of rank 1 must come from the shm detector — and suspicion
	// of the remote ranks must not appear at all.
	intras[1].PauseHeartbeats(true)
	deadline := time.Now().Add(5 * time.Second)
	for suspects[1].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("co-located failure never suspected via shm")
		}
		time.Sleep(time.Millisecond)
	}
	if suspects[2].Load() != 0 || suspects[3].Load() != 0 {
		t.Fatal("remote ranks suspected without cause")
	}
}
