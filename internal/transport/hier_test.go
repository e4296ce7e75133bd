package transport_test

import (
	"fmt"
	"net"
	"slices"
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
// TCP mesh spans all four ranks.  peers[r], when peers is non-nil, is rank
// r's liveness callback.  It returns the routers and, by rank, the two
// endpoints each routes over.
func startHierWorld(t *testing.T, recv []func(hdr transport.Header, payload []byte), peers []transport.PeerFunc) ([]*transport.Hierarchical, []*shm.Transport, []*transport.TCP) {
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
			Heartbeat: 50 * time.Millisecond})
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
			var peer transport.PeerFunc
			if peers != nil {
				peer = peers[r]
			}
			errs[r] = hs[r].Start(func(to int, hdr transport.Header, payload []byte) {
				recv[r](hdr, payload)
			}, peer)
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
	hs, intras, inters := startHierWorld(t, recv, nil)

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

// TestHierarchicalHealthFilter checks that only the route-owning transport
// reports a peer's liveness upward.  Rank 1 is co-located with rank 0 and
// reached over shm; ranks 2 and 3 are remote and reach it over TCP.
// Closing rank 1's TCP endpoint is reported by the remote ranks but not by
// rank 0; rank 1's shm presence going silent then is, at rank 0 only.
func TestHierarchicalHealthFilter(t *testing.T) {
	recv := make([]func(hdr transport.Header, payload []byte), 4)
	for r := 0; r < 4; r++ {
		recv[r] = func(hdr transport.Header, payload []byte) { datatype.PutBuffer(payload) }
	}
	var mu sync.Mutex
	var seen [4][]string // per observing rank: "<rank> down|up"
	peers := make([]transport.PeerFunc, 4)
	for r := range peers {
		peers[r] = func(rank int, up bool) {
			mu.Lock()
			seen[r] = append(seen[r], fmt.Sprintf("%d %s", rank, map[bool]string{false: "down", true: "up"}[up]))
			mu.Unlock()
		}
	}
	events := func(r int) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen[r]...)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	hs, intras, inters := startHierWorld(t, recv, peers)

	inters[1].Close()
	waitFor("remote ranks report rank 1 down over TCP", func() bool {
		return slices.Equal(events(2), []string{"1 down"}) && slices.Equal(events(3), []string{"1 down"})
	})
	// Rank 0's own TCP endpoint has seen the close too; give its report
	// time to arrive and be dropped.
	waitFor("rank 0's TCP endpoint sees rank 1 gone", func() bool {
		return inters[0].Send(1, transport.Header{}, datatype.GetBuffer(8)) != nil
	})
	time.Sleep(100 * time.Millisecond)
	if got := events(0); len(got) != 0 {
		t.Fatalf("rank 0 took TCP's word for its co-located peer: %v", got)
	}
	if err := hs[0].Send(1, transport.Header{}, datatype.GetBuffer(8)); err != nil {
		t.Fatalf("co-located route to rank 1 broken by a TCP close: %v", err)
	}

	// Rank 1 stops stamping its presence slot: the shm detector, which owns
	// the route, declares it down at rank 0 only.
	intras[1].PauseHeartbeats(true)
	waitFor("rank 0 reports rank 1 down over shm", func() bool { return len(events(0)) > 0 })
	if got := events(0); !slices.Equal(got, []string{"1 down"}) {
		t.Fatalf("rank 0 reported %v, want [1 down]", got)
	}
	if got := intras[0].Stats().Suspects; got != 1 {
		t.Fatalf("shm Suspects = %d, want 1", got)
	}
	for _, r := range []int{2, 3} {
		if got := events(r); !slices.Equal(got, []string{"1 down"}) {
			t.Fatalf("rank %d reported %v, want [1 down] only", r, got)
		}
	}
}
