package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/datatype"
)

// startMesh brings up an n-rank localhost TCP mesh in one process, using
// pre-bound listeners to avoid port races.  Each endpoint's inbound messages
// are appended to its slot of the returned recorder.
type meshMsg struct {
	Hdr     Header
	Payload []byte
}

type meshRecorder struct {
	mu   sync.Mutex
	msgs [][]meshMsg
}

func (rec *meshRecorder) handler(rank int) Handler {
	return func(to int, hdr Header, payload []byte) {
		cp := append([]byte(nil), payload...)
		if payload != nil {
			datatype.PutBuffer(payload)
		}
		rec.mu.Lock()
		rec.msgs[rank] = append(rec.msgs[rank], meshMsg{Hdr: hdr, Payload: cp})
		rec.mu.Unlock()
	}
}

func (rec *meshRecorder) get(rank int) []meshMsg {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]meshMsg(nil), rec.msgs[rank]...)
}

func startMesh(t *testing.T, n int, peer PeerFunc) ([]*TCP, *meshRecorder) {
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
	eps := make([]*TCP, n)
	for r := 0; r < n; r++ {
		ep, err := NewTCP(TCPConfig{
			Rank: r, Size: n, WorldID: 0xabc, Addrs: addrs, Listener: lns[r],
			DialTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		eps[r] = ep
	}
	rec := &meshRecorder{msgs: make([][]meshMsg, n)}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = eps[r].Start(rec.handler(r), peer)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("start rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps, rec
}

func payloadFor(src, dst int) []byte {
	b := datatype.GetBuffer(32 + src*7 + dst*3)
	for i := range b {
		b[i] = byte(src*31 + dst*7 + i)
	}
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPMeshExchange: 4 ranks on localhost, all-pairs exchange including
// self-sends; every message arrives intact with its header.
func TestTCPMeshExchange(t *testing.T) {
	const n = 4
	eps, rec := startMesh(t, n, nil)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			hdr := Header{Ctx: 1, Src: int32(src), Tag: int32(100 + dst), Seq: uint64(src*n + dst)}
			if err := eps[src].Send(dst, hdr, payloadFor(src, dst)); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		waitFor(t, fmt.Sprintf("rank %d inbox", dst), func() bool { return len(rec.get(dst)) == n })
		seen := map[int32]bool{}
		for _, m := range rec.get(dst) {
			want := payloadFor(int(m.Hdr.Src), dst)
			if len(m.Payload) != len(want) {
				t.Fatalf("rank %d from %d: %d bytes, want %d", dst, m.Hdr.Src, len(m.Payload), len(want))
			}
			for i := range want {
				if m.Payload[i] != want[i] {
					t.Fatalf("rank %d from %d: payload byte %d mismatch", dst, m.Hdr.Src, i)
				}
			}
			if m.Hdr.Tag != int32(100+dst) {
				t.Fatalf("rank %d: tag %d", dst, m.Hdr.Tag)
			}
			seen[m.Hdr.Src] = true
		}
		if len(seen) != n {
			t.Fatalf("rank %d heard from %d distinct sources", dst, len(seen))
		}
	}
}

// TestTCPPeerDown: abruptly closing one endpoint reports it down at its
// peers, and subsequent sends to it fail with PeerDownError.
func TestTCPPeerDown(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	downs := map[int]int{}
	eps, _ := startMesh(t, n, func(rank int, up bool) {
		mu.Lock()
		if !up {
			downs[rank]++
		}
		mu.Unlock()
	})
	eps[2].Close()
	waitFor(t, "down callbacks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return downs[2] >= 2
	})
	waitFor(t, "send failure", func() bool {
		err := eps[0].Send(2, Header{}, payloadFor(0, 2))
		var pd *PeerDownError
		return errors.As(err, &pd) && pd.Rank == 2
	})
	// Ranks 0 and 1 can still talk.
	if err := eps[0].Send(1, Header{Ctx: 3, Src: 0, Tag: 5}, payloadFor(0, 1)); err != nil {
		t.Fatalf("surviving pair send: %v", err)
	}
}

// TestTCPDamagedFrameDropsPeer: no layer below the runtime retransmits, so a
// frame that fails its CRC trailer is stream damage.  A peer that completes
// the handshake and then sends a data frame with one body byte flipped must
// be reported down — a skipped frame would leave its receiver waiting for
// ever — and the reject must be counted.
func TestTCPDamagedFrameDropsPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const world = 0xbad
	ep, err := NewTCP(TCPConfig{Rank: 0, Size: 2, WorldID: world, Listener: ln,
		Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	downs := make(chan int, 1)
	started := make(chan error, 1)
	go func() {
		started <- ep.Start(func(_ int, _ Header, p []byte) { datatype.PutBuffer(p) },
			func(r int, up bool) {
				select {
				case downs <- r:
				default: // only the first report is awaited
				}
			})
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(EncodeFrame(nil, &Frame{Kind: KindHello, WorldID: world, Rank: 1, WSize: 2})); err != nil {
		t.Fatal(err)
	}
	if reply, err := ep.readFrame(bufio.NewReader(conn)); err != nil || reply.Kind != KindHello {
		t.Fatalf("hello reply: %+v, %v", reply, err)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	bad := EncodeFrame(nil, &Frame{Kind: KindData, Hdr: Header{Ctx: 1, Tag: 2}, Payload: []byte("payload")})
	bad[framePrefixLen+dataHeadLen] ^= 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-downs:
		if r != 1 {
			t.Fatalf("liveness report for rank %d, want 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a damaged frame did not take its peer down")
	}
	if got := ep.Stats().CRCRejects; got != 1 {
		t.Fatalf("CRCRejects = %d, want 1", got)
	}
}
