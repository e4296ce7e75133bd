package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
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

func startMesh(t *testing.T, n int, fp *simnet.FaultPlan, down DownFunc) ([]*TCP, *meshRecorder) {
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
			Faults: fp, AckTimeout: 50 * time.Millisecond, DialTimeout: 5 * time.Second,
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
			errs[r] = eps[r].Start(rec.handler(r), down)
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
	eps, rec := startMesh(t, n, nil, nil)
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

// TestTCPLossyDelivery: with a seeded drop+corrupt+duplicate plan below the
// framing layer, every message still arrives exactly once and intact, and
// the stats show the reliability protocol actually worked (retransmissions
// fired, the CRC trailer rejected corrupted frames, duplicates were
// deduplicated) with zero corrupted payloads accepted.
func TestTCPLossyDelivery(t *testing.T) {
	const n, rounds = 3, 40
	fp := &simnet.FaultPlan{Seed: 99, Drop: 0.15, Corrupt: 0.15, Duplicate: 0.1}
	eps, rec := startMesh(t, n, fp, nil)
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				dst := (src + 1 + k%(n-1)) % n
				hdr := Header{Ctx: 7, Src: int32(src), Tag: int32(k)}
				if err := eps[src].Send(dst, hdr, payloadFor(src, dst)); err != nil {
					t.Errorf("send %d->%d round %d: %v", src, dst, k, err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	waitFor(t, "all lossy messages", func() bool {
		total := 0
		for r := 0; r < n; r++ {
			total += len(rec.get(r))
		}
		return total == n*rounds
	})
	var agg TCPStats
	for _, ep := range eps {
		s := ep.Stats()
		agg.Retransmits += s.Retransmits
		agg.CRCRejects += s.CRCRejects
		agg.DupRejects += s.DupRejects
		agg.Dropped += s.Dropped
		agg.Corrupted += s.Corrupted
	}
	if agg.Dropped == 0 || agg.Corrupted == 0 {
		t.Fatalf("fault plan injected nothing: %+v", agg)
	}
	if agg.Retransmits == 0 {
		t.Fatalf("no retransmissions despite %d drops/%d corruptions", agg.Dropped, agg.Corrupted)
	}
	if agg.CRCRejects == 0 {
		t.Fatalf("corrupted frames were never CRC-rejected: %+v", agg)
	}
	// Every payload that was delivered must be intact: zero checksum-accepted
	// corruptions.
	for r := 0; r < n; r++ {
		for _, m := range rec.get(r) {
			want := payloadFor(int(m.Hdr.Src), r)
			for i := range want {
				if m.Payload[i] != want[i] {
					t.Fatalf("rank %d accepted corrupted payload from %d", r, m.Hdr.Src)
				}
			}
		}
	}
}

// TestSendLossy: a 14 KiB owned image — the gathered size of the degenerate
// ex49 corner-rank type map, several socket writes long — sent repeatedly
// over one link under a seeded drop + duplicate + corrupt plan arrives
// exactly once, in order and bitwise intact; every defence visibly fired;
// and every pooled buffer (the payloads, retransmitted out of the buffer Send
// owns, the corrupted encodings and the receiver's rejected copies) is back
// in the pool afterwards.
func TestSendLossy(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.05}
	eps, rec := startMesh(t, 2, fp, nil)
	poolBase := datatype.PoolOutstandingBytes()
	want := make([]byte, 1+4096+1+8192+2+1+2048)
	for i := range want {
		want[i] = byte(i*131 + 17)
	}

	const rounds = 40
	for i := 0; i < rounds; i++ {
		payload := datatype.GetBuffer(len(want))
		copy(payload, want)
		if err := eps[0].Send(1, Header{Ctx: 1, Src: 0, Tag: int32(i)}, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "lossy delivery", func() bool { return len(rec.get(1)) >= rounds })
	got := rec.get(1)
	if len(got) != rounds {
		t.Fatalf("%d messages delivered, want %d", len(got), rounds)
	}
	for i, m := range got {
		if m.Hdr.Tag != int32(i) {
			t.Fatalf("message %d carries tag %d: lost, duplicated or reordered", i, m.Hdr.Tag)
		}
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("tag %d: payload differs from what was sent", i)
		}
	}
	send, recv := eps[0].Stats(), eps[1].Stats()
	if send.Dropped == 0 || send.Corrupted == 0 || send.Duplicated == 0 {
		t.Fatalf("fault plan injected too little; test is vacuous: %+v", send)
	}
	if send.Retransmits == 0 || recv.CRCRejects == 0 || recv.DupRejects == 0 {
		t.Fatalf("a defence never fired: %d retransmits, %d CRC rejects, %d dup rejects",
			send.Retransmits, recv.CRCRejects, recv.DupRejects)
	}
	waitFor(t, "pool balance", func() bool { return datatype.PoolOutstandingBytes() == poolBase })
}

// TestTCPPeerDown: abruptly closing one endpoint fires the down callback at
// its peers, and subsequent sends to it fail with PeerDownError.
func TestTCPPeerDown(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	downs := map[int]int{}
	eps, _ := startMesh(t, n, nil, func(rank int) {
		mu.Lock()
		downs[rank]++
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
