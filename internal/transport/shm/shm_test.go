package shm

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/transport"
)

type recvSink struct {
	mu   sync.Mutex
	got  [][]byte
	hdrs []transport.Header
	n    atomic.Int64
}

func (s *recvSink) handler(to int, hdr transport.Header, payload []byte) {
	s.mu.Lock()
	s.got = append(s.got, append([]byte(nil), payload...))
	s.hdrs = append(s.hdrs, hdr)
	s.mu.Unlock()
	datatype.PutBuffer(payload)
	s.n.Add(1)
}

func (s *recvSink) wait(t *testing.T, target int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.n.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", s.n.Load(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// testBeat is the detector interval of the heartbeat tests.  Suspicion
// comes after 150 ms of silence and hard failure after 450 ms, so a
// healthy member stamping every 50 ms has 100 ms of slack before it is
// suspected, and a test that resumes a paused member as soon as it is
// suspected has more than 200 ms before it would be declared down.
const testBeat = 50 * time.Millisecond

// liveness counts the reports of a transport's liveness callback.
type liveness struct{ downs, ups atomic.Int64 }

func (l *liveness) record(_ int, up bool) {
	if up {
		l.ups.Add(1)
	} else {
		l.downs.Add(1)
	}
}

// waitUntil polls cond until it holds or the test's 5 s budget runs out.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startGroup brings up one Transport per rank of an m-rank group over a
// shared in-process segment.
func startGroup(t *testing.T, m int, hb time.Duration) ([]*Transport, []*recvSink) {
	t.Helper()
	seg, err := NewMemSegment(m, 1<<16, 0x5117)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int, m)
	for i := range ranks {
		ranks[i] = i
	}
	trs := make([]*Transport, m)
	sinks := make([]*recvSink, m)
	for r := 0; r < m; r++ {
		tr, err := New(Config{Rank: r, Size: m, Ranks: ranks, WorldID: 0x5117,
			Seg: seg, RingBytes: 1 << 16, Heartbeat: hb})
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
		sinks[r] = &recvSink{}
	}
	for r := 0; r < m; r++ {
		if err := trs[r].Start(sinks[r].handler, nil); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs, sinks
}

// TestSendRecvPair exercises the basic framed contract: payloads and
// headers cross the ring intact, in order, in both directions.
func TestSendRecvPair(t *testing.T) {
	trs, sinks := startGroup(t, 2, 0)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		payload := datatype.GetBuffer(i * 13 % 700)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		hdr := transport.Header{Ctx: 42, Src: 0, Tag: int32(i)}
		if err := trs[0].Send(1, hdr, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sinks[1].wait(t, rounds)
	sinks[1].mu.Lock()
	defer sinks[1].mu.Unlock()
	for i, hdr := range sinks[1].hdrs {
		if int(hdr.Tag) != i {
			t.Fatalf("message %d arrived with tag %d", i, hdr.Tag)
		}
		if len(sinks[1].got[i]) != i*13%700 {
			t.Fatalf("message %d: %d bytes", i, len(sinks[1].got[i]))
		}
	}
}

// TestFrameLimitIsRingCapacity: the largest payload is what one record
// leaves of a ring, RingBytes − recordBytes(0).  A payload of exactly that
// size fills the empty ring and arrives intact; one byte more is refused at
// once, before any wait for space, and its buffer goes back to the pool.
func TestFrameLimitIsRingCapacity(t *testing.T) {
	trs, sinks := startGroup(t, 2, 0)
	poolBase := datatype.PoolOutstandingBytes()
	limit := 1<<16 - recordBytes(0)
	payload := datatype.GetBuffer(limit)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	want := append([]byte(nil), payload...)
	if err := trs[0].Send(1, transport.Header{Tag: 1}, payload); err != nil {
		t.Fatalf("send of %d bytes: %v", limit, err)
	}
	sinks[1].wait(t, 1)
	sinks[1].mu.Lock()
	got := sinks[1].got[0]
	sinks[1].mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Fatalf("%d-byte payload arrived as %d bytes, or changed", limit, len(got))
	}

	start := time.Now()
	err := trs[0].Send(1, transport.Header{Tag: 2}, datatype.GetBuffer(limit+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("send of %d bytes returned %v, want the frame-limit error", limit+1, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v", d)
	}
	if st := trs[0].Stats(); st.RingFullStalls != 0 || st.FramesSent != 1 {
		t.Fatalf("stats %+v: want 1 frame sent and no stall", st)
	}
	waitUntil(t, "pool balance", func() bool { return datatype.PoolOutstandingBytes() == poolBase })
}

// TestBackpressureCounted overruns a ring much smaller than the traffic
// and checks every frame still arrives, with stalls counted.
func TestBackpressureCounted(t *testing.T) {
	seg, err := NewMemSegment(2, 1<<10, 0xbead)
	if err != nil {
		t.Fatal(err)
	}
	var trs [2]*Transport
	var sink recvSink
	for r := 0; r < 2; r++ {
		tr, err := New(Config{Rank: r, Size: 2, Ranks: []int{0, 1}, WorldID: 0xbead,
			Seg: seg, RingBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
		defer tr.Close()
	}
	if err := trs[1].Start(sink.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Start(func(int, transport.Header, []byte) {}, nil); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		payload := datatype.GetBuffer(400) // ~2 records fill the 1 KiB ring
		if err := trs[0].Send(1, transport.Header{Tag: int32(i)}, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sink.wait(t, rounds)
	if st := trs[0].Stats(); st.RingFullStalls == 0 {
		t.Fatal("no ring-full stalls counted despite 80x overrun")
	}
}

// TestHeartbeatFailureDetection pauses one member's presence stamping and
// expects the peer to suspect it once per silence without reporting it;
// resuming before the hard deadline clears the suspicion, so a second
// pause counts a second one, and a silence left to ripen is reported down.
func TestHeartbeatFailureDetection(t *testing.T) {
	seg, err := NewMemSegment(2, 1<<16, 0x4eab)
	if err != nil {
		t.Fatal(err)
	}
	var trs [2]*Transport
	for r := 0; r < 2; r++ {
		tr, err := New(Config{Rank: r, Size: 2, Ranks: []int{0, 1}, WorldID: 0x4eab,
			Seg: seg, RingBytes: 1 << 16, Heartbeat: testBeat})
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
		defer tr.Close()
	}
	var live liveness
	drop := func(to int, hdr transport.Header, p []byte) { datatype.PutBuffer(p) }
	if err := trs[0].Start(drop, live.record); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Start(drop, nil); err != nil {
		t.Fatal(err)
	}

	for want := int64(1); want <= 2; want++ {
		trs[1].PauseHeartbeats(true)
		waitUntil(t, "suspicion", func() bool { return trs[0].Stats().Suspects == want })
		trs[1].PauseHeartbeats(false)
		// The member stamps within an interval of the resume and the
		// peer's next tick clears the suspicion.
		time.Sleep(4 * testBeat)
	}
	if live.downs.Load()+live.ups.Load() != 0 {
		t.Fatal("a member that resumed in time was reported")
	}
	if err := trs[0].Send(1, transport.Header{}, datatype.GetBuffer(8)); err != nil {
		t.Fatalf("send to the recovered member: %v", err)
	}

	// Now let the silence ripen into a hard failure.
	trs[1].PauseHeartbeats(true)
	waitUntil(t, "hard failure", func() bool { return live.downs.Load() > 0 })
	if got := trs[0].Stats().Suspects; got != 3 || live.downs.Load() != 1 {
		t.Fatalf("Suspects = %d, %d down reports; want 3 and 1", got, live.downs.Load())
	}
	var pd *transport.PeerDownError
	if err := trs[0].Send(1, transport.Header{}, datatype.GetBuffer(8)); !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("send to failed member: %v, want PeerDownError for rank 1", err)
	}
}

// TestRejoinDrainAndEpochFence replaces a member: the replacement drains
// the backlog its predecessor never consumed, peers report it up only
// with a current epoch, and traffic flows again.
func TestRejoinDrainAndEpochFence(t *testing.T) {
	seg, err := NewMemSegment(2, 1<<16, 0x99)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rank int, epoch uint64, rejoin bool) *Transport {
		tr, err := New(Config{Rank: rank, Size: 2, Ranks: []int{0, 1}, WorldID: 0x99,
			Seg: seg, RingBytes: 1 << 16, Heartbeat: testBeat, Epoch: epoch, Rejoin: rejoin})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t0, t1 := mk(0, 0, false), mk(1, 0, false)
	defer t0.Close()
	sink0 := &recvSink{}
	var live liveness
	if err := t0.Start(sink0.handler, live.record); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(func(int, transport.Header, []byte) {}, nil); err != nil {
		t.Fatal(err)
	}

	// Kill rank 1 (Close stops the consumer; survivors see silence), then
	// stuff its inbound ring with traffic it will never consume: rank 0
	// still scores it alive for the whole failure window.  Sending first
	// would race rank 1's consumer for the frame.
	t1.Close()
	if err := t0.Send(1, transport.Header{Tag: 1}, datatype.GetBuffer(64)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the dead member reported down", func() bool { return live.downs.Load() == 1 })

	// Survivor commits the recovery epoch; the replacement attaches with
	// it, drains the stale backlog, and is reported up.
	t0.SetEpoch(1)
	r1 := mk(1, 1, true)
	defer r1.Close()
	if st := r1.Stats(); st.DrainedBytes == 0 {
		t.Fatal("replacement drained nothing despite a queued backlog")
	}
	sink1 := &recvSink{}
	if err := r1.Start(sink1.handler, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the replacement reported up", func() bool { return live.ups.Load() == 1 })
	if err := t0.Send(1, transport.Header{Tag: 9}, datatype.GetBuffer(32)); err != nil {
		t.Fatalf("send to replacement: %v", err)
	}
	sink1.wait(t, 1)
	if int(sink1.hdrs[0].Tag) != 9 {
		t.Fatalf("replacement saw stale traffic first: tag %d", sink1.hdrs[0].Tag)
	}
	if got := live.downs.Load(); got != 1 {
		t.Fatalf("%d down reports, want 1", got)
	}
}

// TestReplacementSeenLateIsNotDeclaredDead replaces a member before the
// survivor's detector ever observes the death.  A survivor still at the old
// epoch must be told of the death before the replacement is adopted: it may
// be blocked on the dead incarnation.  A survivor that has already raised
// its epoch to the replacement's has been through the recovery that admits
// it, so a death report then would declare the live replacement dead; it
// must only see the replacement up.  Silence scoring is off (no heartbeat
// interval), so only the attach generation can tell the survivor anything.
func TestReplacementSeenLateIsNotDeclaredDead(t *testing.T) {
	for _, tc := range []struct {
		name          string
		survivorEpoch uint64
		wantDown      int64
	}{
		{"survivor not yet recovered", 0, 1},
		{"survivor already at the replacement's epoch", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg, err := NewMemSegment(2, 1<<16, 0x1a7e)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(rank int, epoch uint64, rejoin bool) *Transport {
				tr, err := New(Config{Rank: rank, Size: 2, Ranks: []int{0, 1}, WorldID: 0x1a7e,
					Seg: seg, RingBytes: 1 << 16, Epoch: epoch, Rejoin: rejoin})
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			drop := func(to int, hdr transport.Header, p []byte) { datatype.PutBuffer(p) }
			t0, t1 := mk(0, 0, false), mk(1, 0, false)
			defer t0.Close()
			var live liveness
			if err := t0.Start(drop, live.record); err != nil {
				t.Fatal(err)
			}
			if err := t1.Start(drop, nil); err != nil {
				t.Fatal(err)
			}

			t1.Close()
			t0.SetEpoch(tc.survivorEpoch)
			r1 := mk(1, 1, true)
			defer r1.Close()
			if err := r1.Start(drop, nil); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "the replacement reported up", func() bool { return live.ups.Load() > 0 })
			if got := live.downs.Load(); got != tc.wantDown {
				t.Fatalf("%d death reports, want %d", got, tc.wantDown)
			}
			if err := t0.Send(1, transport.Header{}, datatype.GetBuffer(8)); err != nil {
				t.Fatalf("send to the replacement: %v", err)
			}
		})
	}
}

// TestFileSegmentRoundTrip exercises the memory-mapped backing within one
// process: two endpoints attach to the same file and exchange frames.
func TestFileSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	mk := func(rank int) *Transport {
		tr, err := New(Config{Rank: rank, Size: 2, Ranks: []int{0, 1}, WorldID: 0xf11e,
			Path: path, RingBytes: 1 << 14})
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		return tr
	}
	t0, t1 := mk(0), mk(1)
	defer t0.Close()
	defer t1.Close()
	sink := &recvSink{}
	if err := t1.Start(sink.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := t0.Start(func(int, transport.Header, []byte) {}, nil); err != nil {
		t.Fatal(err)
	}
	payload := datatype.GetBuffer(1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	want := append([]byte(nil), payload...)
	if err := t0.Send(1, transport.Header{Ctx: 5, Tag: 3}, payload); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1)
	if !bytes.Equal(sink.got[0], want) {
		t.Fatal("mmap-backed payload corrupted")
	}
}

// TestGroupAllPairs runs a 4-member group with every directed pair
// active concurrently — the rings are independent, so no cross-pair
// interference is tolerated.
func TestGroupAllPairs(t *testing.T) {
	const m = 4
	const per = 50
	trs, sinks := startGroup(t, m, 0)
	var wg sync.WaitGroup
	for src := 0; src < m; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for dst := 0; dst < m; dst++ {
					if dst == src {
						continue
					}
					payload := datatype.GetBuffer(64)
					payload[0] = byte(src)
					if err := trs[src].Send(dst, transport.Header{Src: int32(src), Tag: int32(i)}, payload); err != nil {
						t.Errorf("send %d->%d: %v", src, dst, err)
						return
					}
				}
			}
		}(src)
	}
	wg.Wait()
	for dst := 0; dst < m; dst++ {
		sinks[dst].wait(t, per*(m-1))
	}
}
