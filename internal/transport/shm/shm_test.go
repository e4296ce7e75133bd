package shm

import (
	"bytes"
	"path/filepath"
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

// startGroup brings up one Transport per rank of an m-rank group over a
// shared in-process segment.
func startGroup(t *testing.T, m int, hb transport.HeartbeatConfig) ([]*Transport, []*recvSink) {
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
	trs, sinks := startGroup(t, 2, transport.HeartbeatConfig{})
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
// expects the peer to walk the suspect → down ladder; resuming before the
// hard deadline must clear the suspicion instead.
func TestHeartbeatFailureDetection(t *testing.T) {
	hb := transport.HeartbeatConfig{Interval: 10 * time.Millisecond, Miss: 3, FailAfter: 30}
	seg, err := NewMemSegment(2, 1<<16, 0x4eab)
	if err != nil {
		t.Fatal(err)
	}
	var trs [2]*Transport
	for r := 0; r < 2; r++ {
		tr, err := New(Config{Rank: r, Size: 2, Ranks: []int{0, 1}, WorldID: 0x4eab,
			Seg: seg, RingBytes: 1 << 16, Heartbeat: hb})
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
		defer tr.Close()
	}
	var suspected, unsuspected, downed atomic.Int64
	trs[0].SetHealth(transport.HealthFuncs{
		Suspect: func(r int, s bool, silent time.Duration) {
			if s {
				suspected.Add(1)
			} else {
				unsuspected.Add(1)
			}
		},
	})
	drop := func(to int, hdr transport.Header, p []byte) { datatype.PutBuffer(p) }
	if err := trs[0].Start(drop, func(r int) { downed.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Start(drop, nil); err != nil {
		t.Fatal(err)
	}

	trs[1].PauseHeartbeats(true)
	deadline := time.Now().Add(5 * time.Second)
	for suspected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer never suspected")
		}
		time.Sleep(time.Millisecond)
	}
	trs[1].PauseHeartbeats(false)
	for unsuspected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("suspicion never cleared after resume")
		}
		time.Sleep(time.Millisecond)
	}
	if downed.Load() != 0 {
		t.Fatal("recovered peer was declared down")
	}
	if !trs[0].Health(1).Alive {
		t.Fatal("peer not alive after recovery")
	}

	// Now let the silence ripen into a hard failure.
	trs[1].PauseHeartbeats(true)
	for downed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer never declared down")
		}
		time.Sleep(time.Millisecond)
	}
	if trs[0].Health(1).Alive {
		t.Fatal("failed peer still alive")
	}
	if err := trs[0].Send(1, transport.Header{}, datatype.GetBuffer(8)); err == nil {
		t.Fatal("send to failed peer succeeded")
	}
}

// TestRejoinDrainAndEpochFence replaces a member: the replacement drains
// the backlog its predecessor never consumed, peers report it Up only
// with a current epoch, and traffic flows again.
func TestRejoinDrainAndEpochFence(t *testing.T) {
	hb := transport.HeartbeatConfig{Interval: 10 * time.Millisecond, Miss: 2, FailAfter: 6}
	seg, err := NewMemSegment(2, 1<<16, 0x99)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rank int, epoch uint64, rejoin bool) *Transport {
		tr, err := New(Config{Rank: rank, Size: 2, Ranks: []int{0, 1}, WorldID: 0x99,
			Seg: seg, RingBytes: 1 << 16, Heartbeat: hb, Epoch: epoch, Rejoin: rejoin})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t0, t1 := mk(0, 0, false), mk(1, 0, false)
	defer t0.Close()
	sink0 := &recvSink{}
	if err := t0.Start(sink0.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(func(int, transport.Header, []byte) {}, nil); err != nil {
		t.Fatal(err)
	}
	var up atomic.Int64
	t0.SetHealth(transport.HealthFuncs{Up: func(r int) { up.Add(1) }})

	// Stuff rank 1's inbound ring with traffic it will never consume,
	// then kill it (Close stops the consumer; survivors see silence).
	if err := t0.Send(1, transport.Header{Tag: 1}, datatype.GetBuffer(64)); err != nil {
		t.Fatal(err)
	}
	t1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for t0.Health(1).Alive {
		if time.Now().After(deadline) {
			t.Fatal("dead member never detected")
		}
		time.Sleep(time.Millisecond)
	}

	// Survivor commits the recovery epoch; the replacement attaches with
	// it, drains the stale backlog, and is reported Up.
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
	for up.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replacement never reported Up")
		}
		time.Sleep(time.Millisecond)
	}
	for !t0.Health(1).Alive {
		if time.Now().After(deadline) {
			t.Fatal("replacement never alive at survivor")
		}
		time.Sleep(time.Millisecond)
	}
	if err := t0.Send(1, transport.Header{Tag: 9}, datatype.GetBuffer(32)); err != nil {
		t.Fatalf("send to replacement: %v", err)
	}
	sink1.wait(t, 1)
	if int(sink1.hdrs[0].Tag) != 9 {
		t.Fatalf("replacement saw stale traffic first: tag %d", sink1.hdrs[0].Tag)
	}
}

// TestReplacementSeenLateIsNotDeclaredDead replaces a member before the
// survivor's detector ever observes the death.  A survivor still at the old
// epoch must be told of the death before the replacement is adopted: it may
// be blocked on the dead incarnation.  A survivor that has already raised
// its epoch to the replacement's has been through the recovery that admits
// it, so a death report then would declare the live replacement dead; it
// must only see the replacement Up.  The silence window is far longer than
// the test, so only the attach generation can tell the survivor anything.
func TestReplacementSeenLateIsNotDeclaredDead(t *testing.T) {
	hb := transport.HeartbeatConfig{Interval: 10 * time.Millisecond, Miss: 1000, FailAfter: 2000}
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
					Seg: seg, RingBytes: 1 << 16, Heartbeat: hb, Epoch: epoch, Rejoin: rejoin})
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			drop := func(to int, hdr transport.Header, p []byte) { datatype.PutBuffer(p) }
			t0, t1 := mk(0, 0, false), mk(1, 0, false)
			defer t0.Close()
			var down, up atomic.Int64
			t0.SetHealth(transport.HealthFuncs{Up: func(int) { up.Add(1) }})
			if err := t0.Start(drop, func(int) { down.Add(1) }); err != nil {
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
			deadline := time.Now().Add(5 * time.Second)
			for up.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("replacement never reported Up")
				}
				time.Sleep(time.Millisecond)
			}
			if got := down.Load(); got != tc.wantDown {
				t.Fatalf("%d death reports, want %d", got, tc.wantDown)
			}
			if !t0.Health(1).Alive {
				t.Fatal("replacement not alive at the survivor")
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
	trs, sinks := startGroup(t, m, transport.HeartbeatConfig{})
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
