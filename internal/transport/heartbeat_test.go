package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startMeshWith is startMesh with per-endpoint config shaping: mutate is
// called on each rank's config before NewTCP.
func startMeshWith(t *testing.T, n int, peer PeerFunc, mutate func(r int, cfg *TCPConfig)) ([]*TCP, *meshRecorder, []string) {
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
		cfg := TCPConfig{
			Rank: r, Size: n, WorldID: 0xfeed, Addrs: addrs, Listener: lns[r],
			DialTimeout: 5 * time.Second,
		}
		if mutate != nil {
			mutate(r, &cfg)
		}
		ep, err := NewTCP(cfg)
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
	return eps, rec, addrs
}

// testBeat is the detector interval of the heartbeat tests.  Suspicion
// comes after 150 ms of silence and hard failure after 450 ms, so a
// healthy peer beating every 50 ms has 100 ms of slack before it is
// suspected, and a test that resumes a paused peer as soon as it is
// suspected has more than 200 ms before it would be declared down.
const testBeat = 50 * time.Millisecond

// peerLog records liveness reports.
type peerLog struct {
	mu     sync.Mutex
	events []peerEvent
}

type peerEvent struct {
	rank int
	up   bool
	at   time.Time
}

func (l *peerLog) record(rank int, up bool) {
	l.mu.Lock()
	l.events = append(l.events, peerEvent{rank, up, time.Now()})
	l.mu.Unlock()
}

func (l *peerLog) get() []peerEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]peerEvent(nil), l.events...)
}

// seen lists the reports as "<rank> down" / "<rank> up".
func (l *peerLog) seen() []string {
	var out []string
	for _, e := range l.get() {
		out = append(out, fmt.Sprintf("%d %s", e.rank, map[bool]string{false: "down", true: "up"}[e.up]))
	}
	return out
}

// about returns the reports concerning rank.
func (l *peerLog) about(rank int) []peerEvent {
	var out []peerEvent
	for _, e := range l.get() {
		if e.rank == rank {
			out = append(out, e)
		}
	}
	return out
}

// TestHeartbeatQuietLinkStaysHealthy: a mesh with heartbeats exchanges no
// data at all for many suspicion windows; the beats alone keep every peer
// alive and unsuspected.
func TestHeartbeatQuietLinkStaysHealthy(t *testing.T) {
	const n = 3
	var log peerLog
	eps, rec, _ := startMeshWith(t, n, log.record, func(r int, cfg *TCPConfig) { cfg.Heartbeat = testBeat })
	time.Sleep(20 * testBeat)
	if ev := log.get(); len(ev) != 0 {
		t.Fatalf("liveness reports on an idle but beating mesh: %v", ev)
	}
	for r, ep := range eps {
		if st := ep.Stats(); st.Suspects != 0 || st.BeatsSent == 0 || st.BeatsRecv == 0 {
			t.Fatalf("rank %d: %+v, want beats both ways and no suspicion", r, st)
		}
		for p := 0; p < n; p++ {
			if err := ep.Send(p, Header{Tag: int32(p)}, payloadFor(r, p)); err != nil {
				t.Fatalf("rank %d -> %d on a healthy mesh: %v", r, p, err)
			}
		}
	}
	waitFor(t, "every send delivered", func() bool {
		for r := 0; r < n; r++ {
			if len(rec.get(r)) != n {
				return false
			}
		}
		return true
	})
}

// TestHeartbeatDetectsHungPeer is the deterministic SIGSTOP stand-in: rank
// 1 pauses its heartbeats (connection open, nothing sent).  Rank 0 must
// suspect it once within the suspicion window and then declare it down —
// without any connection close event — within the hard-failure window.
func TestHeartbeatDetectsHungPeer(t *testing.T) {
	var log peerLog
	eps, _, _ := startMeshWith(t, 2, log.record, func(r int, cfg *TCPConfig) { cfg.Heartbeat = testBeat })

	// Let the detector see a healthy peer first, then "SIGSTOP" rank 1.
	time.Sleep(5 * testBeat)
	hung := time.Now()
	eps[1].PauseHeartbeats(true)

	waitFor(t, "suspicion of the hung peer", func() bool { return eps[0].Stats().Suspects > 0 })
	suspected := time.Since(hung)
	// The silence clock starts at the last received beat, which may precede
	// the pause by up to one interval.
	if suspected < (SuspectAfter-1)*testBeat {
		t.Fatalf("suspected %v after the pause, suspicion window is %v", suspected, SuspectAfter*testBeat)
	}
	if suspected > 20*SuspectAfter*testBeat {
		t.Fatalf("suspicion took %v, far beyond the %v window", suspected, SuspectAfter*testBeat)
	}
	if ev := log.get(); len(ev) != 0 {
		t.Fatalf("suspicion reported through the liveness callback: %v", ev)
	}

	// Only rank 0 can report rank 1 (rank 1 then sees rank 0 close the
	// connection and reports it in turn).
	waitFor(t, "hard failure of the hung peer", func() bool { return len(log.about(1)) > 0 })
	ev := log.about(1)
	if len(ev) != 1 || ev[0].up {
		t.Fatalf("liveness reports %v, want rank 1 down once", ev)
	}
	if d := ev[0].at.Sub(hung); d < (FailAfter-2)*testBeat {
		t.Fatalf("hard failure after %v, fail window is %v", d, FailAfter*testBeat)
	}
	if got := eps[0].Stats().Suspects; got != 1 {
		t.Fatalf("Suspects = %d, want 1: one silence is one suspicion", got)
	}
	var pd *PeerDownError
	if err := eps[0].Send(1, Header{}, payloadFor(0, 1)); !errors.As(err, &pd) {
		t.Fatalf("send to hung peer: %v, want PeerDownError", err)
	}
}

// TestHeartbeatRecoversSlowPeer: a peer that resumes beating inside the
// hard-failure window is un-suspected, not killed.  The clearing shows as
// a second pause counting a second suspicion.
func TestHeartbeatRecoversSlowPeer(t *testing.T) {
	var log peerLog
	eps, rec, _ := startMeshWith(t, 2, log.record, func(r int, cfg *TCPConfig) { cfg.Heartbeat = testBeat })
	time.Sleep(3 * testBeat)
	for want := int64(1); want <= 2; want++ {
		eps[1].PauseHeartbeats(true)
		waitFor(t, "suspicion", func() bool { return eps[0].Stats().Suspects == want })
		eps[1].PauseHeartbeats(false)
		// Beats reach rank 0 within an interval of the resume, and its next
		// tick clears the suspicion.
		time.Sleep(4 * testBeat)
	}
	if ev := log.get(); len(ev) != 0 {
		t.Fatalf("a peer that resumed in time was reported: %v", ev)
	}
	if got := eps[0].Stats().Suspects; got != 2 {
		t.Fatalf("Suspects = %d, want 2", got)
	}
	if err := eps[0].Send(1, Header{Tag: 3}, payloadFor(0, 1)); err != nil {
		t.Fatalf("send to the recovered peer: %v", err)
	}
	waitFor(t, "delivery to the recovered peer", func() bool { return len(rec.get(1)) == 1 })
}

// TestTCPRejoinAfterRestart: rank 2 of a 3-mesh dies abruptly; a fresh
// endpoint for the same rank (new epoch, Rejoin mode) dials back in.  The
// survivors report it up, traffic flows both ways on the replaced
// link — including reliable traffic, whose per-link sequences restart —
// and the survivors' epoch bump fences a stale-epoch dialer out.
func TestTCPRejoinAfterRestart(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	downs, ups := map[int]int{}, map[int]int{}
	eps, rec, addrs := startMeshWith(t, n,
		func(rank int, up bool) {
			mu.Lock()
			if up {
				ups[rank]++
			} else {
				downs[rank]++
			}
			mu.Unlock()
		}, nil)

	// Seed some reliable-looking traffic so sequence state is nonzero.
	if err := eps[2].Send(0, Header{Ctx: 1, Src: 2, Tag: 7}, payloadFor(2, 0)); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	waitFor(t, "pre-crash delivery", func() bool { return len(rec.get(0)) == 1 })

	eps[2].Close() // SIGKILL stand-in: abrupt close, no goodbye
	waitFor(t, "down reports at survivors", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return downs[2] >= 2
	})

	// Survivors commit the recovery epoch before re-admission.
	eps[0].SetEpoch(1)
	eps[1].SetEpoch(1)

	// A stale incarnation (old epoch) must be fenced out.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	staleAddrs := append([]string(nil), addrs...)
	staleAddrs[2] = ln.Addr().String()
	stale, err := NewTCP(TCPConfig{
		Rank: 2, Size: n, WorldID: 0xfeed, Addrs: staleAddrs, Listener: ln,
		DialTimeout: 300 * time.Millisecond, Rejoin: true, Epoch: 0,
	})
	if err != nil {
		t.Fatalf("stale endpoint: %v", err)
	}
	if err := stale.Start(func(int, Header, []byte) {}, nil); err == nil {
		t.Fatalf("stale-epoch rejoin was accepted")
	}
	stale.Close()

	// The legitimate respawn carries the committed epoch and re-binds the
	// old address.
	ln2, err := net.Listen("tcp", addrs[2])
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[2], err)
	}
	fresh, err := NewTCP(TCPConfig{
		Rank: 2, Size: n, WorldID: 0xfeed, Addrs: addrs, Listener: ln2,
		DialTimeout: 5 * time.Second, Rejoin: true, Epoch: 1,
	})
	if err != nil {
		t.Fatalf("fresh endpoint: %v", err)
	}
	t.Cleanup(func() { fresh.Close() })
	rec2 := &meshRecorder{msgs: make([][]meshMsg, n)}
	if err := fresh.Start(rec2.handler(2), nil); err != nil {
		t.Fatalf("rejoin start: %v", err)
	}
	waitFor(t, "up reports at survivors", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ups[2] == 2
	})

	// Both directions of the replaced links work again.
	if err := eps[0].Send(2, Header{Ctx: 1, Src: 0, Tag: 11}, payloadFor(0, 2)); err != nil {
		t.Fatalf("survivor->rejoiner: %v", err)
	}
	if err := fresh.Send(1, Header{Ctx: 1, Src: 2, Tag: 12}, payloadFor(2, 1)); err != nil {
		t.Fatalf("rejoiner->survivor: %v", err)
	}
	waitFor(t, "post-rejoin deliveries", func() bool {
		return len(rec2.get(2)) == 1 && len(rec.get(1)) == 1
	})
	if got := rec.get(1)[0]; got.Hdr.Tag != 12 {
		t.Fatalf("survivor received tag %d, want 12", got.Hdr.Tag)
	}
}
