package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// startMeshWith is startMesh with per-endpoint config shaping: mutate is
// called on each rank's config before NewTCP.
func startMeshWith(t *testing.T, n int, down DownFunc, mutate func(r int, cfg *TCPConfig)) ([]*TCP, *meshRecorder, []string) {
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
	return eps, rec, addrs
}

// TestHeartbeatQuietLinkStaysHealthy: a mesh with heartbeats exchanges no
// data at all for many miss windows; the beats alone keep every peer alive
// and unsuspected.
func TestHeartbeatQuietLinkStaysHealthy(t *testing.T) {
	const n = 3
	hb := HeartbeatConfig{Interval: 10 * time.Millisecond, Miss: 3, FailAfter: 9}
	var mu sync.Mutex
	suspects := 0
	eps, _, _ := startMeshWith(t, n, nil, func(r int, cfg *TCPConfig) { cfg.Heartbeat = hb })
	for _, ep := range eps {
		ep.SetHealth(HealthFuncs{Suspect: func(rank int, suspect bool, silent time.Duration) {
			mu.Lock()
			suspects++
			mu.Unlock()
		}})
	}
	time.Sleep(20 * hb.Interval)
	mu.Lock()
	got := suspects
	mu.Unlock()
	if got != 0 {
		t.Fatalf("%d suspicion events on an idle but beating mesh", got)
	}
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			if !eps[r].Health(p).Alive {
				t.Fatalf("rank %d sees %d dead on a healthy mesh", r, p)
			}
			if lh := eps[r].LastHeard(p); time.Since(lh) > 5*hb.Interval {
				t.Fatalf("rank %d last heard %d %v ago despite heartbeats", r, p, time.Since(lh))
			}
		}
	}
	if eps[0].Stats().BeatsSent == 0 || eps[0].Stats().BeatsRecv == 0 {
		t.Fatalf("no beats flowed: %+v", eps[0].Stats())
	}
}

// TestHeartbeatDetectsHungPeer is the deterministic SIGSTOP stand-in: rank
// 1 pauses its heartbeats (connection open, nothing sent).  Rank 0 must
// suspect it within the miss window and then declare it down — without any
// connection close event — within the hard-failure window.
func TestHeartbeatDetectsHungPeer(t *testing.T) {
	const n = 2
	hb := HeartbeatConfig{Interval: 20 * time.Millisecond, Miss: 3, FailAfter: 9}
	type event struct {
		suspect bool
		silent  time.Duration
		at      time.Time
	}
	var mu sync.Mutex
	var events []event
	var downAt time.Time
	eps, _, _ := startMeshWith(t, n,
		func(rank int) {
			mu.Lock()
			if rank == 1 && downAt.IsZero() {
				downAt = time.Now()
			}
			mu.Unlock()
		},
		func(r int, cfg *TCPConfig) { cfg.Heartbeat = hb })
	eps[0].SetHealth(HealthFuncs{Suspect: func(rank int, suspect bool, silent time.Duration) {
		mu.Lock()
		events = append(events, event{suspect: suspect, silent: silent, at: time.Now()})
		mu.Unlock()
	}})

	// Let the detector see a healthy peer first, then "SIGSTOP" rank 1.
	time.Sleep(5 * hb.Interval)
	hung := time.Now()
	eps[1].PauseHeartbeats(true)

	waitFor(t, "suspicion of the hung peer", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0
	})
	mu.Lock()
	first := events[0]
	mu.Unlock()
	if !first.suspect {
		t.Fatalf("first event cleared suspicion instead of raising it")
	}
	if first.silent < time.Duration(hb.Miss)*hb.Interval {
		t.Fatalf("suspected after only %v of silence, miss window is %v",
			first.silent, time.Duration(hb.Miss)*hb.Interval)
	}
	// Detection latency must stay within the configured window (generous
	// upper slack for CI scheduling, but the same order of magnitude).
	if lat := first.at.Sub(hung); lat > 20*time.Duration(hb.Miss)*hb.Interval {
		t.Fatalf("suspicion took %v, far beyond the %v miss window", lat, time.Duration(hb.Miss)*hb.Interval)
	}

	waitFor(t, "hard failure of the hung peer", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !downAt.IsZero()
	})
	mu.Lock()
	hard := downAt
	mu.Unlock()
	// The silence clock starts at the last received beat, which may precede
	// the pause by up to one interval — allow that much slack below the
	// configured window.
	if hard.Sub(hung) < time.Duration(hb.FailAfter-2)*hb.Interval {
		t.Fatalf("hard failure after %v, fail window is %v", hard.Sub(hung),
			time.Duration(hb.FailAfter)*hb.Interval)
	}
	if eps[0].Health(1).Alive {
		t.Fatalf("hung peer still marked alive after hard failure")
	}
	var pd *PeerDownError
	if err := eps[0].Send(1, Header{}, payloadFor(0, 1)); !errors.As(err, &pd) {
		t.Fatalf("send to hung peer: %v, want PeerDownError", err)
	}
}

// TestHeartbeatRecoversSlowPeer: a peer that resumes beating inside the
// hard-failure window is un-suspected, not killed.
func TestHeartbeatRecoversSlowPeer(t *testing.T) {
	const n = 2
	hb := HeartbeatConfig{Interval: 20 * time.Millisecond, Miss: 2, FailAfter: 50}
	var mu sync.Mutex
	var events []bool
	eps, _, _ := startMeshWith(t, n, nil, func(r int, cfg *TCPConfig) { cfg.Heartbeat = hb })
	eps[0].SetHealth(HealthFuncs{Suspect: func(rank int, suspect bool, silent time.Duration) {
		mu.Lock()
		events = append(events, suspect)
		mu.Unlock()
	}})
	time.Sleep(3 * hb.Interval)
	eps[1].PauseHeartbeats(true)
	waitFor(t, "suspicion", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) == 1 && events[0]
	})
	eps[1].PauseHeartbeats(false)
	waitFor(t, "suspicion cleared", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) == 2 && !events[1]
	})
	if !eps[0].Health(1).Alive || eps[0].Health(1).Suspect {
		t.Fatalf("recovered peer still unhealthy: %+v", eps[0].Health(1))
	}
}

// TestTCPRejoinAfterRestart: rank 2 of a 3-mesh dies abruptly; a fresh
// endpoint for the same rank (new epoch, Rejoin mode) dials back in.  The
// survivors fire the Up callback, traffic flows both ways on the replaced
// link — including reliable traffic, whose per-link sequences restart —
// and the survivors' epoch bump fences a stale-epoch dialer out.
func TestTCPRejoinAfterRestart(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	downs, ups := map[int]int{}, map[int]int{}
	eps, rec, addrs := startMeshWith(t, n,
		func(rank int) {
			mu.Lock()
			downs[rank]++
			mu.Unlock()
		}, nil)
	for _, ep := range eps[:2] {
		ep.SetHealth(HealthFuncs{Up: func(rank int) {
			mu.Lock()
			ups[rank]++
			mu.Unlock()
		}})
	}

	// Seed some reliable-looking traffic so sequence state is nonzero.
	if err := eps[2].Send(0, Header{Ctx: 1, Src: 2, Tag: 7}, payloadFor(2, 0)); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	waitFor(t, "pre-crash delivery", func() bool { return len(rec.get(0)) == 1 })

	eps[2].Close() // SIGKILL stand-in: abrupt close, no goodbye
	waitFor(t, "down callbacks at survivors", func() bool {
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
	waitFor(t, "up callbacks at survivors", func() bool {
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
