package transport

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"nccd/internal/datatype"
)

// startMuxMesh brings up an n-rank localhost TCP mesh with a Mux owning
// each endpoint — the service-daemon topology, in one process.  hb is the
// endpoints' heartbeat interval (0 for none).
func startMuxMesh(t *testing.T, n int, hb time.Duration) []*Mux {
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
	muxes := make([]*Mux, n)
	for r := 0; r < n; r++ {
		tcp, err := NewTCP(TCPConfig{
			Rank: r, Size: n, WorldID: 0xddc, Addrs: addrs, Listener: lns[r],
			DialTimeout: 5 * time.Second, Heartbeat: hb,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		muxes[r] = NewMux(tcp)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = muxes[r].Start()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("start rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range muxes {
			m.Close()
		}
	})
	return muxes
}

// subRec records one Sub's deliveries and liveness events.
type subRec struct {
	mu   sync.Mutex
	msgs []meshMsg
	peerLog
}

func (r *subRec) handler(to int, hdr Header, payload []byte) {
	cp := append([]byte(nil), payload...)
	if payload != nil {
		datatype.PutBuffer(payload)
	}
	r.mu.Lock()
	r.msgs = append(r.msgs, meshMsg{Hdr: hdr, Payload: cp})
	r.mu.Unlock()
}

func (r *subRec) get() []meshMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]meshMsg(nil), r.msgs...)
}

func startSub(t *testing.T, m *Mux, job uint64, ranks []int) (*Sub, *subRec) {
	t.Helper()
	s, err := m.Sub(job, ranks)
	if err != nil {
		t.Fatalf("sub job %d: %v", job, err)
	}
	rec := &subRec{}
	if err := s.Start(rec.handler, rec.record); err != nil {
		t.Fatalf("start sub job %d: %v", job, err)
	}
	return s, rec
}

// TestMuxJobIsolation: two jobs with opposite rank mappings share one mesh;
// each sub sees only its own frames, in job-relative numbering, with the
// job id stamped on the wire.
func TestMuxJobIsolation(t *testing.T) {
	muxes := startMuxMesh(t, 2, 0)

	subA0, _ := startSub(t, muxes[0], 7, []int{0, 1})
	_, recA1 := startSub(t, muxes[1], 7, []int{0, 1})
	subB0, _ := startSub(t, muxes[1], 9, []int{1, 0}) // job rank 0 = mesh 1
	_, recB1 := startSub(t, muxes[0], 9, []int{1, 0})

	if err := subA0.Send(1, Header{Ctx: 1, Src: 0, Tag: 11}, payloadFor(0, 1)); err != nil {
		t.Fatalf("job 7 send: %v", err)
	}
	if err := subB0.Send(1, Header{Ctx: 1, Src: 0, Tag: 22}, payloadFor(1, 0)); err != nil {
		t.Fatalf("job 9 send: %v", err)
	}
	waitFor(t, "both deliveries", func() bool { return len(recA1.get()) == 1 && len(recB1.get()) == 1 })

	a := recA1.get()[0]
	if a.Hdr.Job != 7 || a.Hdr.Tag != 11 {
		t.Fatalf("job 7 frame arrived as job %d tag %d", a.Hdr.Job, a.Hdr.Tag)
	}
	b := recB1.get()[0]
	if b.Hdr.Job != 9 || b.Hdr.Tag != 22 {
		t.Fatalf("job 9 frame arrived as job %d tag %d", b.Hdr.Job, b.Hdr.Tag)
	}
	if muxes[0].JobDropped()+muxes[1].JobDropped() != 0 {
		t.Fatalf("frames dropped on a healthy two-job mesh")
	}
}

// TestMuxHeldFrames: a frame for a job whose Sub is not yet registered on
// the receiver is parked and flushed, intact, when the Sub starts.
func TestMuxHeldFrames(t *testing.T) {
	muxes := startMuxMesh(t, 2, 0)
	subA0, _ := startSub(t, muxes[0], 3, []int{0, 1})

	want := payloadFor(0, 1)
	wantCopy := append([]byte(nil), want...)
	if err := subA0.Send(1, Header{Ctx: 1, Src: 0, Tag: 5}, want); err != nil {
		t.Fatalf("send: %v", err)
	}
	// The frame has nowhere to go on rank 1 yet; it must be parked, not
	// dropped.
	waitFor(t, "frame parked", func() bool {
		muxes[1].mu.Lock()
		defer muxes[1].mu.Unlock()
		return len(muxes[1].held[3]) == 1
	})
	if got := muxes[1].HeldDropped() + muxes[1].JobDropped(); got != 0 {
		t.Fatalf("%d frames dropped while the sub was pending", got)
	}

	_, rec := startSub(t, muxes[1], 3, []int{0, 1})
	waitFor(t, "held frame flushed", func() bool { return len(rec.get()) == 1 })
	got := rec.get()[0]
	if string(got.Payload) != string(wantCopy) {
		t.Fatalf("held frame corrupted in the park/flush cycle")
	}
}

// TestMuxTombstone: a released job id drops stragglers and can never be
// reused.
func TestMuxTombstone(t *testing.T) {
	muxes := startMuxMesh(t, 2, 0)
	subA0, _ := startSub(t, muxes[0], 3, []int{0, 1})
	subA1, _ := startSub(t, muxes[1], 3, []int{0, 1})

	if err := subA1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := subA0.Send(1, Header{Ctx: 1, Src: 0, Tag: 5}, payloadFor(0, 1)); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, "straggler dropped by id", func() bool { return muxes[1].JobDropped() == 1 })

	if _, err := muxes[1].Sub(3, []int{0, 1}); err == nil {
		t.Fatalf("released job id was handed out again")
	}
	if _, err := muxes[1].Sub(0, []int{0, 1}); err == nil {
		t.Fatalf("job id 0 (unmultiplexed marker) was accepted")
	}
}

// TestMuxDownFanoutFiltered: a mesh rank's death and its replacement's
// return reach exactly the jobs mapped onto it — translated to the
// job-relative rank — plus the service-level observers with the real rank,
// and a Sub started after the death replays it.
func TestMuxDownFanoutFiltered(t *testing.T) {
	muxes := startMuxMesh(t, 3, 0)

	var observed peerLog
	muxes[0].OnPeer(observed.record)

	_, recX := startSub(t, muxes[0], 4, []int{0, 1}) // avoids rank 2
	_, recY := startSub(t, muxes[0], 6, []int{0, 2}) // spans rank 2

	addr := muxes[2].real.(*TCP).cfg.Addrs[2]
	muxes[2].Close() // rank 2 dies

	waitFor(t, "service observer saw the death", func() bool {
		return slices.Equal(observed.seen(), []string{"2 down"})
	})
	waitFor(t, "mapped job notified", func() bool {
		return slices.Equal(recY.seen(), []string{"1 down"}) // real rank 2 = job 6's rank 1
	})
	if got := recX.seen(); len(got) != 0 {
		t.Fatalf("job 4 (not mapped onto rank 2) got liveness events %v", got)
	}
	_, recZ := startSub(t, muxes[0], 8, []int{2, 1, 0})
	if got := recZ.seen(); !slices.Equal(got, []string{"0 down"}) {
		t.Fatalf("a job started after the death replayed %v, want [0 down]", got)
	}

	// A replacement for rank 2 dials back in: the same jobs hear it up.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	addrs := muxes[0].real.(*TCP).cfg.Addrs
	fresh, err := NewTCP(TCPConfig{Rank: 2, Size: 3, WorldID: 0xddc, Addrs: addrs, Listener: ln,
		DialTimeout: 5 * time.Second, Rejoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := fresh.Start(func(_ int, _ Header, p []byte) { datatype.PutBuffer(p) }, nil); err != nil {
		t.Fatalf("rejoin start: %v", err)
	}
	waitFor(t, "mapped jobs hear the replacement up", func() bool {
		return slices.Equal(recY.seen(), []string{"1 down", "1 up"}) &&
			slices.Equal(recZ.seen(), []string{"0 down", "0 up"})
	})
	if got := observed.seen(); !slices.Equal(got, []string{"2 down", "2 up"}) {
		t.Fatalf("service observer saw %v, want [2 down 2 up]", got)
	}
	if got := recX.seen(); len(got) != 0 {
		t.Fatalf("job 4 (not mapped onto rank 2) got liveness events %v", got)
	}
}

// TestMuxCountsSuspicionOnce: suspicion lives in the endpoint, not in the
// worlds above it.  A mux carrying a control Sub and two job Subs over one
// TCP pair counts one silence of its peer as one suspicion, and no Sub
// hears of it.
func TestMuxCountsSuspicionOnce(t *testing.T) {
	muxes := startMuxMesh(t, 2, testBeat)
	var recs []*subRec
	for _, job := range []uint64{1, 2, 3} { // the control world and two jobs
		for _, m := range muxes {
			_, rec := startSub(t, m, job, []int{0, 1})
			recs = append(recs, rec)
		}
	}
	ep0, ep1 := muxes[0].real.(*TCP), muxes[1].real.(*TCP)
	ep1.PauseHeartbeats(true)
	waitFor(t, "suspicion", func() bool { return ep0.Stats().Suspects > 0 })
	ep1.PauseHeartbeats(false)
	time.Sleep(4 * testBeat)
	if got := ep0.Stats().Suspects; got != 1 {
		t.Fatalf("Suspects = %d with three worlds on the endpoint, want 1", got)
	}
	for i, rec := range recs {
		if got := rec.seen(); len(got) != 0 {
			t.Fatalf("sub %d heard %v from a suspicion", i, got)
		}
	}
}
