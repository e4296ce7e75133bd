package shm

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/transport"
)

// Transport is the shared-memory endpoint for one rank of a co-located
// group.  Data moves through the segment's SPSC rings — one per directed
// pair, so sends never contend across peers — and liveness moves through
// the presence table: each member stamps a heartbeat into its own slot
// and a monitor goroutine scores every peer's silence, the same
// suspect-then-fail ladder as the TCP detector.  Failure recovery reuses
// the membership-epoch fencing of the socket transport: a replacement
// attaches with a bumped attach generation and the recovery epoch, peers
// report it up only if that epoch is current, and the replacement drains
// its inbound rings on attach for fresh-connection semantics.
type Transport struct {
	cfg    Config
	seg    *Segment
	ownSeg bool
	idx    int   // my index within cfg.Ranks
	gi     []int // world rank → group index, -1 if not co-located

	deliver transport.Handler
	peer    transport.PeerFunc
	tracer  atomic.Pointer[obs.Tracer]

	peers  []*shmPeer     // one per group index; nil at idx
	door   *atomic.Uint32 // my presence slot's doorbell gate (consumer side)
	bell   bell           // what the consumer parks on when the gate is up
	epoch  atomic.Uint64
	paused atomic.Bool
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
	stats  shmCounters
}

// Config configures one shared-memory endpoint.
type Config struct {
	Rank    int   // world rank this endpoint hosts
	Size    int   // world size (sends outside Ranks are rejected)
	Ranks   []int // world ranks sharing the segment; must contain Rank
	WorldID uint64

	// Path names the memory-mapped backing file (co-located processes).
	// Empty Path requires Seg: a pre-built in-process segment shared by
	// the group's Transport values (single-process worlds and tests).
	Path string
	Seg  *Segment

	RingBytes int // per-directed-ring data capacity (power of two, default 1 MiB)

	// Heartbeat is the presence-table failure detector's interval; silence
	// is scored against transport.SuspectAfter and FailAfter.  Zero
	// disables silence scoring; attach detection and the pid probe still
	// run on a slow tick.
	Heartbeat time.Duration

	Epoch  uint64 // membership epoch published at attach
	Rejoin bool   // replacement endpoint: drain inbound rings at attach
}

// attachTimeout bounds the wait for the whole group to attach.
const attachTimeout = 15 * time.Second

func (c Config) withDefaults() Config {
	if c.RingBytes == 0 {
		c.RingBytes = 1 << 20
	}
	return c
}

// maxFrame is the largest payload a ring holds: its capacity less one
// record's prefix and header.
func (t *Transport) maxFrame() int { return t.cfg.RingBytes - recordBytes(0) }

// Stats is a snapshot of the ring and presence counters.  Like
// transport.TCPStats these are per-endpoint numbers; register them under
// a per-rank metrics name (see the daemon) rather than summing endpoints.
type Stats struct {
	FramesSent     int64 `json:"frames_sent"`
	FramesRecv     int64 `json:"frames_recv"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesRecv      int64 `json:"bytes_recv"`
	RingFullStalls int64 `json:"ring_full_stalls"`
	StallNanos     int64 `json:"stall_nanos"`
	BeatsSent      int64 `json:"beats_sent"`
	BeatsRecv      int64 `json:"beats_recv"`
	Suspects       int64 `json:"suspects"` // times a peer was suspected
	DrainedBytes   int64 `json:"drained_bytes"`
}

type shmCounters struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	ringFullStalls         atomic.Int64
	stallNanos             atomic.Int64
	beatsSent, beatsRecv   atomic.Int64
	suspects               atomic.Int64
	drainedBytes           atomic.Int64
}

// shmPeer is the per-peer state: the two directed rings and the failure
// detector's view of the member.
type shmPeer struct {
	rank int // world rank
	out  *ring
	in   *ring

	wmu   sync.Mutex     // serializes producers on out (preserves SPSC)
	door  *atomic.Uint32 // the peer's doorbell gate (producer side)
	knock knocker        // rings the peer's bell after a push

	alive     atomic.Bool
	suspect   atomic.Bool
	lastHeard atomic.Int64 // UnixNano of last frame or beat observation
	liveMu    sync.Mutex   // orders up against down, as in the TCP endpoint

	// Monitor-goroutine-private observations.
	seenAgen uint64
	seenBeat int64
}

// New builds the endpoint and attaches it to the segment — creating or
// mapping the backing file when Path is set, adopting the shared
// in-process segment otherwise.  The presence slot is published here, so
// peers already running see the attach (and, on a rejoin, report the
// rank up) before Start is called.
func New(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("shm: rank %d out of range for size %d", cfg.Rank, cfg.Size)
	}
	if len(cfg.Ranks) == 0 {
		return nil, fmt.Errorf("shm: empty rank group")
	}
	ranks := append([]int(nil), cfg.Ranks...)
	sort.Ints(ranks)
	cfg.Ranks = ranks
	t := &Transport{cfg: cfg, idx: -1, stop: make(chan struct{})}
	t.epoch.Store(cfg.Epoch)
	t.gi = make([]int, cfg.Size)
	for r := range t.gi {
		t.gi[r] = -1
	}
	for i, r := range ranks {
		if r < 0 || r >= cfg.Size {
			return nil, fmt.Errorf("shm: group rank %d out of range for size %d", r, cfg.Size)
		}
		if t.gi[r] != -1 {
			return nil, fmt.Errorf("shm: duplicate group rank %d", r)
		}
		t.gi[r] = i
		if r == cfg.Rank {
			t.idx = i
		}
	}
	if t.idx < 0 {
		return nil, fmt.Errorf("shm: rank %d not in group %v", cfg.Rank, ranks)
	}

	m := len(ranks)
	switch {
	case cfg.Seg != nil:
		if cfg.Seg.m != m || cfg.Seg.ringCap != cfg.RingBytes {
			return nil, fmt.Errorf("shm: segment geometry (%d ranks, %d ring) does not match config (%d, %d)",
				cfg.Seg.m, cfg.Seg.ringCap, m, cfg.RingBytes)
		}
		t.seg = cfg.Seg
	case cfg.Path != "":
		seg, err := OpenFileSegment(cfg.Path, m, cfg.RingBytes, cfg.WorldID)
		if err != nil {
			return nil, err
		}
		t.seg = seg
		t.ownSeg = true
	default:
		return nil, fmt.Errorf("shm: neither Path nor Seg configured")
	}

	t.door = u32at(t.seg.b, t.seg.presence(t.idx)+offDoor)
	t.door.Store(0) // a killed predecessor may have left its intent up
	if t.seg.doors != nil {
		t.bell = newChanBell(t.seg.doors[t.idx])
	} else {
		b, err := newFifoBell(cfg.Path, t.idx)
		if err != nil {
			if t.ownSeg {
				t.seg.Close()
			}
			return nil, err
		}
		t.bell = b
	}
	t.peers = make([]*shmPeer, m)
	for i, r := range ranks {
		if i == t.idx {
			continue
		}
		p := &shmPeer{
			rank: r,
			out:  t.seg.ring(t.idx, i),
			in:   t.seg.ring(i, t.idx),
			door: u32at(t.seg.b, t.seg.presence(i)+offDoor),
		}
		if t.seg.doors != nil {
			p.knock = chanKnocker{t.seg.doors[i]}
		} else {
			p.knock = newFifoKnocker(cfg.Path, i)
		}
		t.peers[i] = p
	}
	t.attach()
	return t, nil
}

// attach publishes this member's presence: inbound backlogs are dropped
// first on a rejoin (the replacement must not see its predecessor's
// traffic), then the slot's epoch, pid, heartbeat stamp and finally the
// bumped attach generation — the generation write is the release that
// makes the attach visible whole.
func (t *Transport) attach() {
	if t.cfg.Rejoin {
		var dropped uint64
		for _, p := range t.peers {
			if p != nil {
				dropped += p.in.drain()
			}
		}
		t.stats.drainedBytes.Add(int64(dropped))
	}
	off := t.seg.presence(t.idx)
	u64at(t.seg.b, off+offEpoch).Store(t.cfg.Epoch)
	u64at(t.seg.b, off+offPid).Store(uint64(os.Getpid()))
	i64at(t.seg.b, off+offBeat).Store(time.Now().UnixNano())
	u64at(t.seg.b, off+offAgen).Add(1)
}

// Size returns the world size.
func (t *Transport) Size() int { return t.cfg.Size }

// Local reports whether r is the hosted rank.
func (t *Transport) Local(r int) bool { return r == t.cfg.Rank }

// Wallclock reports true: shared memory runs in real time.
func (t *Transport) Wallclock() bool { return true }

// Reaches reports whether rank r shares this segment.
func (t *Transport) Reaches(r int) bool {
	return r >= 0 && r < t.cfg.Size && t.gi[r] >= 0
}

// SetTracer attaches a span recorder; ring operations trace as
// shm_send/shm_recv wall-clock spans.
func (t *Transport) SetTracer(tr *obs.Tracer) { t.tracer.Store(tr) }

// SetEpoch raises the membership epoch and republishes it in the
// presence slot; a stale incarnation re-attaching with an older epoch is
// then ignored by the detector instead of reported up.
func (t *Transport) SetEpoch(e uint64) {
	for {
		old := t.epoch.Load()
		if e <= old {
			return
		}
		if t.epoch.CompareAndSwap(old, e) {
			u64at(t.seg.b, t.seg.presence(t.idx)+offEpoch).Store(e)
			return
		}
	}
}

// PauseHeartbeats suppresses (true) or resumes (false) this member's
// presence stamping while it keeps consuming — the deterministic
// equivalent of a SIGSTOP for failure-detection tests.
func (t *Transport) PauseHeartbeats(pause bool) { t.paused.Store(pause) }

// Stats returns a snapshot of the endpoint's counters.
func (t *Transport) Stats() Stats {
	c := &t.stats
	return Stats{
		FramesSent: c.framesSent.Load(), FramesRecv: c.framesRecv.Load(),
		BytesSent: c.bytesSent.Load(), BytesRecv: c.bytesRecv.Load(),
		RingFullStalls: c.ringFullStalls.Load(), StallNanos: c.stallNanos.Load(),
		BeatsSent: c.beatsSent.Load(), BeatsRecv: c.beatsRecv.Load(),
		Suspects: c.suspects.Load(), DrainedBytes: c.drainedBytes.Load(),
	}
}

func (t *Transport) trace(kind string, peer int, bytes int64, start, end float64, attrs ...obs.Attr) {
	tr := t.tracer.Load()
	if tr == nil || !tr.Enabled() {
		return
	}
	tr.Emit(obs.Span{Rank: t.cfg.Rank, Kind: kind, Peer: peer, Bytes: bytes,
		Start: start, End: end, Clock: obs.ClockWall, Attrs: attrs})
}

func (t *Transport) traceNow() (float64, bool) {
	tr := t.tracer.Load()
	if tr == nil || !tr.Enabled() {
		return 0, false
	}
	return tr.Now(), true
}

// Start waits for the whole group to attach, marks every peer alive, and
// begins consuming inbound rings and monitoring presence.
func (t *Transport) Start(deliver transport.Handler, peer transport.PeerFunc) error {
	if t.deliver != nil {
		return fmt.Errorf("shm: already started")
	}
	t.deliver = deliver
	t.peer = peer
	deadline := time.Now().Add(attachTimeout)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		off := t.seg.presence(t.gi[p.rank])
		for u64at(t.seg.b, off+offAgen).Load() == 0 {
			if t.closed.Load() {
				return transport.ErrClosed
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shm: rank %d never attached within %v", p.rank, attachTimeout)
			}
			time.Sleep(100 * time.Microsecond)
		}
		p.seenAgen = u64at(t.seg.b, off+offAgen).Load()
		p.seenBeat = i64at(t.seg.b, off+offBeat).Load()
		p.lastHeard.Store(time.Now().UnixNano())
		p.alive.Store(true)
	}
	if len(t.peers) > 1 || t.peers[0] != nil {
		t.wg.Add(2)
		go t.pollLoop()
		go t.monitorLoop()
	}
	return nil
}

// Send delivers hdr+payload to rank to through the directed ring.
// Ownership of payload transfers here, exactly as for the other
// transports: a self-send hands it to the handler by reference, every
// other path recycles it.
func (t *Transport) Send(to int, hdr transport.Header, payload []byte) error {
	if to == t.cfg.Rank && !t.closed.Load() {
		t.deliver(to, hdr, payload)
		return nil
	}
	err := t.send(to, hdr, payload)
	datatype.PutBuffer(payload)
	return err
}

// send copies one record into the ring to a co-located rank, spinning out
// backpressure when the ring is full.
func (t *Transport) send(to int, hdr transport.Header, payload []byte) error {
	if to < 0 || to >= t.cfg.Size {
		return fmt.Errorf("shm: rank %d out of range [0,%d)", to, t.cfg.Size)
	}
	if t.closed.Load() {
		return transport.ErrClosed
	}
	if t.gi[to] < 0 {
		return fmt.Errorf("shm: rank %d does not share the segment", to)
	}
	p := t.peers[t.gi[to]]
	start, traced := t.traceNow()
	p.wmu.Lock()
	err := t.push(p, &hdr, payload)
	p.wmu.Unlock()
	if err != nil {
		return err
	}
	t.stats.framesSent.Add(1)
	t.stats.bytesSent.Add(int64(recordBytes(len(payload))))
	if traced {
		if end, ok := t.traceNow(); ok {
			t.trace("shm_send", to, int64(len(payload)), start, end, transport.IdentAttrs(hdr)...)
		}
	}
	return nil
}

// spinBudget is the number of busy-poll iterations worth burning before
// yielding the CPU with a sleep.  Spinning pays only when the other side
// of the ring can make progress concurrently: the peer is a separate
// process (or at least a separate goroutine pinned elsewhere), so on a
// single-CPU host a runtime.Gosched loop just burns the spinner's whole
// OS timeslice while the peer — who holds the data or the space being
// waited for — cannot run at all.  There, sleeping immediately is what
// hands the core over.
func spinBudget(want int) int {
	if runtime.NumCPU() < 2 {
		return 0
	}
	return want
}

// push publishes one record to p's outbound ring, waiting out
// backpressure.  Caller holds p.wmu (the single-producer guarantee).
func (t *Transport) push(p *shmPeer, hdr *transport.Header, payload []byte) error {
	if len(payload) > t.maxFrame() {
		return fmt.Errorf("shm: %d-byte payload exceeds frame limit %d", len(payload), t.maxFrame())
	}
	budget := spinBudget(128)
	spins := 0
	var stallStart time.Time
	for {
		if t.closed.Load() {
			return transport.ErrClosed
		}
		if !p.alive.Load() {
			return &transport.PeerDownError{Rank: p.rank}
		}
		if p.out.tryPush(hdr, payload) {
			if spins > 0 {
				t.stats.stallNanos.Add(time.Since(stallStart).Nanoseconds())
			}
			// Ring the peer's doorbell if its consumer announced it was
			// idle.  The record is already published (tryPush's tail store
			// is the release), so the consumer either sees it in its
			// pre-park rescan or is woken here — no ordering loses a frame.
			if p.door.Swap(0) == 1 {
				p.knock.knock()
			}
			return nil
		}
		if spins == 0 {
			// One stall per full episode, not per retry: the counter should
			// read "how often did a sender hit a full ring".
			t.stats.ringFullStalls.Add(1)
			stallStart = time.Now()
		}
		spins++
		if spins < budget {
			runtime.Gosched()
		} else {
			d := time.Duration(spins-budget+1) * time.Microsecond
			if d > 200*time.Microsecond {
				d = 200 * time.Microsecond
			}
			time.Sleep(d)
		}
	}
}

// parkTimeout bounds a doorbell park so Close stays prompt without
// producers having to wake an exiting consumer, and so a lost wake (a
// dying peer, a raced FIFO open) costs a bounded nap instead of a hang.
const parkTimeout = time.Millisecond

// pollLoop is the single consumer of every inbound ring: it drains
// records into the delivery handler, spinning briefly while traffic
// flows and parking on the doorbell when idle — under load the poll
// latency is what makes the intra-node path beat a loopback socket, and
// when idle the netpoller-routed knock keeps the first-frame latency in
// wakeup territory instead of costing a sleep-poll interval.
func (t *Transport) pollLoop() {
	defer t.wg.Done()
	budget := spinBudget(256)
	scan := func() bool {
		worked := false
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			if t.drainRing(p) {
				worked = true
			}
		}
		return worked
	}
	idle := 0
	for !t.closed.Load() {
		if scan() {
			idle = 0
			continue
		}
		idle++
		if idle < budget {
			runtime.Gosched()
			continue
		}
		// Park: announce intent, rescan once (producers publish the
		// record before checking the doorbell, so this ordering cannot
		// lose a wakeup), then wait out a wake or the timeout.
		t.door.Store(1)
		if scan() {
			t.door.Store(0)
			idle = 0
			continue
		}
		t.bell.park(parkTimeout)
		t.door.Store(0)
	}
}

// drainRing consumes up to a small batch of records from p's inbound
// ring, reporting whether any arrived.  A corrupt record is unrecoverable
// — the segment's invariants are broken — so the ring is abandoned and
// the peer declared down.
func (t *Transport) drainRing(p *shmPeer) bool {
	any := false
	for n := 0; n < 32; n++ {
		hdr, payload, ok, err := p.in.tryPop(t.maxFrame())
		if err != nil {
			p.in.drain()
			t.peerDown(p, err.Error())
			return any
		}
		if !ok {
			return any
		}
		any = true
		p.lastHeard.Store(time.Now().UnixNano())
		t.stats.framesRecv.Add(1)
		t.stats.bytesRecv.Add(int64(recordBytes(len(payload))))
		if now, ok := t.traceNow(); ok {
			t.trace("shm_recv", p.rank, int64(len(payload)), now, now, transport.IdentAttrs(hdr)...)
		}
		t.deliver(t.cfg.Rank, hdr, payload)
	}
	return any
}

// monitorLoop is the failure detector: it stamps this member's heartbeat
// into its presence slot and scores every peer from theirs.  A changed
// attach generation with a current epoch is a replacement coming up; a
// dead pid (co-located processes) is an immediate hard failure; silence
// for SuspectAfter intervals raises suspicion and for FailAfter declares
// the peer down, exactly the ladder the TCP detector climbs.
func (t *Transport) monitorLoop() {
	defer t.wg.Done()
	interval := t.cfg.Heartbeat
	score := interval > 0
	if !score {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	myOff := t.seg.presence(t.idx)
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		if !t.paused.Load() {
			i64at(t.seg.b, myOff+offBeat).Store(time.Now().UnixNano())
			t.stats.beatsSent.Add(1)
		}
		now := time.Now()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			off := t.seg.presence(t.gi[p.rank])
			agen := u64at(t.seg.b, off+offAgen).Load()
			beat := i64at(t.seg.b, off+offBeat).Load()
			if agen != p.seenAgen {
				t.peerAttached(p, agen, beat, off, now)
				continue
			}
			if beat != p.seenBeat {
				p.seenBeat = beat
				p.lastHeard.Store(now.UnixNano())
				t.stats.beatsRecv.Add(1)
				if now2, ok := t.traceNow(); ok {
					t.trace("heartbeat", p.rank, 0, now2, now2)
				}
			}
			if !p.alive.Load() {
				continue
			}
			if pid := int(u64at(t.seg.b, off+offPid).Load()); pid != 0 && pid != os.Getpid() && !pidAlive(pid) {
				t.peerDown(p, fmt.Sprintf("pid %d gone", pid))
				continue
			}
			if !score {
				continue
			}
			silent := now.Sub(time.Unix(0, p.lastHeard.Load()))
			missed := int(silent / interval)
			switch {
			case missed >= transport.FailAfter:
				if wnow, ok := t.traceNow(); ok {
					t.trace("suspect", p.rank, 0, wnow, wnow,
						obs.Attr{Key: "hard", Val: "true"},
						obs.Attr{Key: "silent", Val: silent.String()})
				}
				t.peerDown(p, fmt.Sprintf("silent for %v", silent))
			case missed >= transport.SuspectAfter:
				if p.suspect.CompareAndSwap(false, true) {
					t.stats.suspects.Add(1)
					if wnow, ok := t.traceNow(); ok {
						t.trace("suspect", p.rank, 0, wnow, wnow,
							obs.Attr{Key: "silent", Val: silent.String()})
					}
				}
			default:
				p.suspect.Store(false)
			}
		}
	}
}

// peerAttached handles an attach-generation change: a new incarnation of
// the peer published its slot.  An incarnation carrying an older epoch
// than ours is a fenced-out zombie and is ignored; a current one is
// adopted and reported up — the shared-memory equivalent of a rejoining
// peer's fresh connection registering.
func (t *Transport) peerAttached(p *shmPeer, agen uint64, beat int64, off int, now time.Time) {
	epoch := u64at(t.seg.b, off+offEpoch).Load()
	if epoch < t.epoch.Load() {
		return // stale incarnation; keep scoring the old observation
	}
	first := p.seenAgen == 0
	if !first && p.alive.Load() && epoch > t.epoch.Load() {
		// A generation bump on a peer still scored alive means the old
		// incarnation died without the detector ever observing it — the
		// replacement won the race against our next tick.  A socket
		// transport cannot miss this (the EOF arrives before the new
		// connection), and the layers above depend on the death report:
		// a rank blocked on the dead incarnation's traffic fails over
		// only when its peer is declared down.  Report the death first,
		// then adopt the replacement.  Not once this member has raised
		// its own epoch to the replacement's: that happens only in the
		// recovery that admits the replacement, so the report would come
		// after it and declare the live replacement dead.
		t.peerDown(p, fmt.Sprintf("replaced by attach generation %d", agen))
	}
	p.seenAgen = agen
	p.seenBeat = beat
	p.lastHeard.Store(now.UnixNano())
	p.suspect.Store(false)
	p.alive.Store(true)
	if first || t.closed.Load() {
		return
	}
	if wnow, ok := t.traceNow(); ok {
		t.trace("shm_attach", p.rank, 0, wnow, wnow)
	}
	p.liveMu.Lock()
	if t.peer != nil {
		t.peer(p.rank, true)
	}
	p.liveMu.Unlock()
}

// peerDown declares one peer failed, once per incarnation.
func (t *Transport) peerDown(p *shmPeer, reason string) {
	if !p.alive.CompareAndSwap(true, false) {
		return
	}
	p.suspect.Store(false)
	if now, ok := t.traceNow(); ok {
		t.trace("shm_peer_down", p.rank, 0, now, now,
			obs.Attr{Key: "reason", Val: reason})
	}
	p.liveMu.Lock()
	defer p.liveMu.Unlock()
	if !t.closed.Load() && t.peer != nil {
		t.peer(p.rank, false)
	}
}

// Close shuts the endpoint down: the poll and monitor goroutines stop and
// a file-backed mapping is released.  The segment file stays on disk —
// the launcher owns the scratch directory, and a replacement for this
// rank re-attaches to the same rings.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stop)
	t.wg.Wait() // the poll loop's parks are parkTimeout-bounded, so this is prompt
	t.bell.close()
	for _, p := range t.peers {
		if p != nil {
			p.knock.close()
		}
	}
	if t.ownSeg {
		return t.seg.Close()
	}
	return nil
}
