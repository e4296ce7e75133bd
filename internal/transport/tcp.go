package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
)

// TCP hosts one rank of a world as an OS process and reaches the other
// ranks over localhost (or any) TCP.  One multiplexed connection carries
// each peer pair's traffic in both directions — data frames, heartbeats
// and runtime control messages interleave on the same stream — and the
// connection pool establishes the full mesh during Start with a
// deterministic dial direction (each rank dials its lower-ranked peers and
// accepts from higher ones), so exactly one connection exists per pair.
//
// Reliability: a TCP stream does not lose, duplicate or reorder bytes, so
// data frames are fire-and-forget.  Their CRC-32 trailer guards the stream
// itself: a frame that fails it means the connection is damaged, and the
// peer is treated as gone.  Injected link faults are the runtime's: the
// mpi layer's sequence/CRC/dedup loop runs above every transport.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener

	deliver Handler
	peer    PeerFunc

	mu        sync.Mutex
	connected int
	connCond  *sync.Cond

	peers  []*tcpPeer
	closed atomic.Bool
	wg     sync.WaitGroup
	hbStop chan struct{}

	// epoch is the membership epoch stamped into hellos and beats.  The
	// accept path rejects hellos from an older epoch, fencing traffic from
	// a process that was replaced.
	epoch atomic.Uint64

	// beatsPaused suppresses outbound heartbeats while still reading — the
	// deterministic stand-in for a SIGSTOPped process (connection open,
	// nothing sent) in failure-detection tests.
	beatsPaused atomic.Bool

	stats tcpCounters

	// tracer, when set, records wall-clock spans for wire operations.  An
	// atomic pointer so reader goroutines may race SetTracer safely; the
	// world wires it before Start in practice.
	tracer atomic.Pointer[obs.Tracer]
}

// TCPConfig parameterizes a TCP endpoint.
type TCPConfig struct {
	// Rank is the world rank this process hosts.
	Rank int
	// Size is the world size.
	Size int
	// WorldID distinguishes concurrent worlds; the handshake rejects
	// connections from a different world.
	WorldID uint64
	// Addrs lists every rank's listen address ("host:port"), indexed by
	// rank.
	Addrs []string
	// Listener, when non-nil, is a pre-bound listener for Addrs[Rank]
	// (launchers and tests bind first to avoid port races).
	Listener net.Listener
	// DialTimeout bounds Start's mesh establishment.  Default 15 s.
	DialTimeout time.Duration
	// Heartbeat is the failure detector's interval: every interval the
	// endpoint beats each connected peer and scores its silence against
	// SuspectAfter and FailAfter.  Zero disables the detector (clean-close
	// detection still works via connection loss).
	Heartbeat time.Duration
	// Epoch is the membership epoch this endpoint starts in.  A respawned
	// rank is launched with the bumped epoch so survivors can tell it from
	// a stale connection of its previous incarnation.
	Epoch uint64
	// Rejoin makes Start dial every peer instead of only lower ranks: a
	// respawned rank re-enters an established mesh whose survivors are not
	// dialing anyone.
	Rejoin bool
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 15 * time.Second
	}
	return c
}

// TCPStats counts wire traffic.
type TCPStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	// CRCRejects counts frames that failed their checksum, each of which
	// took its connection down as damaged.
	CRCRejects int64
	// Failure-detector traffic, and the times a peer was suspected (each
	// suspicion counts once, however many worlds share the endpoint).
	BeatsSent, BeatsRecv int64
	Suspects             int64
	// VectoredSends is always zero: there is no gather-list send.  The field
	// stays declared only because the frozen benchmark harness reads it; it
	// goes with the harness's transport.tcp_vectored_per_op.
	VectoredSends int64
}

type tcpCounters struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	crcRejects             atomic.Int64
	beatsSent, beatsRecv   atomic.Int64
	suspects               atomic.Int64
}

// tcpPeer is one pooled peer connection and its liveness state.  The
// connection is generational: a respawned peer replaces a torn-down
// connection in place, and the generation counter keeps a stale reader or
// writer of the old connection from tearing down the new one.
type tcpPeer struct {
	rank int

	wmu     sync.Mutex            // serializes frame writes (data from the rank and beats)
	conn    net.Conn              // guarded by wmu
	gen     uint64                // connection generation, guarded by wmu
	scratch []byte                // frame-head assembly buffer, under wmu
	vecbuf  net.Buffers           // the writev's buffers, under wmu; a field, since WriteTo's pointer receiver would move a local to the heap
	trailer [frameTrailerLen]byte // a data frame's CRC-32 trailer, under wmu, in the peer for the same reason
	alive   atomic.Bool

	// liveMu serializes the down/up liveness callbacks for this peer so
	// their order matches connection-generation order: a stale down — one
	// whose generation has already been replaced by a rejoined connection —
	// is suppressed rather than delivered after the replacement's up, which
	// would re-mark a healthy rejoined rank as dead with no recovery left.
	liveMu sync.Mutex

	// lastHeard is when any frame last arrived from this peer (unix nanos);
	// the failure detector scores silence against it.
	lastHeard atomic.Int64
	// suspect marks a peer past SuspectAfter but not yet declared down;
	// cleared if it resumes, so a later silence counts again.
	suspect atomic.Bool
}

// NewTCP creates (but does not connect) a TCP endpoint.  It binds the
// listener immediately so peers can start dialing before Start is called.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("transport: rank %d out of range for size %d", cfg.Rank, cfg.Size)
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("transport: %d addrs for %d ranks", len(cfg.Addrs), cfg.Size)
	}
	t := &TCP{cfg: cfg, ln: cfg.Listener, hbStop: make(chan struct{})}
	t.epoch.Store(cfg.Epoch)
	t.connCond = sync.NewCond(&t.mu)
	t.peers = make([]*tcpPeer, cfg.Size)
	for r := range t.peers {
		t.peers[r] = &tcpPeer{rank: r}
	}
	if t.ln == nil && cfg.Size > 1 {
		ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Rank], err)
		}
		t.ln = ln
	}
	return t, nil
}

// Size returns the world size.
func (t *TCP) Size() int { return t.cfg.Size }

// Local reports whether r is the hosted rank.
func (t *TCP) Local(r int) bool { return r == t.cfg.Rank }

// Wallclock reports true: this transport has no virtual-time coupling.
func (t *TCP) Wallclock() bool { return true }

// SetTracer attaches a span recorder to the endpoint.  Wire operations
// trace as ClockWall spans on the hosted rank's wall lane.
func (t *TCP) SetTracer(tr *obs.Tracer) { t.tracer.Store(tr) }

// SetEpoch raises the membership epoch.  Future hellos and beats carry it,
// and inbound hellos below it are rejected; survivors bump it when they
// commit a recovery so a stale incarnation of a replaced rank cannot
// reconnect.
func (t *TCP) SetEpoch(e uint64) {
	for {
		old := t.epoch.Load()
		if e <= old || t.epoch.CompareAndSwap(old, e) {
			return
		}
	}
}

// PauseHeartbeats suppresses (true) or resumes (false) outbound beats while
// the endpoint keeps reading — the deterministic equivalent of SIGSTOPping
// the process, for failure-detection tests.
func (t *TCP) PauseHeartbeats(pause bool) { t.beatsPaused.Store(pause) }

// trace emits a wall-clock span if a tracer is attached and enabled.
func (t *TCP) trace(kind string, peer int, bytes int64, start, end float64, attrs ...obs.Attr) {
	tr := t.tracer.Load()
	if tr == nil || !tr.Enabled() {
		return
	}
	tr.Emit(obs.Span{Rank: t.cfg.Rank, Kind: kind, Peer: peer, Bytes: bytes,
		Start: start, End: end, Clock: obs.ClockWall, Attrs: attrs})
}

// traceNow returns the attached tracer's wall clock, or 0 with ok=false
// when tracing is off (the span sites skip timestamping entirely then).
func (t *TCP) traceNow() (float64, bool) {
	tr := t.tracer.Load()
	if tr == nil || !tr.Enabled() {
		return 0, false
	}
	return tr.Now(), true
}

// Stats returns a snapshot of the wire counters.
func (t *TCP) Stats() TCPStats {
	c := &t.stats
	return TCPStats{
		FramesSent: c.framesSent.Load(), FramesRecv: c.framesRecv.Load(),
		BytesSent: c.bytesSent.Load(), BytesRecv: c.bytesRecv.Load(),
		CRCRejects: c.crcRejects.Load(),
		BeatsSent:  c.beatsSent.Load(), BeatsRecv: c.beatsRecv.Load(),
		Suspects: c.suspects.Load(),
	}
}

// Start establishes the full connection mesh — dialing every lower rank,
// accepting every higher one (or dialing everyone when rejoining an
// established mesh) — and begins delivering inbound frames.
func (t *TCP) Start(deliver Handler, peer PeerFunc) error {
	if t.deliver != nil {
		return fmt.Errorf("transport: tcp already started")
	}
	t.deliver = deliver
	t.peer = peer
	if t.cfg.Size == 1 {
		return nil
	}

	t.wg.Add(1)
	go t.acceptLoop()
	if t.cfg.Heartbeat > 0 {
		// Beat from the first registered connection on: a rejoining
		// endpoint may spend a while establishing the rest of its mesh, and
		// peers already connected must not hard-fail it for that silence.
		t.wg.Add(1)
		go t.heartbeatLoop()
	}

	var dials []int
	for r := 0; r < t.cfg.Size; r++ {
		if r < t.cfg.Rank || (t.cfg.Rejoin && r != t.cfg.Rank) {
			dials = append(dials, r)
		}
	}
	dialErr := make(chan error, len(dials))
	for _, r := range dials {
		go func(r int) { dialErr <- t.dialPeer(r) }(r)
	}
	for range dials {
		if err := <-dialErr; err != nil {
			t.Close()
			return err
		}
	}

	// Wait for the higher ranks to dial in.
	deadline := time.Now().Add(t.cfg.DialTimeout)
	t.mu.Lock()
	for t.connected < t.cfg.Size-1 && !t.closed.Load() {
		if time.Now().After(deadline) {
			n := t.connected
			t.mu.Unlock()
			t.Close()
			return fmt.Errorf("transport: rank %d: only %d/%d peers connected within %v",
				t.cfg.Rank, n, t.cfg.Size-1, t.cfg.DialTimeout)
		}
		t.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		t.mu.Lock()
	}
	t.mu.Unlock()
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handshakeAccept(conn)
		}()
	}
}

// handshakeAccept validates an inbound dialer and registers its connection.
// During initial mesh formation only higher ranks dial in; a lower rank
// dialing is a respawned peer rejoining, accepted when its slot is free and
// its hello carries the current (or a newer) membership epoch — a stale
// incarnation from before a committed recovery is fenced out here.
func (t *TCP) handshakeAccept(conn net.Conn) {
	br := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
	f, err := t.readFrame(br)
	if err != nil || f.Kind != KindHello || f.WorldID != t.cfg.WorldID ||
		f.WSize != int32(t.cfg.Size) || f.Rank == int32(t.cfg.Rank) ||
		f.Rank < 0 || f.Rank >= int32(t.cfg.Size) || f.Epoch < t.epoch.Load() {
		conn.Close()
		return
	}
	if err := t.writeHello(conn); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	t.register(int(f.Rank), conn, br)
}

// dialPeer connects to a lower-ranked peer, retrying until its listener is
// up or the dial timeout expires.
func (t *TCP) dialPeer(r int) error {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	backoff := 2 * time.Millisecond
	for {
		if t.closed.Load() {
			return ErrClosed
		}
		conn, err := net.DialTimeout("tcp", t.cfg.Addrs[r], time.Until(deadline))
		if err == nil {
			conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
			herr := t.writeHello(conn)
			var br *bufio.Reader
			if herr == nil {
				br = bufio.NewReader(conn)
				f, ferr := t.readFrame(br)
				switch {
				case ferr != nil:
					herr = fmt.Errorf("transport: bad hello reply from rank %d: %v", r, ferr)
				case f.Kind != KindHello || f.WorldID != t.cfg.WorldID || f.Rank != int32(r):
					herr = fmt.Errorf("transport: bad hello reply from rank %d", r)
				}
			} else {
				herr = fmt.Errorf("transport: hello to rank %d: %w", r, herr)
			}
			if herr == nil {
				conn.SetDeadline(time.Time{})
				t.register(r, conn, br)
				return nil
			}
			conn.Close()
			// A rejoining replacement can race the peer's teardown of the
			// old incarnation's connection; keep redialing until the
			// deadline.  On initial mesh formation a hello failure is a
			// configuration error and aborts immediately.
			if !t.cfg.Rejoin {
				return herr
			}
			err = herr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: dial rank %d (%s): %w", r, t.cfg.Addrs[r], err)
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

func (t *TCP) writeHello(conn net.Conn) error {
	f := Frame{Kind: KindHello, WorldID: t.cfg.WorldID, Rank: int32(t.cfg.Rank),
		WSize: int32(t.cfg.Size), Epoch: t.epoch.Load()}
	_, err := conn.Write(EncodeFrame(nil, &f))
	return err
}

// register installs a completed connection in the pool and starts its
// reader.  A connection arriving while the slot is still occupied evicts
// the old one: a peer only ever redials after its previous incarnation
// died, so the newcomer's valid hello proves the occupant is a zombie
// whose EOF simply has not been read yet — eviction tears it down through
// peerGone (reporting the peer down, which IS the failure detection on
// this path) and then installs the replacement.  A connection filling a
// torn-down slot is a peer rejoining, and the liveness callback reports it
// up.
func (t *TCP) register(rank int, conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	p := t.peers[rank]
	p.wmu.Lock()
	for p.conn != nil && !t.closed.Load() {
		gen := p.gen
		p.wmu.Unlock()
		t.peerGone(p, gen, "evicted by replacement connection")
		p.wmu.Lock()
	}
	if t.closed.Load() {
		p.wmu.Unlock()
		conn.Close()
		return
	}
	rejoined := p.gen > 0
	p.gen++
	gen := p.gen
	p.conn = conn
	p.alive.Store(true)
	p.suspect.Store(false)
	p.wmu.Unlock()
	p.lastHeard.Store(time.Now().UnixNano())
	t.mu.Lock()
	t.connected++
	t.connCond.Broadcast()
	t.mu.Unlock()
	if rejoined && !t.closed.Load() && t.peer != nil {
		p.liveMu.Lock()
		t.peer(rank, true)
		p.liveMu.Unlock()
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(p, br, gen)
	}()
}

// readFrame reads one whole frame from br into a pooled buffer and decodes
// it.  The returned frame's payload aliases the pooled buffer; the caller
// copies what it keeps and the buffer is recycled here... except Payload,
// which readLoop copies before release.
func (t *TCP) readFrame(br *bufio.Reader) (Frame, error) {
	// The length prefix is peeked, not read into a local array: br is read
	// through the io.Reader interface, so an array would escape every frame.
	prefix, err := br.Peek(framePrefixLen)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(prefix))
	if n < 1+frameTrailerLen || n > DefaultMaxFrame {
		return Frame{}, ErrFrameLength
	}
	buf := datatype.GetBuffer(framePrefixLen + n)
	if _, err := io.ReadFull(br, buf); err != nil {
		datatype.PutBuffer(buf)
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf, DefaultMaxFrame)
	if err != nil {
		datatype.PutBuffer(buf)
		return Frame{}, err
	}
	t.stats.bytesRecv.Add(int64(framePrefixLen + n))
	// Hand the payload over in its own pooled buffer so the frame buffer
	// can be recycled and the receiver can free the payload independently.
	if f.Kind == KindData {
		payload := datatype.GetBuffer(len(f.Payload))
		copy(payload, f.Payload)
		f.Payload = payload
	}
	datatype.PutBuffer(buf)
	return f, nil
}

// readLoop drains one peer connection: data frames are delivered, beats
// refresh the failure detector.  Nothing below the runtime retransmits, so
// a frame that fails its checksum is stream damage: the connection goes
// down like any other read failure, which the runtime surfaces as a
// recoverable ErrRankFailed instead of waiting for ever on the lost frame.
func (t *TCP) readLoop(p *tcpPeer, br *bufio.Reader, gen uint64) {
	for {
		f, err := t.readFrame(br)
		if err == ErrChecksum {
			t.stats.crcRejects.Add(1)
		}
		if err != nil {
			t.peerGone(p, gen, fmt.Sprintf("read: %v", err))
			return
		}
		p.lastHeard.Store(time.Now().UnixNano())
		switch f.Kind {
		case KindData:
			t.stats.framesRecv.Add(1)
			if now, ok := t.traceNow(); ok {
				t.trace("tcp_recv", p.rank, int64(len(f.Payload)), now, now, IdentAttrs(f.Hdr)...)
			}
			t.deliver(t.cfg.Rank, f.Hdr, f.Payload)
		case KindBeat:
			t.stats.beatsRecv.Add(1)
			if now, ok := t.traceNow(); ok {
				t.trace("heartbeat", p.rank, 0, now, now)
			}
		default:
			// Hello after establishment: protocol violation; ignore.
			if f.Payload != nil {
				datatype.PutBuffer(f.Payload)
			}
		}
	}
}

// peerGone tears down connection generation gen to p and reports the peer
// down.  A stale caller — the reader or a writer of an already-replaced
// connection — is a no-op, so a rejoined peer's fresh connection survives
// its predecessor's death throes.
func (t *TCP) peerGone(p *tcpPeer, gen uint64, reason string) {
	p.wmu.Lock()
	if p.gen != gen || p.conn == nil {
		p.wmu.Unlock()
		return
	}
	p.alive.Store(false)
	p.suspect.Store(false)
	p.conn.Close()
	p.conn = nil
	p.wmu.Unlock()
	// Report the death only if this generation is still the peer's newest:
	// once a replacement connection registers, this death belongs to a
	// previous incarnation and reporting it would clobber the rejoined
	// peer's liveness.  liveMu makes the check-and-call atomic against
	// register's up report.
	p.liveMu.Lock()
	defer p.liveMu.Unlock()
	p.wmu.Lock()
	stale := p.gen != gen
	p.wmu.Unlock()
	if !stale && !t.closed.Load() && t.peer != nil {
		t.peer(p.rank, false)
	}
}

// Send delivers hdr+payload to rank to.  Ownership of payload passes to the
// transport at the call: a self-send hands it to the receiving handler by
// reference, every other path — error returns included — recycles it once
// the frame is written.
func (t *TCP) Send(to int, hdr Header, payload []byte) error {
	if to == t.cfg.Rank && !t.closed.Load() {
		t.deliver(to, hdr, payload)
		return nil
	}
	err := t.send(to, hdr, payload)
	datatype.PutBuffer(payload)
	return err
}

// send writes one data frame to a remote rank: a single writev of frame
// head, payload and CRC-32 trailer, so the payload is never copied.
func (t *TCP) send(to int, hdr Header, payload []byte) error {
	if to < 0 || to >= t.cfg.Size {
		return fmt.Errorf("transport: rank %d out of range [0,%d)", to, t.cfg.Size)
	}
	if t.closed.Load() {
		return ErrClosed
	}
	p := t.peers[to]
	if !p.alive.Load() {
		return &PeerDownError{Rank: to}
	}
	start, traced := t.traceNow()
	gen, err := t.writeData(p, &hdr, payload)
	if err != nil {
		t.peerGone(p, gen, fmt.Sprintf("write: %v", err))
		return &PeerDownError{Rank: to}
	}
	t.stats.framesSent.Add(1)
	if traced {
		if end, ok := t.traceNow(); ok {
			t.trace("tcp_send", to, int64(len(payload)), start, end, IdentAttrs(hdr)...)
		}
	}
	return nil
}

// writeData writes a data frame without copying the payload: the frame head
// is assembled in the peer's scratch buffer and head, payload and CRC-32
// trailer go to the socket in a single writev.  It returns the connection
// generation written to, for a failure-path peerGone.
func (t *TCP) writeData(p *tcpPeer, hdr *Header, payload []byte) (uint64, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.conn == nil {
		return p.gen, ErrPeerDown
	}
	head := p.scratch[:0]
	head = append(head, 0, 0, 0, 0)
	head = append(head, KindData)
	head = appendHeader(head, hdr)
	binary.LittleEndian.PutUint32(head[0:], uint32(len(head)-framePrefixLen+len(payload)+frameTrailerLen))
	sum := crc32.Update(crc32.ChecksumIEEE(head[framePrefixLen:]), crc32.IEEETable, payload)
	p.scratch = head[:0]
	binary.LittleEndian.PutUint32(p.trailer[:], sum)

	bufs := append(p.vecbuf[:0], head)
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	bufs = append(bufs, p.trailer[:])
	p.vecbuf = bufs
	n, err := p.vecbuf.WriteTo(p.conn) // consumes p.vecbuf, not bufs
	// Keep the backing array for the next write, but drop the references so
	// the payload is not retained between sends.
	clear(bufs)
	p.vecbuf = bufs[:0]
	t.stats.bytesSent.Add(n)
	return p.gen, err
}

// heartbeatLoop is the failure detector: every interval it beats each
// connected peer and scores how long each has been silent.  A peer silent
// for SuspectAfter intervals is suspected — counted and traced once, since
// it may still be merely slow — and one silent for FailAfter intervals is
// declared down even though its connection is open: the hung-process case
// no close event ever covers.
func (t *TCP) heartbeatLoop() {
	defer t.wg.Done()
	interval := t.cfg.Heartbeat
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.hbStop:
			return
		case <-tick.C:
		}
		paused := t.beatsPaused.Load()
		now := time.Now()
		for _, p := range t.peers {
			if p.rank == t.cfg.Rank || !p.alive.Load() {
				continue
			}
			if !paused {
				t.sendBeat(p)
			}
			silent := now.Sub(time.Unix(0, p.lastHeard.Load()))
			missed := int(silent / interval)
			switch {
			case missed >= FailAfter:
				if wnow, ok := t.traceNow(); ok {
					t.trace("suspect", p.rank, 0, wnow, wnow,
						obs.Attr{Key: "hard", Val: "true"},
						obs.Attr{Key: "silent", Val: silent.String()})
				}
				p.wmu.Lock()
				gen := p.gen
				p.wmu.Unlock()
				t.peerGone(p, gen, fmt.Sprintf("heartbeat hard-failure after %v silence", silent))
			case missed >= SuspectAfter:
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

// sendBeat writes one heartbeat.  TryLock: a data write already in flight
// proves liveness on its own, and a writer blocked on a wedged peer must
// not wedge the detector with it — detection reads only lastHeard.
func (t *TCP) sendBeat(p *tcpPeer) {
	if !p.wmu.TryLock() {
		return
	}
	defer p.wmu.Unlock()
	if p.conn == nil {
		return
	}
	f := Frame{Kind: KindBeat, Epoch: t.epoch.Load()}
	buf := EncodeFrame(p.scratch[:0], &f)
	p.scratch = buf[:0]
	p.conn.SetWriteDeadline(time.Now().Add(t.cfg.Heartbeat))
	if _, err := p.conn.Write(buf); err == nil {
		t.stats.beatsSent.Add(1)
		t.stats.bytesSent.Add(int64(len(buf)))
	}
	p.conn.SetWriteDeadline(time.Time{})
}

// Close tears the endpoint down: the listener and every pooled connection
// are closed and the reader goroutines drained.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.hbStop)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		p.wmu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.wmu.Unlock()
	}
	t.wg.Wait()
	return nil
}
