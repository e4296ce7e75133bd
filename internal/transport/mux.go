package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nccd/internal/datatype"
)

// Mux multiplexes many independent rank worlds ("jobs") onto one started
// transport, so a long-lived service can host concurrent solves on a
// single shared peer mesh without the worlds ever seeing each other's
// frames.  Each job gets a Sub — a virtual Transport spanning a subset of
// the mesh ranks under its own job-relative rank numbering — and every
// frame a Sub sends is stamped with the job id in Header.Job; the
// receiving Mux routes purely on that stamp.  Context ids therefore never
// need to be disjoint across jobs: the effective communicator namespace
// is the (job, ctx) pair, which layers cleanly on the epoch-fenced
// contexts of the recovery protocol.
//
// Liveness events fan out with the same isolation: a mesh rank going down
// or coming back is reported only to the Subs whose job is mapped onto it
// (translated to the job-relative rank), so a crash aborts exactly the
// jobs that depended on the crashed process and no others.
//
// A frame can arrive for a job whose Sub is not registered yet — the
// submitting side may start solving before a slower peer has processed
// the job-start control message.  Those frames are held (bounded) and
// flushed when the Sub starts.  Frames for a released job are dropped.
type Mux struct {
	real Transport

	mu      sync.Mutex
	subs    map[uint64]*Sub
	closed  map[uint64]struct{} // released jobs: late frames are dropped
	held    map[uint64][]heldFrame
	heldLen int // total held payload bytes, bounded by maxHeldBytes
	downed  []bool
	started bool

	// Service-level observers of mesh rank liveness, independent of any
	// job mapping.
	observers []PeerFunc

	heldDropped atomic.Int64
	jobDropped  atomic.Int64
}

// maxHeldBytes bounds the payload bytes parked for not-yet-registered
// jobs across the whole mux.  The window between a job-start message and
// the Sub registering is milliseconds; the bound only matters if a job id
// is never registered at all (a control-plane bug), where unbounded
// buffering would be a slow leak.
const maxHeldBytes = 16 << 20

type heldFrame struct {
	to      int
	hdr     Header
	payload []byte
}

// NewMux wraps real, which must not have been started: the mux owns the
// one Start the Transport contract allows.
func NewMux(real Transport) *Mux {
	return &Mux{
		real:   real,
		subs:   make(map[uint64]*Sub),
		closed: make(map[uint64]struct{}),
		held:   make(map[uint64][]heldFrame),
		downed: make([]bool, real.Size()),
	}
}

// Start connects the underlying transport and begins routing.  Call once,
// before creating Subs.
func (m *Mux) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("transport: mux already started")
	}
	m.started = true
	m.mu.Unlock()
	return m.real.Start(m.route, m.onPeer)
}

// Size is the mesh size in real ranks.
func (m *Mux) Size() int { return m.real.Size() }

// OnPeer registers a service-level observer of mesh rank liveness, called
// (on the transport's callback goroutine) with the real rank: down for a
// failure, up for a respawned process re-entering the mesh.
func (m *Mux) OnPeer(f PeerFunc) {
	m.mu.Lock()
	m.observers = append(m.observers, f)
	m.mu.Unlock()
}

// HeldDropped counts frames dropped because the held-frame budget was
// exhausted; JobDropped counts frames dropped for unknown or released
// jobs.  Both should stay zero in a healthy service.
func (m *Mux) HeldDropped() int64 { return m.heldDropped.Load() }
func (m *Mux) JobDropped() int64  { return m.jobDropped.Load() }

// Sub creates the virtual transport for job over the given real ranks
// (job rank i ↔ mesh rank ranks[i]).  The job id must be nonzero —
// Header.Job zero means "not multiplexed" — and unused by any live Sub.
// Released ids must not be reused: late frames of a released job are
// dropped by id.
func (m *Mux) Sub(job uint64, ranks []int) (*Sub, error) {
	if job == 0 {
		return nil, fmt.Errorf("transport: job id must be nonzero")
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("transport: job %d has no ranks", job)
	}
	ofReal := make(map[int]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= m.real.Size() {
			return nil, fmt.Errorf("transport: job %d rank %d out of range [0,%d)", job, r, m.real.Size())
		}
		if _, dup := ofReal[r]; dup {
			return nil, fmt.Errorf("transport: job %d maps mesh rank %d twice", job, r)
		}
		ofReal[r] = i
	}
	s := &Sub{m: m, job: job, ranks: append([]int(nil), ranks...), ofReal: ofReal}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.subs[job]; exists {
		return nil, fmt.Errorf("transport: job id %d already in use", job)
	}
	if _, was := m.closed[job]; was {
		return nil, fmt.Errorf("transport: job id %d was released and cannot be reused", job)
	}
	m.subs[job] = s
	return s, nil
}

// release detaches a Sub: its job id is tombstoned so stragglers (late
// data frames, goodbye frames of an already-finished peer) are dropped
// instead of parked forever.
func (m *Mux) release(job uint64) {
	m.mu.Lock()
	delete(m.subs, job)
	m.closed[job] = struct{}{}
	for _, hf := range m.held[job] {
		m.heldLen -= len(hf.payload)
		datatype.PutBuffer(hf.payload)
	}
	delete(m.held, job)
	m.mu.Unlock()
}

// route is the single delivery handler registered on the real transport.
func (m *Mux) route(to int, hdr Header, payload []byte) {
	job := hdr.Job
	m.mu.Lock()
	s := m.subs[job]
	if s == nil || !s.startedLoad() {
		if _, gone := m.closed[job]; gone || job == 0 {
			m.mu.Unlock()
			m.jobDropped.Add(1)
			datatype.PutBuffer(payload)
			return
		}
		// Park for a job (or a Sub) that has not registered yet.
		if m.heldLen+len(payload) > maxHeldBytes {
			m.mu.Unlock()
			m.heldDropped.Add(1)
			datatype.PutBuffer(payload)
			return
		}
		m.held[job] = append(m.held[job], heldFrame{to: to, hdr: hdr, payload: payload})
		m.heldLen += len(payload)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	s.deliver(to, hdr, payload)
}

// onPeer fans a mesh rank's liveness change out to the jobs mapped onto it
// and to the service-level observers.  downed remembers the deaths so a
// Sub started later replays them.
func (m *Mux) onPeer(r int, up bool) {
	m.mu.Lock()
	if r >= 0 && r < len(m.downed) {
		m.downed[r] = !up
	}
	subs := make([]*Sub, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	observers := append([]PeerFunc(nil), m.observers...)
	m.mu.Unlock()
	for _, s := range subs {
		s.peer(r, up)
	}
	for _, f := range observers {
		f(r, up)
	}
}

// Close closes the underlying transport.  Subs become unusable.
func (m *Mux) Close() error { return m.real.Close() }

// Sub is one job's virtual transport: the Transport interface over a
// subset of the mesh, in job-relative rank numbering.  It is handed to
// mpi.NewWorldTransport exactly like a physical transport; Start
// registers the world's handler with the mux and Close releases the job
// id.
type Sub struct {
	m      *Mux
	job    uint64
	ranks  []int       // job rank -> real rank
	ofReal map[int]int // real rank -> job rank

	started atomic.Bool
	closed  atomic.Bool

	cbMu    sync.Mutex
	handler Handler
	onPeer  PeerFunc
}

// Size is the job's world size.
func (s *Sub) Size() int { return len(s.ranks) }

// Local reports whether job rank r is hosted by this process.
func (s *Sub) Local(r int) bool {
	if r < 0 || r >= len(s.ranks) {
		return false
	}
	return s.m.real.Local(s.ranks[r])
}

// Wallclock mirrors the underlying transport.
func (s *Sub) Wallclock() bool { return s.m.real.Wallclock() }

func (s *Sub) startedLoad() bool { return s.started.Load() }

// Start registers the job world's delivery handler and liveness callback
// with the mux, flushes any frames that arrived early, and replays
// already-observed failures of mesh ranks this job is mapped onto.  The
// underlying transport must already be started (Mux.Start).
func (s *Sub) Start(deliver Handler, peer PeerFunc) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.cbMu.Lock()
	s.handler = deliver
	s.onPeer = peer
	s.cbMu.Unlock()
	if s.started.Swap(true) {
		return fmt.Errorf("transport: job %d sub already started", s.job)
	}
	m := s.m
	m.mu.Lock()
	held := m.held[s.job]
	delete(m.held, s.job)
	for _, hf := range held {
		m.heldLen -= len(hf.payload)
	}
	var dead []int
	for jr, rr := range s.ranks {
		if rr < len(m.downed) && m.downed[rr] {
			dead = append(dead, jr)
		}
	}
	m.mu.Unlock()
	for _, hf := range held {
		s.deliver(hf.to, hf.hdr, hf.payload)
	}
	if peer != nil {
		for _, jr := range dead {
			peer(jr, false)
		}
	}
	return nil
}

// Send stamps the job id and forwards to the mesh rank behind job rank
// to.  The header travels otherwise verbatim: Src/WSrc are already
// job-relative on both sides, so no translation is needed.
func (s *Sub) Send(to int, hdr Header, payload []byte) error {
	if s.closed.Load() {
		datatype.PutBuffer(payload)
		return ErrClosed
	}
	if to < 0 || to >= len(s.ranks) {
		datatype.PutBuffer(payload)
		return fmt.Errorf("transport: job %d rank %d out of range [0,%d)", s.job, to, len(s.ranks))
	}
	hdr.Job = s.job
	return s.m.real.Send(s.ranks[to], hdr, payload)
}

// SetEpoch forwards an epoch raise to the mesh (raise-only there, so
// concurrent jobs cannot regress each other).
func (s *Sub) SetEpoch(e uint64) {
	if et, ok := s.m.real.(interface{ SetEpoch(uint64) }); ok {
		et.SetEpoch(e)
	}
}

// Close releases the job id from the mux.  The mesh stays up.
func (s *Sub) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.m.release(s.job)
	return nil
}

func (s *Sub) deliver(to int, hdr Header, payload []byte) {
	jobTo, ok := s.ofReal[to]
	if !ok {
		// A frame for a mesh rank this job does not span — only possible
		// on a transport hosting several local ranks (inproc).
		s.m.jobDropped.Add(1)
		datatype.PutBuffer(payload)
		return
	}
	s.cbMu.Lock()
	h := s.handler
	s.cbMu.Unlock()
	if h == nil {
		s.m.jobDropped.Add(1)
		datatype.PutBuffer(payload)
		return
	}
	h(jobTo, hdr, payload)
}

// peer translates a mesh rank's liveness change to the job's numbering.
// A death reaches only a started Sub: one still starting replays it from
// the mux's downed view instead.
func (s *Sub) peer(realRank int, up bool) {
	jr, ok := s.ofReal[realRank]
	if !ok || (!up && !s.started.Load()) {
		return
	}
	s.cbMu.Lock()
	f := s.onPeer
	s.cbMu.Unlock()
	if f != nil {
		f(jr, up)
	}
}
