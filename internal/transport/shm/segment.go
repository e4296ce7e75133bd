// Package shm is the intra-node transport: a shared memory segment —
// memory-mapped for co-located processes, a plain shared slice for
// in-process worlds — carved into one lock-free SPSC ring per directed
// peer pair, plus a presence table the failure detector reads instead of
// heartbeat frames.  It implements the same framed send/recv contract as
// the inproc and TCP transports, including the membership-epoch fencing the
// self-healing layer relies on.
package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"
	"unsafe"
)

// Segment geometry.  Every block is 64-byte aligned so the cursor words
// live on their own cache lines and the cross-process atomics are
// naturally aligned.
//
//	[64]  segment header: magic/state, world id, group size, ring capacity
//	[64]×m  presence slots: attach generation, epoch, heartbeat stamp, pid, doorbell
//	[128+cap]×m(m-1)  rings: head line, tail line, power-of-two data area
//
// A zeroed segment is a valid initial state: generation 0 means "never
// attached", and head == tail == 0 is an empty ring.  The first attacher
// claims the header with a compare-and-swap on the magic word and
// publishes the geometry; everyone else spins until the magic reads
// ready, then validates.
const (
	segHdrLen    = 64
	presenceLen  = 64
	ringHdrLen   = 128 // head cursor line + tail cursor line
	segMagicInit = 1
	segMagic     = 0x6e63636453484d31 // "nccdShM1"

	offWorldID = 8
	offGroup   = 16
	offRingCap = 20

	offAgen  = 0
	offEpoch = 8
	offBeat  = 16
	offPid   = 24
	// offDoor is the member's doorbell gate: its ring consumer stores 1
	// before parking, and a producer that swaps it back to 0 after
	// publishing a record knocks on the member's bell (see doorbell.go).
	offDoor = 32

	offHead = 0
	offTail = 64
)

// Layout returns the byte size of a segment for a group of m ranks with
// the given per-ring data capacity (must be a power of two).
func Layout(m, ringCap int) int {
	return segHdrLen + m*presenceLen + m*(m-1)*(ringHdrLen+ringCap)
}

// Segment is an attached shared memory region.  The zero value is not
// usable; construct with NewMemSegment or OpenFileSegment.
type Segment struct {
	b       []byte
	m       int
	ringCap int
	f       *os.File // nil for in-process segments
	mapped  bool
	// doors carries the in-process doorbells (one per member); nil for
	// file-backed segments, whose members park on FIFOs instead.
	doors []chan struct{}
}

func u64at(b []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&b[off]))
}

func i64at(b []byte, off int) *atomic.Int64 {
	return (*atomic.Int64)(unsafe.Pointer(&b[off]))
}

func u32at(b []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&b[off]))
}

func checkGeometry(m, ringCap int) error {
	if m < 1 {
		return fmt.Errorf("shm: group size %d", m)
	}
	if ringCap < 1024 || ringCap&(ringCap-1) != 0 {
		return fmt.Errorf("shm: ring capacity %d not a power of two >= 1024", ringCap)
	}
	return nil
}

// NewMemSegment builds an in-process segment backed by an ordinary
// (64-bit-aligned) slice — the shared-slice mode used by single-process
// worlds, tests, and benchmarks.  Multiple Transport values in one process
// share the one Segment.
func NewMemSegment(m, ringCap int, worldID uint64) (*Segment, error) {
	if err := checkGeometry(m, ringCap); err != nil {
		return nil, err
	}
	n := Layout(m, ringCap)
	words := make([]uint64, (n+7)/8) // uint64 backing guarantees alignment
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
	s := &Segment{b: b, m: m, ringCap: ringCap, doors: make([]chan struct{}, m)}
	for i := range s.doors {
		s.doors[i] = make(chan struct{}, 1)
	}
	s.initHeader(worldID)
	return s, nil
}

// OpenFileSegment creates or attaches the file-backed segment at path for
// a group of m ranks.  Creation is idempotent: every member opens with
// O_CREATE and extends the file to the same size; the zero-filled pages a
// fresh file maps to are the valid empty state, and the header handshake
// below picks one initializer among racing attachers.
func OpenFileSegment(path string, m, ringCap int, worldID uint64) (*Segment, error) {
	if err := checkGeometry(m, ringCap); err != nil {
		return nil, err
	}
	n := Layout(m, ringCap)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shm: open segment: %w", err)
	}
	if err := f.Truncate(int64(n)); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: size segment: %w", err)
	}
	b, err := mapShared(f, n)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Segment{b: b, m: m, ringCap: ringCap, f: f, mapped: true}
	if err := s.handshake(worldID); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// initHeader publishes the geometry unconditionally (single-initializer
// paths: in-process segments).
func (s *Segment) initHeader(worldID uint64) {
	binary.LittleEndian.PutUint64(s.b[offWorldID:], worldID)
	binary.LittleEndian.PutUint32(s.b[offGroup:], uint32(s.m))
	binary.LittleEndian.PutUint32(s.b[offRingCap:], uint32(s.ringCap))
	u64at(s.b, 0).Store(segMagic)
}

// handshake elects an initializer among concurrently attaching members
// and validates the published geometry against the caller's expectation.
func (s *Segment) handshake(worldID uint64) error {
	magic := u64at(s.b, 0)
	if magic.CompareAndSwap(0, segMagicInit) {
		s.initHeader(worldID)
		return nil
	}
	deadline := time.Now().Add(attachTimeout)
	for magic.Load() != segMagic {
		if time.Now().After(deadline) {
			return fmt.Errorf("shm: segment header never initialized")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if got := binary.LittleEndian.Uint64(s.b[offWorldID:]); got != worldID {
		return fmt.Errorf("shm: segment world id %#x, want %#x", got, worldID)
	}
	if got := int(binary.LittleEndian.Uint32(s.b[offGroup:])); got != s.m {
		return fmt.Errorf("shm: segment group size %d, want %d", got, s.m)
	}
	if got := int(binary.LittleEndian.Uint32(s.b[offRingCap:])); got != s.ringCap {
		return fmt.Errorf("shm: segment ring capacity %d, want %d", got, s.ringCap)
	}
	return nil
}

// Close unmaps a file-backed segment.  The file itself is left for the
// launcher to remove with its scratch directory — a replacement for a
// killed rank re-attaches to the same rings.
func (s *Segment) Close() error {
	var err error
	if s.mapped {
		err = unmapShared(s.b)
		s.mapped = false
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// presence returns the byte offset of group member i's presence slot.
func (s *Segment) presence(i int) int { return segHdrLen + i*presenceLen }

// ringOff returns the byte offset of the directed ring src→dst (group
// indices, src != dst).
func (s *Segment) ringOff(src, dst int) int {
	k := dst
	if dst > src {
		k--
	}
	idx := src*(s.m-1) + k
	return segHdrLen + s.m*presenceLen + idx*(ringHdrLen+s.ringCap)
}

// ring builds the SPSC ring view for the directed pair src→dst.
func (s *Segment) ring(src, dst int) *ring {
	off := s.ringOff(src, dst)
	return &ring{
		head: u64at(s.b, off+offHead),
		tail: u64at(s.b, off+offTail),
		data: s.b[off+ringHdrLen : off+ringHdrLen+s.ringCap],
		mask: uint64(s.ringCap - 1),
	}
}
