package shm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"nccd/internal/datatype"
	"nccd/internal/transport"
)

// ring is one directed lock-free SPSC byte ring inside a segment.  The
// cursors are monotonic byte counts — head is owned by the single
// consumer, tail by the single producer — and positions wrap modulo the
// power-of-two capacity only at access time, so full (tail-head == cap)
// and empty (tail == head) never alias.
//
// A record is
//
//	[4] body length — uint32 LE, header + payload byte count
//	[…] body        — canonical transport.Header encoding, then payload
//
// The producer writes the record bytes with plain stores and publishes
// them with a release store of tail; the consumer acquires tail, copies
// the record out, and releases the space with a store of head.  Those two
// atomics are the entire synchronization protocol — they order the plain
// byte copies for both the hardware and the race detector, and a torn
// record is impossible: bytes beyond the published tail do not exist to
// the consumer.
type ring struct {
	head *atomic.Uint64
	tail *atomic.Uint64
	data []byte
	mask uint64
}

const recPrefixLen = 4

// recordBytes returns the ring footprint of a payload of n bytes.
func recordBytes(n int) int { return recPrefixLen + transport.HeaderLen + n }

func (r *ring) cap() uint64 { return uint64(len(r.data)) }

// free returns the space available to the producer right now.
func (r *ring) free() uint64 { return r.cap() - (r.tail.Load() - r.head.Load()) }

// used returns the bytes available to the consumer right now.
func (r *ring) used() uint64 { return r.tail.Load() - r.head.Load() }

// copyIn writes b at monotonic position pos, wrapping at the boundary,
// and returns the advanced position.
func (r *ring) copyIn(pos uint64, b []byte) uint64 {
	off := int(pos & r.mask)
	n := copy(r.data[off:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
	return pos + uint64(len(b))
}

// copyOut reads len(b) bytes from monotonic position pos into b.
func (r *ring) copyOut(pos uint64, b []byte) uint64 {
	off := int(pos & r.mask)
	n := copy(b, r.data[off:])
	if n < len(b) {
		copy(b[n:], r.data)
	}
	return pos + uint64(len(b))
}

// tryPush publishes one record of hdr and payload.  It returns false
// without side effects when the ring lacks space — backpressure is the
// caller's loop.
func (r *ring) tryPush(hdr *transport.Header, payload []byte) bool {
	need := uint64(recordBytes(len(payload)))
	if need > r.cap() {
		panic(fmt.Sprintf("shm: %d-byte record exceeds ring capacity %d", need, r.cap()))
	}
	if r.free() < need {
		return false
	}
	pos := r.tail.Load()
	var head [recPrefixLen + transport.HeaderLen]byte
	binary.LittleEndian.PutUint32(head[:], uint32(transport.HeaderLen+len(payload)))
	transport.AppendHeader(head[:recPrefixLen], hdr)
	pos = r.copyIn(pos, head[:])
	pos = r.copyIn(pos, payload)
	r.tail.Store(pos) // release: the record becomes visible here
	return true
}

// tryPop consumes one record.  The payload is returned in a pooled buffer
// the caller owns; ok is false on an empty ring.  err reports a
// structurally impossible record — a corrupted segment — with the ring
// left untouched.
func (r *ring) tryPop(maxFrame int) (hdr transport.Header, payload []byte, ok bool, err error) {
	avail := r.used() // acquire: everything below tail is visible
	if avail == 0 {
		return hdr, nil, false, nil
	}
	pos := r.head.Load()
	var pfx [recPrefixLen]byte
	r.copyOut(pos, pfx[:])
	body := int(binary.LittleEndian.Uint32(pfx[:]))
	if body < transport.HeaderLen || body > maxFrame+transport.HeaderLen {
		return hdr, nil, false, fmt.Errorf("shm: corrupt ring record length %d", body)
	}
	if avail < uint64(recPrefixLen+body) {
		// The producer's tail store makes records visible whole; a partial
		// record here means the cursors themselves are damaged.
		return hdr, nil, false, fmt.Errorf("shm: ring holds %d of %d record bytes", avail, recPrefixLen+body)
	}
	var hb [transport.HeaderLen]byte
	p := r.copyOut(pos+recPrefixLen, hb[:])
	hdr = transport.DecodeHeader(hb[:])
	n := body - transport.HeaderLen
	payload = datatype.GetBuffer(n)
	r.copyOut(p, payload)
	r.head.Store(pos + uint64(recPrefixLen+body)) // release the space
	return hdr, payload, true, nil
}

// drain discards everything published so far — the fresh-connection
// semantics of a re-attach: the consumer owns head, so snapping it to
// tail atomically abandons the backlog.  Returns the bytes dropped.
func (r *ring) drain() uint64 {
	pos := r.head.Load()
	end := r.tail.Load()
	r.head.Store(end)
	return end - pos
}
