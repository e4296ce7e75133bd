// Package transport is the seam between the message-passing runtime in
// internal/mpi and whatever actually carries its bytes.  The runtime above
// speaks in framed messages — a fixed Header of routing and reliability
// metadata plus a payload, always an owned pooled buffer — and the
// transport below decides what a frame crosses: a function call inside one
// process (Inproc, virtual-time semantics preserved exactly), a TCP socket
// between OS processes (TCP: length-prefixed framing, a CRC-32 trailer, one
// pooled connection per peer pair), or a shared-memory ring between
// co-located processes (transport/shm).  None of them retransmits: loss,
// duplication and damage are the runtime's, whose sequence/CRC/dedup loop
// rides in the Header on every transport.
// Hierarchical routes per peer between two of those, and Mux runs many
// independent rank worlds over one started mesh.
package transport

import (
	"errors"
	"strconv"

	"nccd/internal/obs"
)

// IdentAttrs extends attrs with the cross-rank matching identity carried in
// hdr — the communicator context (hex) and the per-(src,dst) message
// sequence (decimal) — so a transport-level span can be correlated with the
// mpi-level send/recv spans it carried.  Frames without an identity (MSeq
// 0: control traffic such as goodbyes and revocations) pass attrs through
// unchanged.
func IdentAttrs(hdr Header, attrs ...obs.Attr) []obs.Attr {
	if hdr.MSeq == 0 {
		return attrs
	}
	return append(attrs,
		obs.Attr{Key: "ctx", Val: strconv.FormatUint(hdr.Ctx, 16)},
		obs.Attr{Key: "mseq", Val: strconv.FormatUint(hdr.MSeq, 10)})
}

// Header is the runtime metadata that travels with every message.  The
// fields mirror internal/mpi's envelope: routing (communicator context,
// sender comm rank, tag), the virtual-time arrival stamp used by the inproc
// transport, and the fields of the mpi layer's loss/ack/dedup protocol
// (Reliable..Sum), set when the cluster's fault plan is lossy.  Every
// transport carries the header verbatim.
type Header struct {
	// Ctx is the communicator context id; a few values at the top of the
	// space are reserved by internal/mpi for control messages (goodbye,
	// revoke) that never reach a mailbox.
	Ctx uint64
	// Src is the sender's rank within the communicator.
	Src int32
	// Tag is the message tag.
	Tag int32
	// Arrival is the virtual time at which the payload is fully available
	// (inproc semantics; wall-clock receivers ignore it).
	Arrival float64
	// Reliable marks an envelope of the mpi layer's loss/ack/dedup
	// protocol; WSrc/Seq/Sum are its world-rank, sequence and CRC-32 fields.
	Reliable bool
	WSrc     int32
	Seq      uint64
	Sum      uint32
	// MSeq is the sender-assigned per-(source,destination) message sequence
	// number used by the observability layer to match a send span to its
	// receive span across ranks.  It is carried on every data frame and has
	// no protocol meaning: retransmitted copies of one logical message share
	// one MSeq.
	MSeq uint64
	// Job namespaces the frame when several independent rank worlds share
	// one physical mesh (the Mux).  Zero means "not multiplexed" — the
	// single-world daemons never set it.  A Mux sub-transport stamps its
	// job id on every outbound frame and the receiving Mux routes on it, so
	// two jobs' frames can carry identical context ids without ever seeing
	// each other.  The (Job, Ctx) pair is the effective communicator
	// namespace.
	Job uint64
}

// Handler consumes one inbound message addressed to local rank to.  The
// payload is owned by the handler: transports either pass the sender's
// buffer by reference (inproc, self-sends) or hand over a freshly pooled
// buffer (sockets), and the mpi receive path returns it to the shared
// datatype buffer pool once consumed.
type Handler func(to int, hdr Header, payload []byte)

// PeerFunc is the liveness callback a transport is started with.  up=false:
// the transport observed that rank can no longer communicate (connection
// loss, a damaged stream, a heartbeat hard failure).  up=true: a previously
// failed rank came back (a respawned process rejoining the mesh); the
// runtime above decides when to re-admit it.  Clean departures are
// announced by the runtime itself, so PeerFunc only reports what is
// detected below it.
type PeerFunc func(rank int, up bool)

// The failure detectors' thresholds, in heartbeat intervals of silence (no
// frame or beat of any kind from the peer).  Suspicion is recoverable and
// interrupts nothing: the detector counts it in its Stats and traces it as
// a "suspect" span.  Hard failure reports the peer down exactly as if its
// connection had closed, which is how a hung process, unlike a crashed
// one, is caught.
const (
	SuspectAfter = 3
	FailAfter    = 9
)

// Transport moves framed messages between the ranks of one world.
type Transport interface {
	// Size is the world size.
	Size() int
	// Local reports whether rank r is hosted by this process.
	Local(r int) bool
	// Start connects the transport (dialing/accepting peers for networked
	// implementations) and registers the inbound delivery handler and the
	// liveness callback (nil to ignore liveness).  It must be called
	// exactly once, before Send.
	Start(deliver Handler, peer PeerFunc) error
	// Send delivers hdr+payload to rank to.  Ownership of payload passes to
	// the transport: it is either delivered by reference to the receiving
	// handler or written to the wire and returned to the shared buffer
	// pool.
	Send(to int, hdr Header, payload []byte) error
	// Wallclock reports whether the transport runs in wall-clock mode
	// (real sockets, no cross-rank virtual-time coupling) rather than the
	// deterministic virtual-time mode of the in-process path.
	Wallclock() bool
	// Close tears the transport down; in-flight receives fail.
	Close() error
}

// Typed transport errors.  The mpi layer reports a failed send as
// ErrRankFailed.
var (
	// ErrPeerDown reports that the destination rank's connection is gone.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrClosed reports use of a transport after Close.
	ErrClosed = errors.New("transport: closed")
)

// PeerDownError carries the unreachable rank.  It wraps ErrPeerDown.
type PeerDownError struct{ Rank int }

func (e *PeerDownError) Error() string { return "transport: peer rank down" }
func (e *PeerDownError) Unwrap() error { return ErrPeerDown }
