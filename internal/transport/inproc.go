package transport

import (
	"fmt"

	"nccd/internal/datatype"
)

// Inproc is the original in-process path refactored behind the Transport
// interface: every rank lives in this process, and Send is a synchronous
// deposit — the destination's handler runs on the sender's goroutine, with
// the payload passed by reference, exactly as the runtime's mailbox
// delivery always worked.  Virtual-time semantics (the Arrival stamp, the
// mpi layer's own fault simulation riding in the Header's reliability
// fields) pass through untouched, so worlds on this transport behave
// bit-for-bit like they did before the seam existed.
type Inproc struct {
	n       int
	deliver Handler
}

// NewInproc returns an in-process transport hosting n ranks.
func NewInproc(n int) *Inproc {
	if n < 1 {
		panic("transport: inproc world must have at least one rank")
	}
	return &Inproc{n: n}
}

// Size returns the world size.
func (t *Inproc) Size() int { return t.n }

// Local reports true for every rank: all of them live here.
func (t *Inproc) Local(r int) bool { return true }

// Wallclock reports false: this transport preserves virtual-time semantics.
func (t *Inproc) Wallclock() bool { return false }

// Start registers the delivery handler.  The liveness callback is unused:
// rank lifecycle is tracked above the transport in this mode.
func (t *Inproc) Start(deliver Handler, _ PeerFunc) error {
	if t.deliver != nil {
		return fmt.Errorf("transport: inproc already started")
	}
	t.deliver = deliver
	return nil
}

// Send deposits the message synchronously into rank to's handler.  The
// payload is shared by reference; the receiver owns it afterwards.
func (t *Inproc) Send(to int, hdr Header, payload []byte) error {
	if to < 0 || to >= t.n {
		// Ownership passed at the call: recycle before erroring out.
		datatype.PutBuffer(payload)
		return fmt.Errorf("transport: rank %d out of range [0,%d)", to, t.n)
	}
	t.deliver(to, hdr, payload)
	return nil
}

// Close is a no-op.
func (t *Inproc) Close() error { return nil }
