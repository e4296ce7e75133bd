package transport

import (
	"fmt"
	"sync/atomic"

	"nccd/internal/datatype"
	"nccd/internal/obs"
)

// Hierarchical is a mixed-transport world: every peer is routed by the
// node map — co-located ranks over the intra transport (shared memory),
// remote ranks over the inter transport (TCP).  The wrapper is a pure
// router; framing, heartbeats and epochs all live in the wrapped
// endpoints, and reliability above them in the runtime.  Liveness reports
// are filtered per peer so each rank's liveness is judged only by the
// transport that actually carries its traffic: the TCP mesh still connects
// co-located ranks (it ignores the node map), and its failure detector
// racing the shared-memory one for the same peer would otherwise report a
// rank up before the route that matters is ready.
type Hierarchical struct {
	self   int
	nodeOf []int
	intra  Transport // nil when this rank's node has no co-located peers
	inter  Transport

	closed atomic.Bool
}

// NewHierarchical builds the router for the rank self.  nodeOf assigns a
// node id to every world rank; intra may be nil when self's node holds
// only itself.  Both wrapped transports must span the same world size.
func NewHierarchical(self int, nodeOf []int, intra, inter Transport) (*Hierarchical, error) {
	if inter == nil {
		return nil, fmt.Errorf("transport: hierarchical requires an inter-node transport")
	}
	if len(nodeOf) != inter.Size() {
		return nil, fmt.Errorf("transport: node map for %d ranks, inter transport for %d", len(nodeOf), inter.Size())
	}
	if self < 0 || self >= len(nodeOf) {
		return nil, fmt.Errorf("transport: rank %d out of range for %d ranks", self, len(nodeOf))
	}
	if intra != nil && intra.Size() != inter.Size() {
		return nil, fmt.Errorf("transport: intra transport sized %d, inter %d", intra.Size(), inter.Size())
	}
	return &Hierarchical{self: self, nodeOf: append([]int(nil), nodeOf...), intra: intra, inter: inter}, nil
}

// Size returns the world size.
func (h *Hierarchical) Size() int { return len(h.nodeOf) }

// Local reports whether r is the hosted rank.  Co-located ranks are
// peers, not locals: each lives in its own process (or its own World).
func (h *Hierarchical) Local(r int) bool { return r == h.self }

// Wallclock reports true: both constituent transports run in real time.
func (h *Hierarchical) Wallclock() bool { return true }

// sameNode reports whether rank r is co-located with self.
func (h *Hierarchical) sameNode(r int) bool { return h.nodeOf[r] == h.nodeOf[h.self] }

// route picks the transport that carries traffic to rank r.
func (h *Hierarchical) route(r int) Transport {
	if h.intra != nil && h.sameNode(r) {
		return h.intra
	}
	return h.inter
}

// Start starts both wrapped transports, fanning inbound frames from
// either into the one handler and filtering liveness reports so only the
// routing transport may declare a peer down or back up.
func (h *Hierarchical) Start(deliver Handler, peer PeerFunc) error {
	filter := func(routes func(r int) bool) PeerFunc {
		return func(r int, up bool) {
			if peer != nil && routes(r) {
				peer(r, up)
			}
		}
	}
	if h.intra != nil {
		if err := h.intra.Start(deliver, filter(func(r int) bool { return r != h.self && h.sameNode(r) })); err != nil {
			return err
		}
	}
	if err := h.inter.Start(deliver, filter(func(r int) bool { return !h.sameNode(r) })); err != nil {
		if h.intra != nil {
			h.intra.Close()
		}
		return err
	}
	return nil
}

// Send routes one framed message by the node map.
func (h *Hierarchical) Send(to int, hdr Header, payload []byte) error {
	if to < 0 || to >= len(h.nodeOf) {
		datatype.PutBuffer(payload)
		return fmt.Errorf("transport: rank %d out of range [0,%d)", to, len(h.nodeOf))
	}
	return h.route(to).Send(to, hdr, payload)
}

// SetTracer forwards the span recorder to both endpoints.
func (h *Hierarchical) SetTracer(tr *obs.Tracer) {
	type tracered interface{ SetTracer(*obs.Tracer) }
	if t, ok := h.inter.(tracered); ok {
		t.SetTracer(tr)
	}
	if t, ok := h.intra.(tracered); ok {
		t.SetTracer(tr)
	}
}

// SetEpoch raises the membership epoch on both endpoints.
func (h *Hierarchical) SetEpoch(e uint64) {
	type epocher interface{ SetEpoch(uint64) }
	if t, ok := h.inter.(epocher); ok {
		t.SetEpoch(e)
	}
	if t, ok := h.intra.(epocher); ok {
		t.SetEpoch(e)
	}
}

// Close closes both endpoints and reports the first error.
func (h *Hierarchical) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if h.intra != nil {
		err = h.intra.Close()
	}
	if cerr := h.inter.Close(); err == nil {
		err = cerr
	}
	return err
}
