package mpi

import (
	"strconv"

	"nccd/internal/obs"
)

// Span attribute keys carrying the cross-rank matching identity.  A send
// span's (Rank, to, ctx, mseq) equals its recv span's (from, Rank, ctx,
// mseq); internal/obs/analyze pairs them into message edges.  "wait" holds
// the receiver's blocked seconds, "rdvz" the sender's rendezvous stall.
const (
	AttrTo   = "to"   // send: destination world rank
	AttrFrom = "from" // recv: source world rank
	AttrCtx  = "ctx"  // communicator context id, hex
	AttrMSeq = "mseq" // per-(src,dst) message sequence, decimal
	AttrWait = "wait" // recv: blocked seconds (virtual or wall, by world mode)
	AttrRdvz = "rdvz" // send: seconds blocked draining the wire (rendezvous)
)

func formatSec(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// EnableTrace starts recording spans.  Tracing costs bounded memory (each
// rank's lane is a fixed-capacity ring; see obs).  Safe at any time, but
// spans of operations already in flight are not recorded retroactively.
func (w *World) EnableTrace() { w.tracer.Enable() }

// DisableTrace stops recording (existing spans are kept).
func (w *World) DisableTrace() { w.tracer.Disable() }

// ClearTrace drops all recorded spans.  Like reading them (Tracer().Spans()),
// it is safe while a wall-clock transport is still delivering: recording and
// draining share the obs ring-buffer locks, so a concurrent Emit either lands
// before the clear (and is dropped) or after (and is kept) — never torn.
func (w *World) ClearTrace() { w.tracer.Clear() }

// record traces a span of the rank's own timeline (compute, skew) from
// start to the current clock, if tracing is on.
func (p *proc) record(kind string, start float64) {
	if !p.tracer.Enabled() {
		return
	}
	p.tracer.Emit(obs.Span{Rank: p.rank, Kind: kind, Peer: -1,
		Start: start, End: p.clock, Clock: obs.ClockVirtual})
}

// recordSend traces a send, from start to the current clock, with its
// matching identity attributes.  rdvzSec, when positive, records how long the
// sender sat blocked in the rendezvous protocol waiting for the wire to drain.
func (p *proc) recordSend(peer, tag, bytes int, start float64, ctx uint64, dstWorld int, mseq uint64, rdvzSec float64) {
	if !p.tracer.Enabled() {
		return
	}
	attrs := []obs.Attr{
		{Key: AttrTo, Val: strconv.Itoa(dstWorld)},
		{Key: AttrCtx, Val: strconv.FormatUint(ctx, 16)},
		{Key: AttrMSeq, Val: strconv.FormatUint(mseq, 10)},
	}
	if rdvzSec > 0 {
		attrs = append(attrs, obs.Attr{Key: AttrRdvz, Val: formatSec(rdvzSec)})
	}
	p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "send", Peer: peer, Tag: tag,
		Bytes: int64(bytes), Start: start, End: p.clock, Clock: obs.ClockVirtual, Attrs: attrs})
}

// recordRecv traces a receive, from start to the current clock, with its
// matching identity and the seconds the receiver spent blocked before the
// message was available.
func (p *proc) recordRecv(peer, tag, bytes int, start float64, ctx uint64, srcWorld int, mseq uint64, waitSec float64) {
	if !p.tracer.Enabled() {
		return
	}
	attrs := []obs.Attr{
		{Key: AttrFrom, Val: strconv.Itoa(srcWorld)},
		{Key: AttrCtx, Val: strconv.FormatUint(ctx, 16)},
		{Key: AttrMSeq, Val: strconv.FormatUint(mseq, 10)},
	}
	if waitSec > 0 {
		attrs = append(attrs, obs.Attr{Key: AttrWait, Val: formatSec(waitSec)})
	}
	p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "recv", Peer: peer, Tag: tag,
		Bytes: int64(bytes), Start: start, End: p.clock, Clock: obs.ClockVirtual, Attrs: attrs})
}
