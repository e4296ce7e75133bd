package mpi

import (
	"errors"
	"hash/crc32"
	"math"
	"strconv"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/transport"
)

// The reliability layer, the one loss/ack/dedup protocol of the runtime on
// every transport.  When the cluster carries a FaultPlan with link faults,
// every non-local message travels with a sequence number and a CRC-32
// checksum, and the sender runs an ack/retransmission protocol: each failed
// attempt (dropped on the wire, or delivered but rejected by the receiver's
// checksum) costs the sender one ack timeout of virtual time — exponentially
// backed off — before the retransmission.  The protocol outcome is decided
// at the sender from the deterministic fault plan (the ack messages
// themselves are modeled, not delivered), but the receiver-side defenses
// are real on any transport that keeps one sender's messages in order:
// corrupted copies are genuinely delivered and rejected by checksum,
// duplicated copies are genuinely delivered and rejected by sequence-number
// dedup.  A clean run with faults disabled takes the short path.

// maybeCrash kills the rank if its scheduled FaultPlan crash time has
// arrived.  Called at operation boundaries, where the virtual clock moves.
func (c *Comm) maybeCrash() {
	p := c.me
	if p.clock >= p.crashAt {
		p.crashAt = math.Inf(1)
		c.w.setState(p.rank, stateDead)
		panic(crashPanic{rank: p.rank})
	}
}

// callOr returns the operation name for diagnostics.
func (c *Comm) callOr(def string) string {
	if c.me.call != "" {
		return c.me.call
	}
	return def
}

// dispatch hands m to the transport for comm rank dst with the given base
// arrival time, applying the fault plan and the reliability protocol.
// wireSec is the payload's wire serialization time, used to re-derive
// arrival times for retransmissions.  It raises ErrRevoked on a revoked
// communicator, ErrRankFailed if dst is down and ErrTimeout if the retry
// budget is exhausted.  The returned value is the message's observability
// sequence number (see proc.msgSeq), which the caller attaches to its send
// span for cross-rank matching.
func (c *Comm) dispatch(dst, tag int, m outMsg, arrival, wireSec float64) uint64 {
	w := c.w
	wire := m.wire
	worldDst := c.worldRank(dst)
	mMsgBytes.Observe(int64(m.bytes))
	// dispatch owns wire; the throw paths below abandon the send, so they
	// must recycle it or every revoked/failed-peer send leaks a pooled
	// buffer.
	if w.isRevoked(c.ctx) {
		datatype.PutBuffer(wire)
		throwErr(&RevokedError{Call: c.callOr("Send")})
	}
	// Sending to a failed rank raises; sending to a cleanly exited rank
	// keeps the old fire-and-forget semantics (the message is discarded
	// with the mailbox, like an eager send the receiver never matched).
	if dst != c.rank && w.anyDown.Load() && w.deadRank(worldDst) {
		datatype.PutBuffer(wire)
		throwErr(&RankFailedError{Rank: worldDst, Call: c.callOr("Send")})
	}
	p := c.me
	p.msgSeq[worldDst]++
	mseq := p.msgSeq[worldDst]
	w.matrix.addSend(p.rank, worldDst, int64(m.bytes))
	hdr := transport.Header{Ctx: c.ctx, Src: int32(c.rank), Tag: int32(tag), Arrival: arrival,
		WSrc: int32(p.rank), MSeq: mseq}
	fp := w.cluster.Faults
	if dst == c.rank || !fp.Lossy() {
		// Nothing to model: a self-send or a clean link loses nothing.
		c.transmit(worldDst, hdr, wire)
		return mseq
	}

	hdr.Reliable, hdr.Seq, hdr.Sum = true, p.sendSeq[worldDst], crc32.ChecksumIEEE(wire)
	p.sendSeq[worldDst]++
	timeout := ackTimeout
	lat := w.cluster.Latency
	for attempt := 0; ; attempt++ {
		drop, dup, corrupt, delay := fp.Attempt(p.rank, worldDst, hdr.Seq, attempt)
		if corrupt && len(wire) == 0 {
			// An empty payload has no bytes to damage; treat as loss.
			drop, corrupt = true, false
		}
		hdr.Arrival = arrival + delay
		if w.wall && delay > 0 {
			// On real links the drawn delay is real time.
			time.Sleep(time.Duration(delay * float64(time.Second)))
		}
		if corrupt && !drop {
			bad := copyImage(wire)
			bad[fp.CorruptByte(p.rank, worldDst, hdr.Seq, attempt, len(bad))] ^= 0xFF
			c.transmit(worldDst, hdr, bad)
			p.stats.CorruptSent++
		}
		if !drop && !corrupt {
			var again []byte
			if dup {
				again = copyImage(wire) // before Send takes wire
			}
			c.transmit(worldDst, hdr, wire)
			if dup {
				hdr.Arrival += lat
				c.transmit(worldDst, hdr, again)
				p.stats.DupsSent++
			}
			return mseq
		}
		if attempt+1 >= maxAttempts {
			datatype.PutBuffer(wire) // never delivered: only damaged copies went out
			throwErr(&TimeoutError{Rank: worldDst, Call: c.callOr("Send"), Attempts: attempt + 1})
		}
		// No ack: wait out the timeout, back off, retransmit from now.
		retransStart := p.clock
		p.clock += timeout
		p.stats.RetransSec += timeout
		p.stats.Retransmits++
		mRetransmits.Inc()
		w.matrix.addRetrans(p.rank, worldDst)
		if p.tracer.Enabled() {
			p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "retransmit", Peer: worldDst,
				Tag: tag, Bytes: int64(len(wire)), Start: retransStart, End: p.clock,
				Clock: obs.ClockVirtual,
				Attrs: []obs.Attr{{Key: "attempt", Val: strconv.Itoa(attempt + 1)}}})
		}
		timeout *= ackBackoff
		arrival = p.clock + wireSec + lat
	}
}

// transmit hands one copy of a message to the transport for world rank
// dst; ownership of data passes with it.  A transport that cannot reach dst
// fails the send with ErrRankFailed.
func (c *Comm) transmit(dst int, hdr transport.Header, data []byte) {
	if err := c.w.tr.Send(dst, hdr, data); err != nil {
		throwErr(&RankFailedError{Rank: dst, Call: c.callOr("Send")})
	}
}

// copyImage returns wire's bytes in a pooled buffer of their own: every
// copy handed to Send is owned by whoever receives it, and a rejected copy
// is recycled at delivery, so a duplicate or a damaged copy can never share
// the accepted message's buffer.
func copyImage(wire []byte) []byte {
	b := datatype.GetBuffer(len(wire))
	copy(b, wire)
	return b
}

// matchE blocks until a message for this communicator matching src/tag
// (wildcards allowed; src is a comm rank) arrives, and removes it.  wall,
// when positive, bounds the wall-clock wait (RecvDeadline).  It returns
// ErrRankFailed when the awaited peer — or, for AnySource, every peer — is
// down with no matching message queued, ErrTimeout when the deadline
// expires, and ErrDeadlock when the watchdog aborts the wait.
func (c *Comm) matchE(src, tag int, wall time.Duration) (*envelope, error) {
	p := c.me
	w := c.w
	worldSrc := -1
	if src != AnySource {
		worldSrc = c.worldRank(src)
	}
	call := c.callOr("Recv")

	p.mu.Lock()
	defer p.mu.Unlock()
	// The flag the timer sets exists only where there is a timer: a local
	// the escaping closure shared would be on the heap on every receive.
	var timedOut *bool
	if wall > 0 {
		fired := new(bool)
		timedOut = fired
		timer := time.AfterFunc(wall, func() {
			p.mu.Lock()
			*fired = true
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer timer.Stop()
	}
	// On wall-clock worlds the virtual clock cannot see a real blocked
	// receive (arrival stamps are foreign), so the block is measured here in
	// wall time when tracing is on; completeRecv turns it into the recv
	// span's wait attribute.
	measureFrom := -1.0
	for {
		if w.isRevoked(c.ctx) {
			p.wait = blockedWait{}
			return nil, &RevokedError{Call: call}
		}
		for i, env := range p.queue {
			if env.ctx == c.ctx && (src == AnySource || env.src == src) && (tag == AnyTag || env.tag == tag) {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				p.wait = blockedWait{}
				p.lastWaitSec = 0
				if measureFrom >= 0 {
					p.lastWaitSec = p.tracer.Now() - measureFrom
				}
				w.progress.Add(1)
				return env, nil
			}
		}
		if err := p.wait.err; err != nil {
			p.wait = blockedWait{}
			return nil, err
		}
		if timedOut != nil && *timedOut {
			p.wait = blockedWait{}
			return nil, &TimeoutError{Rank: worldSrc, Call: call}
		}
		if w.anyDown.Load() {
			if down := c.downPeer(worldSrc); down >= 0 {
				p.wait = blockedWait{}
				return nil, &RankFailedError{Rank: down, Call: call}
			}
		}
		p.wait = blockedWait{active: true, deadline: wall > 0, call: call,
			ctx: c.ctx, src: src, srcWorld: worldSrc, tag: tag}
		if measureFrom < 0 && w.wall && p.tracer.Enabled() {
			measureFrom = p.tracer.Now()
		}
		p.cond.Wait()
		p.wait.active = false
	}
}

// downPeer returns a down world rank that dooms a wait for worldSrc (-1 =
// AnySource), or -1 while the wait can still be satisfied.
func (c *Comm) downPeer(worldSrc int) int {
	if worldSrc >= 0 {
		if c.w.down(worldSrc) {
			return worldSrc
		}
		return -1
	}
	// AnySource is hopeless only once every other member is down.
	first := -1
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		wr := c.worldRank(r)
		if !c.w.down(wr) {
			return -1
		}
		if first < 0 {
			first = wr
		}
	}
	return first
}

// RecvDeadline is Recv with a failure bound: it returns ErrRankFailed as
// soon as the awaited peer is known to be down, and ErrTimeout if no
// matching message arrives within timeout seconds of wall-clock time (a
// non-positive timeout only checks the mailbox).  On timeout the virtual
// clock is charged the same timeout seconds of wait time.  On success it
// behaves exactly like Recv.
func (c *Comm) RecvDeadline(src, tag int, timeout float64) ([]byte, int, error) {
	if src != AnySource {
		c.checkPeer(src)
	}
	if tag != AnyTag {
		c.checkUserTag(tag)
	}
	c.me.call = "RecvDeadline"
	env, err := c.matchE(src, tag, max(time.Duration(timeout*float64(time.Second)), 1))
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			c.me.clock += timeout
			c.me.stats.WaitSec += timeout
		}
		return nil, -1, err
	}
	c.completeRecv(env)
	return env.data, env.src, nil
}

// collStart begins a collective operation: it names the call for watchdog
// and error diagnostics, fires any due injected crash, and injects the
// cluster's skew model.
func (c *Comm) collStart(name string) {
	c.me.call = name
	c.maybeCrash()
	c.skew()
}

// requireLive fails a collective fast — with ErrRankFailed naming the first
// failed member — instead of letting it hang on a peer that will never
// send.  Cleanly exited members don't trip it: a fast rank may finish its
// whole program (its collective contributions already queued) before a
// slow rank enters the collective.
func (c *Comm) requireLive() {
	if !c.w.anyDown.Load() {
		return
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		if wr := c.worldRank(r); c.w.deadRank(wr) {
			throwErr(&RankFailedError{Rank: wr, Call: c.callOr("collective")})
		}
	}
}
