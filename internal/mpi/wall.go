package mpi

import (
	"errors"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/transport"
)

// Wall-clock (multi-process) operation.  A World built on a wall-clock
// transport hosts only the ranks the transport reports as local — one per
// OS process for TCP — and everything that the in-process runtime resolved
// through shared memory travels as control frames instead: rank lifecycle
// (goodbye frames and connection-loss callbacks), revocation broadcasts,
// and Restore's message-based commit barrier.  The virtual clock still runs locally (so
// injected crashes and cost accounting work), but it no longer couples
// ranks: arrival stamps from remote clocks are ignored and the watchdog is
// force-disabled, real sockets having no global quiescence to observe.
//
// Reserved context ids at the top of the space carry the control traffic.
// splitmixCtx clears the top bit of every derived context, so user
// communicators can never collide with them.
const (
	// ctxGoodbye announces a local rank's departure: Src is the departing
	// world rank, Tag 1 for a clean exit, 0 for a failure.
	ctxGoodbye = ^uint64(0)
	// ctxRevoke broadcasts a communicator revocation: Seq is the revoked
	// context id.
	ctxRevoke = ^uint64(0) - 1
)

// Wallclock reports whether the world runs on a wall-clock transport
// (multi-process ranks over real sockets) rather than in virtual time.
func (w *World) Wallclock() bool { return w.wall }

// Transport returns the transport the world runs on.
func (w *World) Transport() transport.Transport { return w.tr }

// Close tears the world's transport down.  Only meaningful for wall-clock
// worlds, whose peers observe the departure; the in-process transport's
// Close is a no-op.
func (w *World) Close() error { return w.tr.Close() }

// onFrame is the transport delivery handler: control frames mutate world
// state, data frames become mailbox envelopes.
func (w *World) onFrame(to int, hdr transport.Header, payload []byte) {
	switch hdr.Ctx {
	case ctxGoodbye:
		datatype.PutBuffer(payload)
		target := stateDead
		if hdr.Tag == 1 {
			target = stateExited
		}
		if w.states[hdr.Src].CompareAndSwap(stateRunning, target) {
			w.noteDown()
		}
		return
	case ctxRevoke:
		datatype.PutBuffer(payload)
		w.revokeCtx(hdr.Seq)
		return
	}
	w.deliver(to, &envelope{ctx: hdr.Ctx, src: int(hdr.Src), tag: int(hdr.Tag), data: payload,
		arrival: hdr.Arrival, reliable: hdr.Reliable, wsrc: int(hdr.WSrc), seq: hdr.Seq, sum: hdr.Sum,
		mseq: hdr.MSeq})
}

// onPeerDown handles a transport failure report: an abrupt connection loss
// (no goodbye first) means the peer's process failed.
func (w *World) onPeerDown(r int) {
	// A death invalidates any standing rejoin-readiness: it referred to the
	// connection that just died, and Restore must wait for the next one.
	w.rejoinReady[r].Store(false)
	if w.states[r].CompareAndSwap(stateRunning, stateDead) {
		w.noteDown()
	}
}

// sayGoodbye announces every local rank's final state to the remote peers
// at the end of a wall-clock Run.  Best effort: an unreachable peer will
// observe the connection loss instead.
func (w *World) sayGoodbye() {
	n := len(w.procs)
	for l := 0; l < n; l++ {
		if !w.tr.Local(l) {
			continue
		}
		clean := int32(0)
		if w.states[l].Load() == stateExited {
			clean = 1
		}
		for r := 0; r < n; r++ {
			if w.tr.Local(r) {
				continue
			}
			_ = w.tr.Send(r, transport.Header{Ctx: ctxGoodbye, Src: int32(l), Tag: clean}, nil)
		}
	}
}

// trySendOK is a best-effort internal send: a peer that died mid-recovery
// must not abort the caller.  It reports whether the send went out: false
// means the peer was down (or its connection broke under the write) and the
// message died, so a recovery protocol knows to resend to the replacement.
// Injected crashes still propagate.
func (c *Comm) trySendOK(dst, tag int, data []byte) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok2 := p.(commPanic); ok2 {
				ok = false
				return
			}
			panic(p)
		}
	}()
	c.send(dst, tag, data)
	return true
}

// noteControlRecv traces the consumption of a commit-barrier message as an
// instant recv with matching identity, so the corresponding send span does
// not read as a lost message in the cross-rank analyzer.  The barrier
// bypasses completeRecv deliberately (no clock coupling), hence the
// dedicated hook.
func (c *Comm) noteControlRecv(env *envelope) {
	p := c.me
	if !p.tracer.Enabled() {
		return
	}
	p.recordRecv(env.src, env.tag, len(env.data), p.clock, c.ctx, c.worldRank(env.src), env.mseq, 0)
}

// agreeFullWall is Restore's commit barrier across processes: an
// all-to-all exchange of empty messages on a side-channel context derived
// from the epoch's, which carries nothing but the fact that every member
// reached it.  It runs under full-membership semantics.  Skipping a dead
// member is wrong here: a survivor that entered recovery on the revoke
// broadcast may pass awaitRejoin before locally observing the failure, and
// its first contribution send then dies against the old incarnation's
// broken connection.  Were the member skipped, this rank would commit the epoch
// with the failed rank still marked dead — poisoning its resumed solve —
// while the replacement hangs in its own agreement forever, one
// contribution short.  So a member that appears dead is waited out
// instead: its replacement is readmitted the moment it is rejoin-ready,
// our contribution is resent (the first copy died with the old
// incarnation), and the wait resumes on the same side-channel context.
func (c *Comm) agreeFullWall(deadline time.Time) error {
	c.maybeCrash()
	ac := &Comm{w: c.w, me: c.me, group: c.group, rank: c.rank,
		ctx: splitmixCtx(c.ctx ^ 0x5bf03635aca2ee2d ^ 0x94d049bb133111eb)}

	n := c.Size()
	for r := 0; r < n; r++ {
		if r != c.rank {
			ac.trySendOK(r, tagCollBase, nil)
		}
	}
	c.me.call = "Restore"
	for r := 0; r < n; r++ {
		if r == c.rank {
			continue
		}
		for {
			env, err := ac.matchE(r, tagCollBase, 50*time.Millisecond)
			if err == nil {
				ac.noteControlRecv(env)
				datatype.PutBuffer(env.data)
				break
			}
			if time.Now().After(deadline) {
				return &TimeoutError{Rank: c.worldRank(r), Call: "Restore"}
			}
			switch {
			case errors.Is(err, ErrRankFailed):
				if werr := c.w.awaitReadmit(c.worldRank(r), deadline); werr != nil {
					return werr
				}
				// The incarnation now running postdates the death we just
				// observed; whatever we sent before it died with that
				// incarnation's connection.
				ac.trySendOK(r, tagCollBase, nil)
			case errors.Is(err, ErrTimeout):
				// Member alive but slow, still establishing its mesh — or our
				// contribution silently died: a send can land in a doomed
				// incarnation's socket buffer and still report success.  Offer
				// a fresh copy each round; the match is the implicit ack, and
				// duplicates land on a context that is never reused.
				ac.trySendOK(r, tagCollBase, nil)
			default:
				return err
			}
		}
	}
	// Commit succeeded: every member contributed on the current mesh.  Two
	// races can still leave debris.  A member may be marked dead locally
	// even though its replacement's contribution matched — matchE scans the
	// queue before consulting the failure state — so readmit any
	// rejoin-ready member now, or the resumed solve fails over on a rank
	// that is in fact healthy.  And our contribution may never have reached
	// the member's current incarnation — a send to the old one can report
	// success yet die in its socket buffer — which would leave that member's
	// own commit one contribution short forever.  We cannot tell delivered
	// from doomed, so resend to everyone still running: a duplicate is
	// harmless, a missing copy is a deadlock.
	for r := 0; r < n; r++ {
		if r == c.rank {
			continue
		}
		wr := c.worldRank(r)
		c.w.tryReadmit(wr)
		if c.w.states[wr].Load() == stateRunning {
			ac.trySendOK(r, tagCollBase, nil)
		}
	}
	c.w.recheckDown()
	c.w.wakeAll()
	return nil
}
