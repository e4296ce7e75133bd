package mpi

import (
	"errors"
	"fmt"
	"math"
	"time"

	"nccd/internal/obs"
)

// Self-healing: re-admitting a replacement for a failed rank and rebuilding
// the full-size communicator, the one way to survive a rank death.  The
// recovery protocol layers on Revoke (revoke.go):
//
//  1. A rank failure is detected (connection loss, heartbeat hard-failure,
//     or an in-process death) and survivors revoke the broken communicators
//     so everyone abandons the old pattern.
//  2. A supervisor respawns the failed rank — World.Respawn for in-process
//     worlds, a relaunched OS process in wall-clock mode — which announces
//     itself (rejoinReady) without yet being re-admitted.  Deferring the
//     state flip to Restore closes a race: if the replacement were marked
//     running the instant it connected, a survivor that had not yet
//     observed the failure could keep waiting on data the dead incarnation
//     lost, and never fail over.
//  3. Every party — survivors and the replacement — calls Comm.Restore with
//     the next membership epoch.  Restore fences the old incarnation
//     (epoch bump, stamped into the transport handshake), waits for every
//     failed rank's replacement to be ready, flips them back to running,
//     and commits the new epoch with a barrier on the epoch's own context.
//  4. The caller agrees on the latest commonly-available checkpoint over
//     the regrown communicator, restores it and resumes at full size (see
//     internal/bench's self-healing driver).

// Process-global self-healing metrics.  Rejoin duration is Restore entry
// to committed epoch, in nanoseconds.
var (
	mRespawns       = obs.Metrics.Counter("mpi.rank_respawns")
	mRejoinDuration = obs.Metrics.Histogram("mpi.rejoin_duration_ns")
)

// onPeer is the transport's liveness callback.
func (w *World) onPeer(rank int, up bool) {
	if up {
		w.onPeerUp(rank)
	} else {
		w.onPeerDown(rank)
	}
}

// onPeerUp handles a transport reconnection: a previously failed
// rank's replacement has re-established its connection.  The rank is only
// marked ready — re-admission happens collectively in Restore.  The
// replacement numbers its reliable sends from zero again, so every local
// rank's duplicate watermark for it restarts too; left high, it would
// reject everything the replacement sends as a duplicate.
func (w *World) onPeerUp(rank int) {
	for r, p := range w.procs {
		if w.tr.Local(r) {
			p.mu.Lock()
			p.recvSeq[rank] = 0
			p.mu.Unlock()
		}
	}
	w.rejoinReady[rank].Store(true)
	if w.tracer.Enabled() {
		now := w.tracer.Now()
		w.tracer.Emit(obs.Span{Rank: w.firstLocal(), Kind: "rejoin_ready", Peer: rank,
			Start: now, End: now, Clock: obs.ClockWall})
	}
	w.progress.Add(1)
	w.wakeAll()
}

// firstLocal returns the lowest rank hosted by this process, the lane
// liveness events are traced on.
func (w *World) firstLocal() int {
	for r := range w.procs {
		if w.tr.Local(r) {
			return r
		}
	}
	return 0
}

// Epoch returns the committed membership epoch: 0 until a Restore commits
// a recovery, then the epoch of the latest committed Restore.
func (w *World) Epoch() uint64 { return w.epoch.Load() }

// Respawn relaunches a failed (or exited) rank in the current in-process
// Run with a fresh incarnation executing f.  The replacement starts with an
// empty mailbox, a zeroed clock and no pending fault-plan crash — a
// restarted process remembers nothing — but keeps its send sequence
// numbers, so receivers' duplicate suppression stays sound.  It is marked
// rejoin-ready, not running: re-admission happens when the survivors and
// the replacement meet in Comm.Restore.  Respawn is the supervisor's call
// (an outside goroutine watching for deaths), valid only while a Run is in
// flight and at least one rank is still alive; wall-clock worlds respawn by
// relaunching the OS process instead.
func (w *World) Respawn(rank int, f func(c *Comm) error) error {
	if w.wall {
		return errors.New("mpi: Respawn is in-process only; wall-clock ranks respawn by relaunching their process")
	}
	if rank < 0 || rank >= len(w.procs) {
		return fmt.Errorf("mpi: Respawn rank %d out of range", rank)
	}
	w.runMu.Lock()
	defer w.runMu.Unlock()
	if w.runWG == nil {
		return errors.New("mpi: Respawn with no Run in flight")
	}
	if w.states[rank].Load() == stateRunning {
		return fmt.Errorf("mpi: Respawn of rank %d, which is still running", rank)
	}
	p := w.procs[rank]
	p.mu.Lock()
	p.queue = nil
	clear(p.recvSeq)
	p.wait = blockedWait{}
	p.mu.Unlock()
	p.call = ""
	p.clock = 0
	p.crashAt = math.Inf(1) // the scheduled crash already fired
	if f == nil {
		f = w.runFn
	}
	w.rejoinReady[rank].Store(true)
	w.progress.Add(1)
	w.wakeAll()
	w.spawnRank(rank, f, w.runWG, w.runErrs)
	return nil
}

// epochCtx derives the context id of epoch e's full-size communicator.
// Every party computes it locally from the agreed epoch, so no context
// negotiation is needed during recovery.
func epochCtx(e uint64) uint64 {
	return splitmixCtx(e*0xd1342543de82ef95 ^ 0x9e6c63d0876a9a47)
}

// Restore rebuilds the full-size communicator after every failed rank has
// been respawned, and commits membership epoch e.  It is collective over
// all ranks — the survivors and the replacements — and works while the old
// communicators are revoked; revoking them first (so no survivor is still
// blocked in the broken pattern) is the caller's responsibility.
//
// Restore fences the old incarnation by raising the world's and the
// transport's membership epoch, waits up to timeout for every non-running
// rank to have a rejoin-ready replacement, re-admits the replacements, and
// runs a barrier on the new epoch's context as the commit.  On
// success every rank holds an identical full-size communicator whose
// context is derived from e.
func (c *Comm) Restore(e uint64, timeout time.Duration) (*Comm, error) {
	w := c.w
	start := time.Now()
	// Raise (never lower) the committed epoch, and fence the transport's
	// handshake so a stale incarnation of a replaced rank cannot reconnect.
	for {
		cur := w.epoch.Load()
		if cur >= e || w.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if et, ok := w.tr.(interface{ SetEpoch(uint64) }); ok {
		et.SetEpoch(e)
	}
	if w.tracer.Enabled() {
		now := w.tracer.Now()
		w.tracer.Emit(obs.Span{Rank: w.firstLocal(), Kind: "epoch_bump", Tag: int(e),
			Start: now, End: now, Clock: obs.ClockWall})
	}
	if err := w.awaitRejoin(c.me.rank, timeout); err != nil {
		return nil, err
	}
	nc := &Comm{w: w, me: c.me, rank: c.me.rank, ctx: epochCtx(e)}
	var err error
	if w.wall {
		// Multi-process recovery commits under full-membership semantics:
		// a member that looks dead is a replacement still being readmitted,
		// not a skippable absentee (see agreeFullWall).
		deadline := start.Add(timeout)
		if timeout <= 0 {
			deadline = start.Add(24 * time.Hour)
		}
		err = nc.agreeFullWall(deadline)
	} else {
		err = nc.agree()
	}
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	mRejoinDuration.Observe(dur.Nanoseconds())
	if w.tracer.Enabled() {
		now := w.tracer.Now()
		w.tracer.Emit(obs.Span{Rank: w.firstLocal(), Kind: "rejoin", Tag: int(e),
			Start: now - dur.Seconds(), End: now, Clock: obs.ClockWall})
	}
	return nc, nil
}

// awaitRejoin blocks until every rank is running, re-admitting rejoin-ready
// replacements along the way.  The flip from dead to running happens here —
// inside the collective recovery, after the flipping rank revoked the
// broken communicators — never at connection time, and never by the
// replacement itself: a rank that enters Restore dead (a rejoiner) only
// waits.  If it could self-admit, a survivor that had not yet observed the
// failure would see the rank running again and keep waiting on data the
// dead incarnation lost; a survivor performing the flip has, per the
// Restore contract, already revoked the old communicators, so every other
// survivor still parked in them has been woken.  The poll deliberately
// does not register a blockedWait: an unregistered spinning rank keeps the
// watchdog from declaring the recovery window a deadlock.
func (w *World) awaitRejoin(me int, timeout time.Duration) error {
	survivor := w.states[me].Load() == stateRunning
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		waiting := -1
		for r := range w.states {
			if w.states[r].Load() == stateRunning {
				continue
			}
			if survivor && w.rejoinReady[r].Load() {
				if w.states[r].CompareAndSwap(stateDead, stateRunning) ||
					w.states[r].CompareAndSwap(stateExited, stateRunning) {
					w.rejoinReady[r].Store(false)
					mRespawns.Inc()
					w.progress.Add(1)
					continue
				}
			}
			waiting = r
		}
		if waiting < 0 {
			w.recheckDown()
			w.wakeAll()
			return nil
		}
		if timeout > 0 && time.Now().After(deadline) {
			return &TimeoutError{Rank: waiting, Call: "Restore"}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// awaitReadmit blocks until world rank r is running again, readmitting its
// rejoin-ready replacement exactly like awaitRejoin does.  It backs the
// full-membership commit barrier: a rank whose local view of r's failure
// arrived only after it had passed awaitRejoin performs the readmission
// here, mid-agreement, instead of committing around the replacement.
func (w *World) awaitReadmit(r int, deadline time.Time) error {
	for {
		if w.tryReadmit(r) {
			w.recheckDown()
			w.wakeAll()
			return nil
		}
		if time.Now().After(deadline) {
			return &TimeoutError{Rank: r, Call: "Restore"}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// tryReadmit flips world rank r's rejoin-ready replacement to running, with
// the same bookkeeping as awaitRejoin's flip, and reports whether r is
// running afterwards.  A rank that is neither running nor rejoin-ready is
// left alone — its replacement has not arrived (or died again).
func (w *World) tryReadmit(r int) bool {
	if w.states[r].Load() == stateRunning {
		return true
	}
	if !w.rejoinReady[r].Load() {
		return false
	}
	if w.states[r].CompareAndSwap(stateDead, stateRunning) ||
		w.states[r].CompareAndSwap(stateExited, stateRunning) {
		w.rejoinReady[r].Store(false)
		mRespawns.Inc()
		w.progress.Add(1)
	}
	return w.states[r].Load() == stateRunning
}

// recheckDown recomputes the anyDown short-circuit after re-admissions.
// Clearing before the rescan makes a concurrent death safe: if its state
// store lands before our rescan we re-set the flag ourselves, and if it
// lands after, the dying rank's own store of true is the later write.
func (w *World) recheckDown() {
	w.anyDown.Store(false)
	for r := range w.states {
		if w.states[r].Load() != stateRunning {
			w.anyDown.Store(true)
			return
		}
	}
}
