package mpi

import "nccd/internal/transport"

// Failure handling is fail-fast: a rank that sees a peer die, or its
// communicator revoked, raises a typed error out of the collective it is
// in, and Revoke interrupts the members still blocked in the broken
// pattern.  The one way to survive a death is to respawn the rank, regrow
// the full-size communicator with Restore (restore.go) and resume from a
// checkpoint.
//
// Restore's in-process commit barrier exploits the shared memory of the
// in-process runtime: consensus reduces to a shared slot every live member
// joins.  The subtle part is membership: a member may die mid-call, at
// which point the survivors must stop waiting for it — the slot therefore
// seals when every member has either joined or died, and every rank-death
// event re-evaluates in-flight slots.

// agreeSlot tracks one commit barrier, keyed by its communicator's context.
type agreeSlot struct {
	group  []int            // member world ranks, comm rank order
	joined map[int]struct{} // world ranks that have arrived
	sealed bool
	refs   int // members still inside agree; last one out deletes the slot
}

// sealIfComplete marks the slot sealed once every member has joined or
// died.  Caller holds w.agreeMu.
func (s *agreeSlot) sealIfComplete(w *World) {
	if s.sealed {
		return
	}
	for _, wr := range s.group {
		if _, ok := s.joined[wr]; !ok && !w.down(wr) {
			return
		}
	}
	s.sealed = true
	w.progress.Add(1)
	w.agreeCond.Broadcast()
}

// agree is Restore's in-process commit barrier: it returns once every
// member of c has reached it or died.  It fails with ErrDeadlock if the
// watchdog aborts the wait (some member neither died nor arrived).
func (c *Comm) agree() error {
	c.maybeCrash()
	w := c.w
	p := c.me

	// Register as a blocked wait so the watchdog can see (and, on a true
	// deadlock, abort) ranks parked in the barrier.
	p.mu.Lock()
	p.wait = blockedWait{active: true, call: "Restore", ctx: c.ctx, src: AnySource, srcWorld: -1, tag: -1}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.wait = blockedWait{}
		p.mu.Unlock()
	}()

	w.agreeMu.Lock()
	defer w.agreeMu.Unlock()
	s := w.agreeSlots[c.ctx]
	if s == nil {
		s = &agreeSlot{group: c.Group(), joined: make(map[int]struct{})}
		w.agreeSlots[c.ctx] = s
	}
	s.joined[p.rank] = struct{}{}
	s.refs++
	w.progress.Add(1)
	s.sealIfComplete(w)
	for !s.sealed {
		p.mu.Lock()
		aborted := p.wait.err
		p.mu.Unlock()
		if aborted != nil {
			s.refs--
			return aborted
		}
		w.agreeCond.Wait()
		s.sealIfComplete(w)
	}
	if s.refs--; s.refs == 0 {
		delete(w.agreeSlots, c.ctx)
	}
	return nil
}

// Revoke marks the communicator revoked: every current and future blocking
// receive and send on it — on any member — fails with ErrRevoked.  A rank
// that discovers a peer failure calls Revoke so that members still blocked
// in the broken communication pattern stop waiting and join the recovery
// (Restore) instead.  Revocation is permanent for the rest of the
// Run and does not affect other communicators, including ones later
// derived from this one.
func (c *Comm) Revoke() {
	w := c.w
	w.revokeCtx(c.ctx)
	if w.wall {
		// Revocation must reach members in other processes; best effort — an
		// unreachable member is down and needs no interrupting.
		for r := range w.procs {
			if !w.tr.Local(r) {
				_ = w.tr.Send(r, transport.Header{Ctx: ctxRevoke, Seq: c.ctx}, nil)
			}
		}
	}
}

// revokeCtx records ctx as revoked and wakes every blocked wait.
func (w *World) revokeCtx(ctx uint64) {
	w.revoked.Store(ctx, struct{}{})
	w.anyRevoked.Store(true)
	w.progress.Add(1)
	w.wakeAll()
}

// isRevoked reports whether ctx has been revoked.  A canceled world
// (World.Cancel) treats every context as revoked, including the derived
// side-channel context of Restore's commit barrier — cancellation is
// final, so not even recovery should keep running.
func (w *World) isRevoked(ctx uint64) bool {
	if w.canceledAll.Load() {
		return true
	}
	if !w.anyRevoked.Load() {
		return false
	}
	_, ok := w.revoked.Load(ctx)
	return ok
}
