package mpi

import "nccd/internal/transport"

// ULFM-style failure recovery: Revoke to interrupt peers still blocked in
// a broken communication pattern, Agree to reach consensus among the
// survivors, Shrink to build a new communicator containing only them.
//
// Agreement here exploits the in-process runtime: all ranks share the
// world's memory, and the dead-set is monotone within a Run, so consensus
// reduces to a shared slot that every live member ORs its contribution
// into.  The subtle part is membership: a member may die mid-call, at
// which point the survivors must stop waiting for its contribution — the
// slot therefore seals when every member has either joined or died, and
// every rank-death event re-evaluates in-flight slots.

// agreeID names one agreement instance: the communicator's context and the
// member-local call sequence number (members execute Agree collectively,
// in the same order, so equal seq means the same call site).
type agreeID struct {
	ctx uint64
	seq uint64
}

// agreeSlot accumulates one agreement.
type agreeSlot struct {
	group  []int // member world ranks, comm rank order
	val    []uint64
	joined map[int]struct{} // world ranks that have contributed
	sealed bool
	refs   int // members still inside Agree; last one out deletes the slot
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

// agree runs the multi-word agreement: it returns the bitwise OR of the
// words contributed by every member that reached this call before it
// sealed.  Members that died beforehand contribute nothing.  It fails with
// ErrDeadlock if the watchdog aborts the wait (some member neither died
// nor arrived).
func (c *Comm) agree(words []uint64) ([]uint64, error) {
	if c.w.wall {
		return c.agreeWall(words)
	}
	c.maybeCrash()
	w := c.w
	p := c.me
	id := agreeID{ctx: c.ctx, seq: c.agreeSeq}
	c.agreeSeq++

	// Register as a blocked wait so the watchdog can see (and, on a true
	// deadlock, abort) ranks parked in agreement.
	p.mu.Lock()
	p.wait = blockedWait{active: true, call: "Agree", ctx: id.ctx, src: AnySource, srcWorld: -1, tag: -1}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.wait = blockedWait{}
		p.mu.Unlock()
	}()

	w.agreeMu.Lock()
	s := w.agreeSlots[id]
	if s == nil {
		s = &agreeSlot{group: c.Group(), val: make([]uint64, len(words)), joined: make(map[int]struct{})}
		w.agreeSlots[id] = s
	}
	for i, v := range words {
		if i < len(s.val) {
			s.val[i] |= v
		}
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
			w.agreeMu.Unlock()
			return nil, aborted
		}
		w.agreeCond.Wait()
		s.sealIfComplete(w)
	}
	val := append([]uint64(nil), s.val...)
	s.refs--
	if s.refs == 0 {
		delete(w.agreeSlots, id)
	}
	w.agreeMu.Unlock()
	return val, nil
}

// Agree is the fault-tolerant agreement collective: every live member
// contributes x, and all of them return the bitwise OR of the
// contributions.  Members that died before the call are excluded; a member
// that dies during it may or may not be included, uniformly for all
// survivors.  Typical use is agreeing on a flag or a failure bitmap before
// acting on it.
func (c *Comm) Agree(x uint64) (uint64, error) {
	v, err := c.agree([]uint64{x})
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// Revoke marks the communicator revoked: every current and future blocking
// receive and send on it — on any member — fails with ErrRevoked.  A rank
// that discovers a peer failure calls Revoke so that members still blocked
// in the broken communication pattern stop waiting and join the recovery
// (typically Shrink) instead.  Revocation is permanent for the rest of the
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
// side-channel contexts agreement uses — cancellation is final, so not
// even recovery agreement should keep running.
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

// Shrink builds a new communicator containing the surviving members, in
// the same relative order.  It is collective over the live members and
// works on a revoked communicator — that is its purpose: after a failure,
// every survivor calls Shrink and continues on the result.  The survivor
// set is agreed on, so all members construct an identical group and
// context.  A member that dies during the call may still appear in the
// shrunk communicator; operations on it will then raise ErrRankFailed and
// the survivors can simply Shrink again.
func (c *Comm) Shrink() (*Comm, error) {
	n := c.Size()
	words := make([]uint64, (n+63)/64)
	for r := 0; r < n; r++ {
		if c.w.down(c.worldRank(r)) {
			words[r/64] |= 1 << (r % 64)
		}
	}
	seq := c.agreeSeq // consumed by the agree call below; same on all members
	dead, err := c.agree(words)
	if err != nil {
		return nil, err
	}

	var group []int
	newRank := -1
	h := splitmixCtx(c.ctx ^ (seq+1)*0x9e3779b97f4a7c15)
	for r := 0; r < n; r++ {
		if dead[r/64]&(1<<(r%64)) != 0 {
			h = splitmixCtx(h ^ uint64(r)*0xbf58476d1ce4e5b9)
			continue
		}
		if r == c.rank {
			newRank = len(group)
		}
		group = append(group, c.worldRank(r))
	}
	return &Comm{w: c.w, me: c.me, group: group, rank: newRank, ctx: h}, nil
}
