package service

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"nccd/internal/mpi"
)

// controller is mesh rank 0's control loop: schedule queued jobs, collect
// reports (remote over the control world, local over the channel), track
// mesh rank deaths and readmissions, resubmit healing jobs, and drive the
// drain protocol.
func (s *Service) controller(c *mpi.Comm) error {
	for {
		s.drainPeerEvents()
		for _, r := range s.ctl.Readmit() {
			s.notePeer(r, true)
			s.event(fmt.Sprintf("RANK %d readmitted", r))
		}
		s.schedule(c)

		// One short receive tick for worker reports, then the local ones.
		if buf, _, err := c.RecvDeadline(mpi.AnySource, ctlTag, 0.05); err == nil {
			var m ctlMsg
			if json.Unmarshal(buf, &m) == nil && m.Type == "report" {
				s.handleReport(m)
			}
		}
		for drained := false; !drained; {
			select {
			case m := <-s.reports:
				s.handleReport(m)
			default:
				drained = true
			}
		}
		s.resolveAttempts()
		s.propagateCancels(c)

		drained := s.drainStep(c)
		s.retireTerminal()
		if drained {
			break
		}
	}
	s.localWG.Wait()
	return nil
}

// drainPeerEvents applies queued mesh liveness events to the controller's
// view: a death marks the rank unplaceable and fails it out of every
// running attempt mapped onto it; a reconnection only clears placement
// (attempt bookkeeping keeps the death — the replacement process knows
// nothing about the attempt).
func (s *Service) drainPeerEvents() {
	for {
		select {
		case ev := <-s.peerEvents:
			s.notePeer(ev.rank, ev.up)
		default:
			return
		}
	}
}

func (s *Service) notePeer(r int, up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if up {
		s.downRanks[r] = false
		return
	}
	if s.downRanks[r] {
		return
	}
	s.downRanks[r] = true
	for _, j := range s.jobs {
		if j.state != stateRunning {
			continue
		}
		for _, jr := range j.ranks {
			if jr == r {
				if j.failedRanks == nil {
					j.failedRanks = make(map[int]bool)
				}
				j.failedRanks[r] = true
			}
		}
	}
}

// schedule starts queued jobs while the running cap allows, and resubmits
// healing jobs whose ranks are all alive again.  Start messages go only
// to the involved ranks.
func (s *Service) schedule(c *mpi.Comm) {
	s.mu.Lock()
	var starts []ctlMsg
	running := 0
	for _, j := range s.jobs {
		if j.state == stateRunning {
			running++
		}
	}
	for len(s.queue) > 0 && running < s.cfg.Admission.MaxRunning && !s.draining {
		j := s.jobs[s.queue[0]]
		if j == nil || j.state != stateQueued {
			s.queue = s.queue[1:]
			continue
		}
		if j.cancelReq {
			s.queue = s.queue[1:]
			j.state = stateCanceled
			j.errText = "canceled before start"
			continue
		}
		ranks, ok := s.placeLocked(j.spec.Ranks)
		if !ok {
			break // not enough live ranks right now; retry next tick
		}
		s.queue = s.queue[1:]
		j.ranks = ranks
		starts = append(starts, s.launchLocked(j, false))
		running++
	}
	for _, j := range s.jobs {
		if j.state != stateHealing || s.draining {
			continue
		}
		alive := true
		for _, r := range j.ranks {
			if s.downRanks[r] {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		starts = append(starts, s.launchLocked(j, true))
	}
	s.mu.Unlock()
	for _, m := range starts {
		s.event(fmt.Sprintf("JOB %d start attempt=%d int=%d ranks=%v resume=%v", m.Ext, s.attemptOf(m.Ext), m.Int, m.Ranks, m.Resume))
		for _, r := range m.Ranks {
			s.sendCtl(c, r, m)
		}
	}
}

// launchLocked allocates a fresh internal (mux) job id for an attempt of
// j and flips it to running.  Caller holds s.mu.
func (s *Service) launchLocked(j *job, resume bool) ctlMsg {
	j.intID = s.nextInt
	s.nextInt++
	j.attempts++
	j.state = stateRunning
	j.reported = make(map[int]ctlMsg)
	j.failedRanks = make(map[int]bool)
	return ctlMsg{Type: "start", Ext: j.id, Int: j.intID,
		Ranks: append([]int(nil), j.ranks...), Spec: j.spec, Resume: resume}
}

func (s *Service) attemptOf(ext uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[ext]; j != nil {
		return j.attempts
	}
	return 0
}

// placeLocked picks want live mesh ranks round-robin from the rank after
// the previous placement, spreading tenants across the mesh.  Caller
// holds s.mu.
func (s *Service) placeLocked(want int) ([]int, bool) {
	n := s.mux.Size()
	ranks := make([]int, 0, want)
	for i := 0; i < n && len(ranks) < want; i++ {
		r := (int(s.nextInt) + i) % n
		if !s.downRanks[r] {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) < want {
		return nil, false
	}
	sort.Ints(ranks)
	return ranks, true
}

// handleReport records one rank's attempt outcome.  Reports from stale
// attempts (an earlier internal id) are dropped.
func (s *Service) handleReport(m ctlMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[m.Ext]
	if j == nil || m.Int != j.intID || j.state != stateRunning {
		return
	}
	j.reported[m.Rank] = m
}

// resolveAttempts closes attempts whose every involved rank has reported
// or died, deciding completed / canceled / healing / failed.
func (s *Service) resolveAttempts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.state != stateRunning {
			continue
		}
		done := true
		var okRep *ctlMsg
		anyFail, anyCancel := false, false
		for _, r := range j.ranks {
			if rep, in := j.reported[r]; in {
				switch rep.Status {
				case "ok":
					if okRep == nil {
						cp := rep
						okRep = &cp
					}
				case "canceled":
					anyCancel = true
				default:
					anyFail = true
					if j.errText == "" {
						j.errText = rep.Error
					}
				}
				continue
			}
			if j.failedRanks[r] {
				anyFail = true
				continue
			}
			done = false
			break
		}
		if !done {
			continue
		}
		switch {
		case anyFail && !j.cancelReq && s.cfg.CkptDir != "" && j.attempts < maxAttempts:
			j.state = stateHealing
			s.eventLocked(fmt.Sprintf("JOB %d healing attempt=%d", j.id, j.attempts))
		case anyFail && !j.cancelReq:
			j.state = stateFailed
			if j.errText == "" {
				j.errText = "rank failed"
			}
			s.eventLocked(fmt.Sprintf("JOB %d failed: %s", j.id, j.errText))
		case anyCancel || j.cancelReq:
			j.state = stateCanceled
			j.errText = "canceled"
			s.eventLocked(fmt.Sprintf("JOB %d canceled", j.id))
		default:
			j.state = stateCompleted
			if okRep != nil {
				j.cycles = okRep.Cycles
				j.relres = okRep.RelRes
				j.seconds = okRep.Seconds
				j.history = okRep.History
				j.restoredFrom = okRep.Base
			}
			s.eventLocked(fmt.Sprintf("JOB %d completed cycles=%d relres=%g", j.id, j.cycles, j.relres))
		}
	}
}

// maxTerminalJobs is how many finished jobs the table remembers: GET
// /jobs/<id> answers for the newest this many and 404 for older ones.
const maxTerminalJobs = 1024

// retireTerminal bounds what a long-lived service keeps of finished jobs.
// A job seen terminal for the first time has its checkpoint directory
// removed — every involved rank has reported or died by then, so nothing is
// still writing there — and joins the retired list; past maxTerminalJobs
// the longest-retired records leave the table.  Only a retired job is ever
// evicted: queued, running and healing jobs stay however old they are.
func (s *Service) retireTerminal() {
	s.mu.Lock()
	var fresh []uint64
	var dirs []string
	for _, j := range s.jobs {
		if j.retired || !isTerminalState(j.state) {
			continue
		}
		j.retired = true
		fresh = append(fresh, j.id)
		if s.cfg.CkptDir != "" && j.attempts > 0 {
			dirs = append(dirs, s.jobCkptDir(j.id))
		}
	}
	slices.Sort(fresh) // map order is random; ids are submission order
	s.retired = append(s.retired, fresh...)
	for len(s.retired) > maxTerminalJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.mu.Unlock()
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			s.event(fmt.Sprintf("checkpoint cleanup: %v", err))
		}
	}
}

// eventLocked emits an event while holding s.mu (the callback must not
// call back into the service).
func (s *Service) eventLocked(line string) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(line)
	}
}

// propagateCancels sends the cancel message for every running job whose
// cancellation was requested but not yet propagated.
func (s *Service) propagateCancels(c *mpi.Comm) {
	s.mu.Lock()
	var cancels []ctlMsg
	for _, j := range s.jobs {
		if j.state == stateRunning && j.cancelReq && !j.cancelSent {
			j.cancelSent = true
			cancels = append(cancels, ctlMsg{Type: "cancel", Ext: j.id, Int: j.intID,
				Ranks: append([]int(nil), j.ranks...)})
		}
		if j.state == stateHealing && j.cancelReq {
			// A canceled healing job never resubmits.
			j.state = stateCanceled
			j.errText = "canceled"
		}
	}
	s.mu.Unlock()
	for _, m := range cancels {
		for _, r := range m.Ranks {
			s.sendCtl(c, r, m)
		}
	}
}

// drainStep drives the drain protocol: once draining, cancel jobs that
// have not started (or are stuck healing) but let running solves finish —
// MaxCycles bounds every job, so the wait is bounded too.  After every
// job reaches a terminal state, broadcast the drain message and report
// true so the controller loop exits.
func (s *Service) drainStep(c *mpi.Comm) bool {
	s.mu.Lock()
	if !s.draining {
		s.mu.Unlock()
		return false
	}
	allTerminal := true
	for _, j := range s.jobs {
		switch j.state {
		case stateQueued:
			j.state = stateCanceled
			j.errText = "drained before start"
		case stateHealing:
			j.state = stateCanceled
			j.errText = "drained while healing"
		case stateRunning:
			allTerminal = false
		}
	}
	s.queue = nil
	ready := allTerminal && !s.drainSent
	if ready {
		s.drainSent = true
	}
	s.mu.Unlock()
	if !ready {
		return false
	}
	s.event("DRAIN broadcast")
	m := ctlMsg{Type: "drain"}
	for r := 0; r < s.mux.Size(); r++ {
		if r != 0 {
			s.sendCtl(c, r, m)
		}
	}
	return true
}
