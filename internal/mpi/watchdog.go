package mpi

import "time"

// The watchdog wakes every watchdogInterval of wall-clock time and declares
// a deadlock after watchdogPatience consecutive intervals without progress.
// Variables, not constants, so the package's tests can shorten them.
var (
	watchdogInterval = 250 * time.Millisecond
	watchdogPatience = 2
)

// watchdog is the deadlock detector: a per-Run goroutine that wakes every
// watchdogInterval and checks whether the world can still make progress.
// Because this runtime is a closed system — messages only come from the
// world's own ranks — a state where every running rank is parked in a
// non-deadline blocking wait, no queued envelope matches any of those
// waits, and the progress counter has been frozen for watchdogPatience
// consecutive intervals is provably permanent.  Only then does the watchdog
// act: it builds a report naming each blocked rank, its call, and the
// (src, tag) it awaits, finds a wait-for cycle if one exists, and aborts
// every blocked wait with the resulting DeadlockError.  Wall-clock worlds
// run none.
type watchdog struct {
	w    *World
	stop chan struct{}
	done chan struct{}
}

func newWatchdog(w *World) *watchdog {
	wd := &watchdog{w: w, stop: make(chan struct{}), done: make(chan struct{})}
	go wd.loop()
	return wd
}

// halt stops the watchdog and waits for its goroutine to exit.
func (wd *watchdog) halt() {
	close(wd.stop)
	<-wd.done
}

func (wd *watchdog) loop() {
	defer close(wd.done)
	t := time.NewTicker(watchdogInterval)
	defer t.Stop()
	var last uint64
	stale := 0
	first := true
	for {
		select {
		case <-wd.stop:
			return
		case <-t.C:
		}
		cur := wd.w.progress.Load()
		if first || cur != last {
			last, stale, first = cur, 0, false
			continue
		}
		if stale++; stale >= watchdogPatience && wd.check(cur) {
			return
		}
	}
}

// check verifies that the frozen world really is deadlocked and, if so,
// injects a DeadlockError into every blocked rank and reports true.
func (wd *watchdog) check(frozen uint64) bool {
	w := wd.w
	type waiter struct {
		p  *proc
		wt blockedWait
	}
	var waiters []waiter
	for r, p := range w.procs {
		if w.states[r].Load() != stateRunning {
			continue
		}
		p.mu.Lock()
		wt := p.wait
		satisfiable := false
		// Restore's commit barrier is satisfied by joins and deaths, not
		// messages; queued envelopes are irrelevant to it.
		if wt.active && wt.call != "Restore" {
			for _, env := range p.queue {
				if env.ctx == wt.ctx && (wt.src == AnySource || env.src == wt.src) && (wt.tag == AnyTag || env.tag == wt.tag) {
					satisfiable = true
					break
				}
			}
		}
		p.mu.Unlock()
		// Any running rank that is not blocked, is in a self-recovering
		// deadline wait, or has a matching message queued disproves the
		// deadlock.
		if !wt.active || wt.deadline || satisfiable {
			return false
		}
		waiters = append(waiters, waiter{p: p, wt: wt})
	}
	if len(waiters) == 0 {
		return false
	}
	// The scan itself takes time; progress during it (a rank finishing a
	// compute phase, a late delivery) also disproves the deadlock.  Once
	// this recheck passes no rank can be mid-send: every running rank was
	// observed parked in a blocking wait.
	if w.progress.Load() != frozen {
		return false
	}
	blocked := make([]BlockedRank, len(waiters))
	edges := make(map[int]int, len(waiters))
	for i, wr := range waiters {
		blocked[i] = BlockedRank{Rank: wr.p.rank, Call: wr.wt.call, Src: wr.wt.srcWorld, Tag: wr.wt.tag}
		if wr.wt.srcWorld >= 0 {
			edges[wr.p.rank] = wr.wt.srcWorld
		}
	}
	err := &DeadlockError{Blocked: blocked, Cycle: waitCycle(edges)}
	for _, wr := range waiters {
		wr.p.mu.Lock()
		wr.p.wait.err = err
		wr.p.cond.Broadcast()
		wr.p.mu.Unlock()
	}
	// Wake ranks parked in Restore's commit barrier too.
	w.agreeMu.Lock()
	w.agreeCond.Broadcast()
	w.agreeMu.Unlock()
	return true
}

// waitCycle finds a cycle in the wait-for graph (each rank waits on at most
// one concrete peer) and returns it starting from its smallest member, or
// nil if the blocked set forms no cycle.
func waitCycle(edges map[int]int) []int {
	state := make(map[int]int, len(edges)) // 0 unseen, 1 on path, 2 done
	for start := range edges {
		if state[start] != 0 {
			continue
		}
		var path []int
		for r := start; ; {
			if state[r] == 1 {
				// r is on the current path: slice out the cycle.
				for i, v := range path {
					if v == r {
						return rotateMin(path[i:])
					}
				}
			}
			if state[r] != 0 {
				break
			}
			state[r] = 1
			path = append(path, r)
			next, ok := edges[r]
			if !ok {
				break
			}
			r = next
		}
		for _, v := range path {
			state[v] = 2
		}
	}
	return nil
}

// rotateMin rotates cycle so it starts at its smallest rank, for a
// deterministic report.
func rotateMin(cycle []int) []int {
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}
