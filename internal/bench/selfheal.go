package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// Self-healing driver: the full detect → respawn → rejoin → restore → resume
// loop around the multigrid application, shared by the in-process harness
// (World.Respawn) and the multi-process daemons (supervisor relaunch over
// TCP).  The MPI layer provides the mechanism — Revoke, Restore, membership
// epochs — and this file provides the policy: which checkpoint to resume
// from and when to give up.

// A self-healing solve rides out at most maxRecoveries failures, and each
// Restore waits at most awaitTimeout for the replacements to join.
const (
	maxRecoveries = 4
	awaitTimeout  = 30 * time.Second
)

// HealParams configures SelfHealMultigrid's loop.
type HealParams struct {
	// CheckpointEvery is the V-cycle checkpoint period.  Default 1.
	CheckpointEvery int
	// RejoinEpoch, when nonzero, marks this rank as a replacement: it
	// skips the initial solve attempt and joins recovery number
	// RejoinEpoch directly (the launcher's respawn count).  Survivors
	// derive the same epoch by counting their own failures, so no epoch
	// negotiation is needed.
	RejoinEpoch uint64
	// OnCycle, when non-nil, runs before each iteration of every attempt
	// with the attempt's membership epoch (0 before any recovery) and the
	// iteration number (MultigridRankOptions.OnCycle).  The launcher's
	// chaos controller keys its kill and MTTR clock off it.
	OnCycle func(epoch uint64, cycle int)
}

// SelfHealResult is one rank's outcome of a self-healing solve.  A
// RankReport embeds it, so the tags are the daemon's RESULT line keys.
type SelfHealResult struct {
	Cycles  int       `json:"cycles"`  // total V-cycles, pre-crash checkpoint included
	RelRes  float64   `json:"relres"`  // final relative residual (original r0)
	History []float64 `json:"history"` // residual history of the final (resumed) attempt
	// RestoredAt is the checkpoint iteration the final attempt resumed
	// from: -1 = never interrupted, 0 = restarted from scratch.
	RestoredAt int    `json:"restored_at,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`      // committed membership epoch at completion
	Recoveries int    `json:"recoveries,omitempty"` // failures ridden out
	FinalSize  int    `json:"final_size,omitempty"` // communicator size at completion (== world size)
	Healed     bool   `json:"healed,omitempty"`
}

// SelfHealMultigrid runs the multigrid solve with full self-healing, from
// inside a World.Run body.  Each attempt is one MultigridRank call; a
// failure unwinds through it, revoking the broken communicators, and the
// survivors enter Restore with the next epoch.  A replacement rank
// (RejoinEpoch > 0) enters Restore immediately.  Every party leaves Restore
// holding the full-size communicator, on which the next attempt resumes
// (MultigridRank's Resume: agree on the newest checkpoint every rank can
// restore, protect it, restore it, continue with the original r0), making
// the resumed residual history bitwise-comparable to a fault-free run.  A
// failure during the agreement is one more recovery.
//
// Each recovery stamps the committed epoch into store, so a resumed run's
// lower iteration numbers sort after the stale incarnation's.
func SelfHealMultigrid(c *mpi.Comm, p MultigridParams, mode petsc.ScatterMode, store *ckptio.Store, hp HealParams) (SelfHealResult, error) {
	res := SelfHealResult{RestoredAt: -1}
	cc := c
	epoch := hp.RejoinEpoch
	rejoining := hp.RejoinEpoch > 0
	opts := MultigridRankOptions{Store: store, CheckpointEvery: max(hp.CheckpointEvery, 1)}
	if hp.OnCycle != nil {
		opts.OnCycle = func(cycle int) error { hp.OnCycle(epoch, cycle); return nil }
	}
	for {
		if !rejoining {
			opts.Resume = res.Recoveries > 0
			werr := mpi.Guard(func() error {
				store.SetEpoch(epoch)
				r, err := MultigridRank(cc, p, mode, opts)
				if err != nil {
					return err
				}
				if res.Recoveries > 0 {
					res.RestoredAt = r.Restored
				}
				res.Cycles = r.Restored + r.Cycles
				res.RelRes = r.RelRes
				res.History = r.History
				return nil
			})
			if werr == nil {
				res.Epoch = c.World().Epoch()
				res.FinalSize = cc.Size()
				res.Healed = true
				return res, nil
			}
			if !recoverable(werr) {
				return res, werr
			}
			fmt.Fprintf(os.Stderr, "selfheal: rank %d entering recovery %d: %v\n",
				cc.Rank(), epoch+1, werr)
			epoch++
		}
		rejoining = false
		if res.Recoveries >= maxRecoveries {
			return res, fmt.Errorf("bench: giving up after %d recoveries", res.Recoveries)
		}
		nc, rerr := cc.Restore(epoch, awaitTimeout)
		if rerr != nil {
			return res, rerr
		}
		cc = nc
		res.Recoveries++
	}
}

// SelfHealRun is the in-process end-to-end outcome: a fault-free reference
// plus the healed run, with the bitwise history comparison already made.
type SelfHealRun struct {
	CleanCycles  int
	CleanSeconds float64 // virtual time of the fault-free reference
	CleanHistory []float64
	Result       SelfHealResult // rank 0's outcome
	Respawns     int
	// MTTRSeconds is the wall-clock time from the supervisor noticing the
	// death to the first committed recovery.
	MTTRSeconds float64
	// HistoryMatches reports that the healed run's resumed history equals
	// the fault-free history from the restored cycle on, bitwise, and that
	// both converge at the same total cycle count.
	HistoryMatches bool
	Seconds        float64 // virtual time of the healed run
}

// RunMultigridSelfHeal is the in-process chaos harness: it solves the
// reference problem cleanly, replays it with crashRank dying at crashFrac of
// the clean duration (plus any link faults from fp), supervises the run from
// an outside goroutine that Respawns dead ranks, and verifies the healed
// run's convergence history bitwise against the reference.  Every rank
// holds its own store handle, configured by ckpt (stripe size, aggregators,
// per-rank I/O fault plans), over one temporary directory.
func RunMultigridSelfHeal(n int, p MultigridParams, crashRank int, crashFrac float64, fp *simnet.FaultPlan, ckpt ckptio.Options) (SelfHealRun, error) {
	var out SelfHealRun
	dir, err := os.MkdirTemp("", "nccd-selfheal-ckpt-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	clean := RunMultigridWorld(w, p, petsc.ScatterDatatype)
	out.CleanCycles, out.CleanSeconds, out.CleanHistory = clean.Cycles, w.MaxClock(), clean.History

	plan := &simnet.FaultPlan{CrashAt: map[int]float64{crashRank: crashFrac * out.CleanSeconds}}
	if fp != nil {
		plan.Seed = fp.Seed
		plan.Drop, plan.Duplicate, plan.Corrupt = fp.Drop, fp.Duplicate, fp.Corrupt
	}
	fw := NewFaultyWorld(n, mpi.Optimized(), plan)

	var mu sync.Mutex
	var detectedAt, recoveredAt time.Time
	body := func(rejoinEpoch uint64) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			hp := HealParams{CheckpointEvery: 1, RejoinEpoch: rejoinEpoch,
				OnCycle: func(epoch uint64, _ int) {
					mu.Lock()
					if epoch > 0 && recoveredAt.IsZero() {
						recoveredAt = time.Now()
					}
					mu.Unlock()
				}}
			store, err := ckptio.NewStore(dir, nil, ckpt)
			if err != nil {
				return err
			}
			r, err := SelfHealMultigrid(c, p, petsc.ScatterDatatype, store, hp)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out.Result = r
			}
			return nil
		}
	}

	// Supervisor: an outside goroutine — the in-process stand-in for the
	// TCP launcher — that notices dead ranks and respawns each once.
	done := make(chan struct{})
	var supWG sync.WaitGroup
	supWG.Add(1)
	go func() {
		defer supWG.Done()
		seen := make(map[int]bool)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, r := range fw.CrashedRanks() {
				if seen[r] {
					continue
				}
				seen[r] = true
				mu.Lock()
				out.Respawns++
				ep := uint64(out.Respawns)
				if detectedAt.IsZero() {
					detectedAt = time.Now()
				}
				mu.Unlock()
				if err := fw.Respawn(r, body(ep)); err != nil {
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	err = fw.Run(body(0))
	close(done)
	supWG.Wait()
	if err != nil {
		return out, err
	}
	out.Seconds = fw.MaxClock()
	if !detectedAt.IsZero() && !recoveredAt.IsZero() {
		out.MTTRSeconds = recoveredAt.Sub(detectedAt).Seconds()
	}

	out.HistoryMatches = CheckHistory(out.Result.History, out.CleanHistory, out.Result.RestoredAt) == nil
	return out, nil
}
