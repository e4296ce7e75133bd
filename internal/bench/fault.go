package bench

import (
	"errors"
	"fmt"
	"os"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// NewFaultyWorld creates an n-rank world on a homogeneous IB DDR cluster
// carrying the given fault plan (nil for a clean reference world).
func NewFaultyWorld(n int, cfg mpi.Config, fp *simnet.FaultPlan) *mpi.World {
	cl := simnet.Uniform(n, simnet.IBDDR())
	cl.Faults = fp
	return mpi.NewWorld(cl, cfg)
}

// FaultOverhead measures what the reliability protocol costs in virtual
// time: the Section 5.3 outlier Allgatherv (rank 0 contributes 32 KB,
// everyone else 8 bytes) under increasing symmetric drop+duplication rates,
// against a clean run on the same topology.  Each lost or corrupted
// attempt charges the sender an exponentially backed-off ack timeout, so
// the overhead column is the end-to-end price of the configured rates.
func FaultOverhead(n int, rates []float64, iters int, seed uint64) *Experiment {
	e := &Experiment{
		ID:     "fault-overhead",
		Title:  fmt.Sprintf("reliability overhead: outlier Allgatherv under lossy links (%d processes)", n),
		XLabel: "drop=dup rate",
		Unit:   "us",
		Series: []string{"latency", "overhead %", "retransmit count"},
		Expect: "overhead grows with the fault rate via retransmission timeouts; results stay bytewise identical to the clean run",
	}
	run := func(rate float64) (float64, mpi.Stats) {
		var fp *simnet.FaultPlan
		if rate > 0 {
			fp = &simnet.FaultPlan{Seed: seed, Drop: rate, Duplicate: rate}
		}
		w := NewFaultyWorld(n, mpi.Optimized(), fp)
		var lat float64
		err := w.Run(func(c *mpi.Comm) error {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 8
			}
			counts[0] = 32 * 1024
			total := 0
			for _, x := range counts {
				total += x
			}
			mine := make([]byte, counts[c.Rank()])
			recv := make([]byte, total)
			l := TimeSection(c, iters, func(int) {
				c.Allgatherv(mine, counts, recv)
			})
			if c.Rank() == 0 {
				lat = l
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		return lat, w.TotalStats()
	}
	clean, _ := run(0)
	for _, rate := range rates {
		lat, st := run(rate)
		e.Add(fmt.Sprintf("%.3g", rate), map[string]float64{
			"latency":          lat * 1e6,
			"overhead %":       100 * (lat/clean - 1),
			"retransmit count": float64(st.Retransmits),
		})
	}
	return e
}

// FaultedMultigridResult reports a multigrid solve through a mid-solve rank
// crash.
type FaultedMultigridResult struct {
	CleanCycles  int     // V-cycles of the reference (fault-free) solve
	CleanSeconds float64 // virtual time of the reference solve
	CrashAt      float64 // virtual time the crash was scheduled at
	CheckpointAt int     // V-cycle the restored checkpoint was taken at
	Survivors    int     // communicator size after Shrink
	CyclesAfter  int     // V-cycles the restarted solve needed
	RelRes       float64 // final residual relative to the original r0
	Seconds      float64 // virtual time of the faulted run, recovery included
	Recovered    bool
}

// recoverable reports whether an error is one the ULFM-style recovery loop
// handles: a peer failure, a revoked communicator, or a watchdog abort of
// ranks left waiting on a peer that died.
func recoverable(err error) bool {
	return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked) || errors.Is(err, mpi.ErrDeadlock)
}

// RunMultigridFaulted runs the Section 5.5 multigrid solve (Figure 17's
// workload) with a rank crash injected at crashFrac of the clean solve's
// virtual duration, and drives the full recovery loop: survivors catch the
// typed failure, revoke the communicator so no rank stays blocked, agree on
// the survivor set via Shrink, rebuild the solver hierarchy on the shrunk
// communicator's re-decomposition, rebind the checkpoint store to that
// decomposition's file view, restore the newest checkpoint every survivor
// can read, and iterate to the original tolerance.
func RunMultigridFaulted(n int, p MultigridParams, crashRank int, crashFrac float64) FaultedMultigridResult {
	var res FaultedMultigridResult

	// Clean reference: calibrates the crash time and the expected result.
	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	err := w.Run(func(c *mpi.Comm) error {
		s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
		cycles, _ := s.Solve(b, x, p.Rtol, p.MaxCycles)
		if c.Rank() == 0 {
			res.CleanCycles = cycles
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	res.CleanSeconds = w.MaxClock()
	res.CrashAt = crashFrac * res.CleanSeconds

	dir, err := os.MkdirTemp("", "nccd-faulted-ckpt-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	fw := NewFaultyWorld(n, mpi.Optimized(), &simnet.FaultPlan{
		CrashAt: map[int]float64{crashRank: res.CrashAt},
	})
	err = fw.Run(func(c *mpi.Comm) error {
		store, err := ckptio.NewStore(dir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		// First attempt, checkpointing every cycle.  The crashed rank never
		// returns from this (its goroutine dies); survivors get a typed
		// error out of Guard.
		werr := mpi.Guard(func() error {
			s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
			bindStore(s, store, 1)
			cycles, relres := s.Solve(b, x, p.Rtol, p.MaxCycles)
			if c.Rank() == 0 {
				res.CyclesAfter, res.RelRes = cycles, relres
				res.Survivors, res.Recovered = n, true
			}
			return nil
		})
		if werr == nil {
			return nil // crash fell after convergence; nothing to recover
		}
		if !recoverable(werr) {
			return werr
		}

		// Recovery: revoke (so survivors blocked on us fail over promptly),
		// shrink, re-decompose, restore, resume.
		c.Revoke()
		nc, serr := c.Shrink()
		if serr != nil {
			return serr
		}
		return mpi.Guard(func() error {
			s, b, x := mgSetup(nc, p, petsc.ScatterDatatype)
			bindStore(s, store, 0)
			// A survivor may have entered recovery before rank 0 published
			// the last commit record, so the survivors agree on the cycle.
			base := agreeRestoreBase(nc, store, p.MaxCycles)
			if base == 0 {
				return fmt.Errorf("no usable checkpoint at crash time")
			}
			_, r0, rerr := s.RestoreAt(base, x)
			if rerr != nil {
				return rerr
			}
			// Resuming against the original r0 keeps rtol meaning what it
			// meant before the crash.
			cycles, relres := s.SolveFrom(b, x, p.Rtol, p.MaxCycles, base, r0)
			if nc.Rank() == 0 {
				res.CheckpointAt = base
				res.Survivors = nc.Size()
				res.CyclesAfter = cycles
				res.RelRes = relres
				res.Recovered = relres <= p.Rtol
			}
			return nil
		})
	})
	if err != nil {
		panic(err)
	}
	res.Seconds = fw.MaxClock()
	return res
}
