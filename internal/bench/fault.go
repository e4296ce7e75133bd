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
	CheckpointAt int     // V-cycle the restored checkpoint was taken at; 0 = restarted from scratch
	Survivors    int     // communicator size after Shrink; the world size when the crash fell after convergence
	CyclesAfter  int     // V-cycles the restarted solve needed
	RelRes       float64 // final residual relative to the original r0
	Seconds      float64 // virtual time of the faulted run, recovery included
	Recovered    bool
	// HistoryMatches: the restarted History is the clean solve's from
	// CheckpointAt on, bit for bit (CheckHistory).
	HistoryMatches bool
}

// recoverable reports whether an error is one the ULFM-style recovery loop
// handles: a peer failure, a revoked communicator, or a watchdog abort of
// ranks left waiting on a peer that died.
func recoverable(err error) bool {
	return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked) || errors.Is(err, mpi.ErrDeadlock)
}

// RunMultigridFaulted runs the Section 5.5 multigrid solve (Figure 17's
// workload) with a rank crash injected at crashFrac of the clean solve's
// virtual duration, and drives the shrink recovery loop: the failure
// unwinds through MultigridRank, which revokes the solver's communicators
// so no rank stays blocked; the survivors agree on their set via Shrink and
// resume on the shrunk communicator (MultigridRank's Resume: a fresh
// hierarchy on the re-decomposition, the store rebound to its file view,
// the newest checkpoint every survivor can read restored, or cycle 0 when
// the crash came before the first one) and iterate to the original
// tolerance.
func RunMultigridFaulted(n int, p MultigridParams, crashRank int, crashFrac float64) (FaultedMultigridResult, error) {
	var res FaultedMultigridResult

	// Clean reference: calibrates the crash time and the expected result.
	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	clean := RunMultigridWorld(w, p, petsc.ScatterDatatype)
	res.CleanCycles = clean.Cycles
	res.CleanSeconds = w.MaxClock()
	res.CrashAt = crashFrac * res.CleanSeconds

	dir, err := os.MkdirTemp("", "nccd-faulted-ckpt-*")
	if err != nil {
		return res, err
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
		record := func(cc *mpi.Comm, r MultigridResult) {
			if cc.Rank() == 0 {
				res.CheckpointAt = r.Restored
				res.Survivors = cc.Size()
				res.CyclesAfter = r.Cycles
				res.RelRes = r.RelRes
				res.Recovered = r.RelRes <= p.Rtol
				res.HistoryMatches = CheckHistory(r.History, clean.History, r.Restored) == nil
			}
		}
		// First attempt, checkpointing every cycle.  The crashed rank never
		// returns from this (its goroutine dies); survivors get a typed
		// error out of Guard.
		var r MultigridResult
		werr := mpi.Guard(func() (err error) {
			r, err = MultigridRank(c, p, petsc.ScatterDatatype, MultigridRankOptions{Store: store, CheckpointEvery: 1})
			return err
		})
		if werr == nil {
			record(c, r) // crash fell after convergence; nothing to recover
			return nil
		}
		if !recoverable(werr) {
			return werr
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		// Resuming against the original r0 keeps rtol meaning what it meant
		// before the crash.
		r, err = MultigridRank(nc, p, petsc.ScatterDatatype, MultigridRankOptions{Store: store, Resume: true})
		record(nc, r)
		return err
	})
	if err != nil {
		return res, err
	}
	res.Seconds = fw.MaxClock()
	return res, nil
}
