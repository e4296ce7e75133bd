package bench

import (
	"errors"
	"fmt"

	"nccd/internal/mpi"
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

// recoverable reports whether an error is one the self-healing loop
// handles: a peer failure, a revoked communicator, or a watchdog abort of
// ranks left waiting on a peer that died.
func recoverable(err error) bool {
	return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked) || errors.Is(err, mpi.ErrDeadlock)
}
