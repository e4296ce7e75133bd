package ckptio

import (
	"errors"
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/simnet"
)

// TestRankDeathMidWriteAbortsEverySurvivor kills rank 2 of 4 at 48 points of
// its virtual clock across one collective write.  Wherever the death lands,
// every survivor leaves PutOwned with nil or a typed error, and none is left
// waiting: a survivor that saw the death in the exchanges or the CRC gather
// revokes the communicator before it returns, which releases the gather's
// root and any rank parked in the closing broadcast.
func TestRankDeathMidWriteAbortsEverySurvivor(t *testing.T) {
	const n, victim, points = 4, 2, 48
	write := func(c *mpi.Comm, dir string) error {
		st, err := NewStore(dir, nil, Options{StripeBytes: testStripe, Aggregators: 2})
		if err != nil {
			return err
		}
		st.Bind(c, testTotal, testSegs(c.Rank(), n), 1)
		return st.PutOwned(1, 0.5, 1, 0, testData(1, c.Rank(), n))
	}
	world := func(fp *simnet.FaultPlan) *mpi.World {
		cl := simnet.Uniform(n, simnet.IBDDR())
		cl.Faults = fp
		return mpi.NewWorld(cl, mpi.Optimized())
	}

	var from, to float64
	if err := world(nil).Run(func(c *mpi.Comm) error {
		c.Barrier()
		start := c.Clock()
		if err := write(c, t.TempDir()); err != nil {
			return err
		}
		if c.Rank() == victim {
			from, to = start, c.Clock()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for i := range points {
		at := from + (to-from)*float64(i)/points
		err := world(&simnet.FaultPlan{CrashAt: map[int]float64{victim: at}}).Run(func(c *mpi.Comm) error {
			// The opening barrier is guarded too: a survivor that sees the
			// death first revokes c while another may still be in it.
			err := mpi.Guard(func() error {
				c.Barrier()
				return write(c, t.TempDir())
			})
			c.Compute(1) // the victim dies here at the latest: its clock passes any point of the write
			if err != nil && !errors.Is(err, mpi.ErrRankFailed) && !errors.Is(err, mpi.ErrRevoked) {
				return fmt.Errorf("rank %d left the write with %w", c.Rank(), err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("rank %d dead at %.3g of the write: %v", victim, float64(i)/points, err)
		}
	}
}
