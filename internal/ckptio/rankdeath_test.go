package ckptio

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/simnet"
)

// TestRankDeathMidWriteAbortsEverySurvivor kills rank 2 of 4 at 48 points of
// its virtual clock across one collective write.  Wherever the death lands,
// every survivor leaves PutOwned, and all three then agree on the shrunk
// communicator: a survivor that saw the death in the exchanges or the CRC
// gather joins the failure agreement before it returns, so none is left
// waiting there for a rank that has gone on to recover.
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
			c.Barrier()
			_ = mpi.Guard(func() error { return write(c, t.TempDir()) })
			c.Compute(1) // the victim dies here at the latest: its clock passes any point of the write
			c.Revoke()
			nc, err := c.Shrink()
			for err == nil && nc.Size() == n { // the victim died after the agreement sealed
				nc, err = nc.Shrink()
			}
			if err != nil {
				return err
			}
			if nc.Size() != n-1 {
				return fmt.Errorf("shrunk to %d ranks", nc.Size())
			}
			return mpi.Guard(func() error { nc.Barrier(); return nil })
		})
		if err != nil {
			t.Fatalf("rank %d dead at %.3g of the write: %v", victim, float64(i)/points, err)
		}
	}
}
