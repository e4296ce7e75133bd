package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	run(t, 6, Optimized(), func(c *Comm) error {
		sub := c.Split(c.Rank()%2, 0)
		if sub == nil {
			return fmt.Errorf("nil subcomm")
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Comm rank ordering follows world rank (key=0).
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), wantRank)
		}
		// Collective confined to the subcomm: sum of world ranks of my
		// parity class.
		sum := sub.AllreduceScalar(float64(c.Rank()), OpSum)
		want := 0.0
		for r := c.Rank() % 2; r < 6; r += 2 {
			want += float64(r)
		}
		if sum != want {
			return fmt.Errorf("subcomm sum = %v, want %v", sum, want)
		}
		return nil
	})
}

func TestSplitKeyReordersRanks(t *testing.T) {
	run(t, 4, Baseline(), func(c *Comm) error {
		// Reverse ordering via key.
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != c.Size()-1-c.Rank() {
			return fmt.Errorf("rank %d got sub rank %d", c.Rank(), sub.Rank())
		}
		// P2p within the subcomm uses comm ranks.
		if sub.Rank() == 0 {
			sub.Send(sub.Size()-1, 3, []byte{42})
		}
		if sub.Rank() == sub.Size()-1 {
			d, src := sub.Recv(0, 3)
			if d[0] != 42 || src != 0 {
				return fmt.Errorf("subcomm p2p got %v from %d", d, src)
			}
		}
		return nil
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	run(t, 4, Baseline(), func(c *Comm) error {
		var sub *Comm
		if c.Rank() < 2 {
			sub = c.Split(7, 0)
		} else {
			sub = c.Split(-1, 0)
		}
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				return fmt.Errorf("expected 2-rank subcomm")
			}
			sub.Barrier()
		} else if sub != nil {
			return fmt.Errorf("undefined color returned a comm")
		}
		return nil
	})
}

func TestSplitContextsIsolateTraffic(t *testing.T) {
	// A message sent on the parent with the same tag must not be stolen by
	// a subcomm receive and vice versa.
	run(t, 2, Baseline(), func(c *Comm) error {
		sub := c.Split(0, c.Rank()) // same members, fresh context
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("parent"))
			sub.Send(1, 5, []byte("dup"))
			return nil
		}
		// Receive in the opposite order of sending.
		d1, _ := sub.Recv(0, 5)
		d2, _ := c.Recv(0, 5)
		if string(d1) != "dup" || string(d2) != "parent" {
			return fmt.Errorf("context leakage: %q / %q", d1, d2)
		}
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	run(t, 8, Optimized(), func(c *Comm) error {
		half := c.Split(c.Rank()/4, 0)          // two halves of 4
		quarter := half.Split(half.Rank()/2, 0) // four quarters of 2
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		sum := quarter.AllreduceScalar(1, OpSum)
		if sum != 2 {
			return fmt.Errorf("quarter allreduce %v", sum)
		}
		// Collectives on different levels interleave fine.
		half.Barrier()
		c.Barrier()
		quarter.Barrier()
		return nil
	})
}

func TestSplitSingleton(t *testing.T) {
	run(t, 3, Baseline(), func(c *Comm) error {
		solo := c.Split(c.Rank(), 0) // every rank its own color
		if solo.Size() != 1 || solo.Rank() != 0 {
			return fmt.Errorf("singleton wrong: size %d rank %d", solo.Size(), solo.Rank())
		}
		solo.Barrier()
		if s := solo.AllreduceScalar(5, OpSum); s != 5 {
			return fmt.Errorf("singleton allreduce %v", s)
		}
		return nil
	})
}

func TestSplitCollectivesUseSubset(t *testing.T) {
	// An Allgatherv on a subcomm with heavy volume from one member must
	// not involve non-members: check via message stats that non-members
	// sent nothing during the operation.
	w := testWorld(4, Optimized())
	if err := w.Run(func(c *Comm) error {
		sub := c.Split(boolToInt(c.Rank() < 2), 0)
		c.Barrier()
		if c.Rank() >= 2 {
			// Members of color 0 (ranks 2,3) stay idle.
			return nil
		}
		counts := []int{1024, 8}
		recv := make([]byte, 1032)
		sub.Allgatherv(bytes.Repeat([]byte{byte('a' + c.Rank())}, counts[sub.Rank()]), counts, recv)
		if want := append(bytes.Repeat([]byte{'a'}, 1024), bytes.Repeat([]byte{'b'}, 8)...); !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: sub-communicator allgatherv delivered the wrong bytes", c.Rank())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// After the barrier, ranks 2 and 3 should have sent only barrier/split
	// traffic — nothing more than ranks 0/1's non-allgatherv share.
	if w.Stats(2).BytesSent > w.Stats(0).BytesSent {
		t.Fatalf("idle ranks sent more than active ones: %d vs %d",
			w.Stats(2).BytesSent, w.Stats(0).BytesSent)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestGroupAndWorldRank(t *testing.T) {
	run(t, 4, Baseline(), func(c *Comm) error {
		g := c.Group()
		if len(g) != 4 || g[2] != 2 {
			return fmt.Errorf("world group wrong: %v", g)
		}
		sub := c.Split(c.Rank()%2, 0)
		sg := sub.Group()
		if len(sg) != 2 || sg[sub.Rank()] != c.Rank() {
			return fmt.Errorf("sub group wrong: %v (rank %d)", sg, sub.Rank())
		}
		return nil
	})
}
