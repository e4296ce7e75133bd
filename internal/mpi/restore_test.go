package mpi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"nccd/internal/simnet"
)

// TestRespawnRestoreFullSize is the self-healing loop in miniature, the
// full-size counterpart of TestShrinkAfterCrash: rank 2 crashes mid-run, a
// supervisor goroutine respawns it, and survivors plus replacement meet in
// Restore — which re-admits the replacement, commits epoch 1, and returns
// a full-size communicator that immediately carries collectives again.
func TestRespawnRestoreFullSize(t *testing.T) {
	const n = 4
	fp := &simnet.FaultPlan{CrashAt: map[int]float64{2: 1e-6}}
	w := faultWorld(n, Baseline(), fp)

	verify := func(c *Comm) error {
		if c.Size() != n {
			return fmt.Errorf("restored comm spans %d ranks, want %d", c.Size(), n)
		}
		if got := c.AllreduceScalar(1, OpSum); got != n {
			return fmt.Errorf("allreduce on restored comm = %v, want %d", got, n)
		}
		c.Barrier()
		return nil
	}

	// The supervisor watches for the death and relaunches rank 2 with the
	// rejoiner flow: no surviving work to abandon, straight to Restore.
	supDone := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for w.Alive(2) {
			if time.Now().After(deadline) {
				supDone <- errors.New("rank 2 never died")
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		supDone <- w.Respawn(2, func(c *Comm) error {
			nc, err := c.Restore(1, 5*time.Second)
			if err != nil {
				return err
			}
			return verify(nc)
		})
	}()

	err := w.Run(func(c *Comm) error {
		werr := Guard(func() error {
			for i := 0; i < 50; i++ {
				c.Barrier()
				c.Compute(1e-6)
			}
			return nil
		})
		if c.Rank() == 2 {
			return errors.New("scheduled crash did not fire")
		}
		if werr == nil {
			return errors.New("crash went unnoticed")
		}
		if !errors.Is(werr, ErrRankFailed) && !errors.Is(werr, ErrRevoked) {
			return fmt.Errorf("unexpected failure kind: %w", werr)
		}
		c.Revoke()
		nc, rerr := c.Restore(1, 5*time.Second)
		if rerr != nil {
			return rerr
		}
		return verify(nc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if serr := <-supDone; serr != nil {
		t.Fatalf("supervisor: %v", serr)
	}
	if crashed := w.CrashedRanks(); len(crashed) != 1 || crashed[0] != 2 {
		t.Fatalf("CrashedRanks = %v, want [2]", w.CrashedRanks())
	}
	if w.Epoch() != 1 {
		t.Fatalf("world epoch = %d, want 1", w.Epoch())
	}
}

// TestRespawnRejects: the guard rails — out-of-range rank, still-running
// rank, no Run in flight.
func TestRespawnRejects(t *testing.T) {
	w := faultWorld(2, Baseline(), nil)
	if err := w.Respawn(0, nil); err == nil {
		t.Fatal("Respawn with no Run in flight succeeded")
	}
	if err := w.Respawn(7, nil); err == nil {
		t.Fatal("Respawn of out-of-range rank succeeded")
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := w.Respawn(1, nil); err == nil {
				return errors.New("Respawn of running rank succeeded")
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreTimeout: with no supervisor, survivors' Restore must give up
// with a timeout naming the rank that never rejoined, not hang.
func TestRestoreTimeout(t *testing.T) {
	fp := &simnet.FaultPlan{CrashAt: map[int]float64{1: 1e-6}}
	w := faultWorld(2, Baseline(), fp)
	err := w.Run(func(c *Comm) error {
		werr := Guard(func() error {
			for i := 0; i < 50; i++ {
				c.Barrier()
				c.Compute(1e-6)
			}
			return nil
		})
		if c.Rank() == 1 {
			return errors.New("scheduled crash did not fire")
		}
		if werr == nil {
			return errors.New("crash went unnoticed")
		}
		c.Revoke()
		_, rerr := c.Restore(1, 50*time.Millisecond)
		var te *TimeoutError
		if !errors.As(rerr, &te) || te.Rank != 1 {
			return fmt.Errorf("Restore without a respawn: %v, want timeout naming rank 1", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPeerUpRestartsDuplicateWatermark: a replacement of rank 1 numbers its
// reliable sends from zero again.  Once its reconnection is reported, rank 0
// must accept its sequence 0, although it accepted sequence 5 from the
// previous incarnation; left at 6, the watermark would reject everything the
// replacement sends as a duplicate.
func TestPeerUpRestartsDuplicateWatermark(t *testing.T) {
	w := faultWorld(2, Baseline(), nil)
	msg := func(seq uint64) *envelope {
		data := []byte("replaced")
		return &envelope{ctx: 1, src: 1, data: data, reliable: true, wsrc: 1, seq: seq,
			sum: crc32.ChecksumIEEE(data)}
	}
	w.deliver(0, msg(5))
	w.onPeerUp(1)
	w.deliver(0, msg(0))
	if got, dups := len(w.procs[0].queue), w.DuplicateRejects(); got != 2 || dups != 0 {
		t.Fatalf("%d messages queued and %d rejected as duplicates, want 2 and 0", got, dups)
	}
}
