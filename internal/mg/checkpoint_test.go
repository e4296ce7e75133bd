package mg

import (
	"fmt"
	"testing"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// TestCheckpointNaturalRoundTrip is the recovery-path data property: a
// checkpoint written collectively at full world size restores BITWISE
// under other decompositions — onto a shrunken sub-communicator (as after
// a failure) whose ranks rebind the store to their new file view, and,
// through a fresh store handle (as a respawned process opens one), onto
// the regrown full-size world.  dmda.GatherNatural is the decomposition-
// independent oracle.  Any representation loss along that chain would
// silently fork the resumed solve's history.
func TestCheckpointNaturalRoundTrip(t *testing.T) {
	const n, m = 4, 2 // full world size, shrunken size
	ext := []int{16, 12, 8}
	dir := t.TempDir()
	// 1 KiB stripes cut the 12 KiB file domain into many stripes over two
	// aggregators, so every restore sieves across stripe boundaries.
	opt := ckptio.Options{StripeBytes: 1024, Aggregators: 2}

	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		st, err := ckptio.NewStore(dir, nil, opt)
		if err != nil {
			return err
		}
		// A partial solve at full size produces genuine checkpoints; the
		// last one is taken after the final cycle, so x is its content.
		s := New(c, ext, 2, petsc.ScatterDatatype)
		s.CheckpointTo(st, 2)
		b, x := s.CreateVec(), s.CreateVec()
		ba := b.Array()
		for i := range ba {
			ba[i] = float64(c.Rank()*1000+i) / 97.0
		}
		s.Solve(b, x, 1e-30, 4) // tolerance unreachable: all 4 cycles run
		if its := st.Iterations(); len(its) != 2 || its[0] != 2 || its[1] != 4 {
			return fmt.Errorf("retained iterations %v, want [2 4]", its)
		}
		want := s.DA(0).GatherNatural(x)
		same := func(what string, got []float64) error {
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s round-trip differs at %d: %v vs %v", what, i, got[i], want[i])
				}
			}
			return nil
		}

		// Restore onto a shrunken sub-world, the post-failure decomposition.
		color := 0
		if c.Rank() >= m {
			color = -1
		}
		if sub := c.Split(color, 0); sub != nil {
			ss := New(sub, ext, 2, petsc.ScatterDatatype)
			ss.CheckpointTo(st, 0)
			x2 := ss.CreateVec()
			if _, _, err := ss.SolveFrom(ss.CreateVec(), x2, 0, 0, 4); err != nil {
				return fmt.Errorf("restore on shrunken world: %w", err)
			}
			if err := same("shrink", ss.DA(0).GatherNatural(x2)); err != nil {
				return err
			}
		}
		c.Barrier()

		// Reopen the directory with a fresh handle, as a respawned process
		// would, and restore onto the regrown full-size world.
		st2, err := ckptio.NewStore(dir, nil, opt)
		if err != nil {
			return err
		}
		rs := New(c, ext, 2, petsc.ScatterDatatype)
		rs.CheckpointTo(st2, 0)
		b3, x3 := rs.CreateVec(), rs.CreateVec()
		cycles, residual, err := rs.SolveFrom(b3, x3, 0, 0, 4)
		if err != nil {
			return fmt.Errorf("restore after respawn-style reopen: %w", err)
		}
		if cycles != 0 || residual != s.History[3] {
			return fmt.Errorf("restore ran %d iterations to residual %v, want none from the checkpoint's %v", cycles, residual, s.History[3])
		}
		if _, _, err := rs.SolveFrom(b3, x3, 0, 0, 3); err == nil {
			return fmt.Errorf("restore of iteration 3 invented a checkpoint")
		}
		return same("regrow", rs.DA(0).GatherNatural(x3))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolveFromMatchesUninterrupted: resuming from a checkpoint with the
// original r0 and base iteration reproduces the fault-free run's residual
// history exactly from the restored iteration on — same world size, same
// decomposition, so the arithmetic is identical and the comparison is
// bitwise.  Conjugate gradients resume from the three vectors x, r and p and
// ρ; the Richardson iteration from x alone.
func TestSolveFromMatchesUninterrupted(t *testing.T) {
	for _, richardson := range []bool{false, true} {
		t.Run(fmt.Sprintf("richardson=%v", richardson), func(t *testing.T) {
			checkSolveFrom(t, richardson)
		})
	}
}

func checkSolveFrom(t *testing.T, richardson bool) {
	ext := []int{16, 16}
	dir := t.TempDir()
	w := mpi.NewWorld(simnet.Uniform(4, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		mk := func() (*Solver, *petsc.Vec, *petsc.Vec) {
			s := New(c, ext, 2, petsc.ScatterDatatype)
			s.Richardson = richardson
			b, x := s.CreateVec(), s.CreateVec()
			ba := b.Array()
			for i := range ba {
				ba[i] = float64(c.Rank()*37+i) / 13.0
			}
			return s, b, x
		}

		// Reference: 8 uninterrupted iterations.
		ref, rb, rx := mk()
		ref.Solve(rb, rx, 1e-30, 8)
		refHist := append([]float64(nil), ref.History...)

		// Interrupted: run with checkpoints, resume a new solver from the
		// iteration-4 snapshot with SolveFrom.
		st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		s, b, x := mk()
		s.CheckpointTo(st, 2)
		s.Solve(b, x, 1e-30, 5)

		const base = 4
		rs, b2, x2 := mk()
		rs.CheckpointTo(st, 0)
		cycles, _, err := rs.SolveFrom(b2, x2, 1e-30, 4, base)
		if err != nil {
			return fmt.Errorf("no iteration-%d checkpoint: %w", base, err)
		}
		if cycles != 4 {
			return fmt.Errorf("resumed %d iterations, want 4", cycles)
		}
		for i, v := range rs.History {
			if refv := refHist[base+i]; v != refv {
				return fmt.Errorf("resumed iteration %d residual %v, fault-free %v", base+i+1, v, refv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAtOtherRankCount: a conjugate-gradient checkpoint written at
// np = 4 and restored at np = 3 resumes the one-rank solve's History bit for
// bit from the restored iteration on: the three vectors travel in natural
// order, ρ in the commit, and no inner product depends on the decomposition.
func TestRestoreAtOtherRankCount(t *testing.T) {
	const base, iterations = 4, 8
	k := kernelShape{n: []int{16, 16, 16}, levels: 2, mode: petsc.ScatterDatatype, cfg: mpi.Compiled()}
	dir := t.TempDir()
	solve := func(np int, body func(c *mpi.Comm, s *Solver, b, x *petsc.Vec) error) {
		k.np = np
		if !k.feasible() {
			t.Fatalf("%v: no process grid", k)
		}
		runWorld(t, np, k.cfg, func(c *mpi.Comm) error {
			s := k.solver(c)
			b, x := s.CreateVec(), s.CreateVec()
			setManufactured(s, b)
			return body(c, s, b, x)
		})
	}
	var want []float64
	solve(1, func(_ *mpi.Comm, s *Solver, b, x *petsc.Vec) error {
		s.Solve(b, x, 1e-30, iterations)
		want = append([]float64(nil), s.History...)
		return nil
	})
	solve(4, func(_ *mpi.Comm, s *Solver, b, x *petsc.Vec) error {
		st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		s.CheckpointTo(st, base)
		s.Solve(b, x, 1e-30, base+1)
		return nil
	})
	got := make([][]float64, 3)
	solve(3, func(c *mpi.Comm, s *Solver, b, x *petsc.Vec) error {
		st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		s.CheckpointTo(st, 0)
		if _, _, err := s.SolveFrom(b, x, 1e-30, iterations-base, base); err != nil {
			return err
		}
		got[c.Rank()] = append([]float64(nil), s.History...)
		return nil
	})
	for r, h := range got {
		if err := bitsDiffer(fmt.Sprintf("rank %d resumed history", r), h, want[base:]); err != nil {
			t.Fatal(err)
		}
	}
}
