package bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// TestSelfHealMultigrid is the in-process end-to-end acceptance path: rank 2
// of a 4-rank multigrid solve is killed mid-solve; the supervisor respawns
// it, the world regrows to full size through an epoch-bumped Restore, and
// the resumed solve reproduces the fault-free run's residual history bitwise
// from the restored cycle on.  The second row keeps the coarsest level on a
// two-rank sub-communicator, which the unwinding solve revokes too.
func TestSelfHealMultigrid(t *testing.T) {
	for _, agg := range []int{0, 256} {
		p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20, AgglomerateCells: agg}
		if agg > 0 && mg.LevelRanks(4, 8*8*8, true, agg) != 2 {
			t.Fatalf("agglomerate %d: coarsest level not on two ranks", agg)
		}
		run, err := RunMultigridSelfHeal(4, p, 2, 0.5, nil, ckptio.Options{})
		if err != nil {
			t.Fatalf("agglomerate %d: %v", agg, err)
		}
		if run.Respawns != 1 {
			t.Fatalf("agglomerate %d: respawns = %d, want 1", agg, run.Respawns)
		}
		res := run.Result
		if !res.Healed || res.Recoveries != 1 || res.Epoch != 1 {
			t.Fatalf("agglomerate %d: healed=%v recoveries=%d epoch=%d", agg, res.Healed, res.Recoveries, res.Epoch)
		}
		if res.FinalSize != 4 {
			t.Fatalf("agglomerate %d: final size %d, want full 4", agg, res.FinalSize)
		}
		if res.RestoredAt <= 0 {
			t.Fatalf("agglomerate %d: restored at %d, want a mid-solve checkpoint", agg, res.RestoredAt)
		}
		if !run.HistoryMatches {
			t.Fatalf("agglomerate %d: resumed history diverged from the fault-free run\nclean: %v\nresumed from %d: %v",
				agg, run.CleanHistory, res.RestoredAt, res.History)
		}
		if run.MTTRSeconds <= 0 {
			t.Fatalf("agglomerate %d: MTTR not measured: %v", agg, run.MTTRSeconds)
		}
	}
}

// TestMultigridRecoversFromCrash checks what the recovered solve delivers:
// rank 2 dies mid-solve, the world regrows, and the solve resumes from a
// mid-solve checkpoint, meets the original tolerance through the clean
// solve's history bit for bit, and needs fewer cycles than a cold start.
// The rows keep the coarsest level on every rank, on a two-rank
// sub-communicator, and spread over all four ranks.
func TestMultigridRecoversFromCrash(t *testing.T) {
	for _, agg := range []int{0, 256, 1} {
		p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 40, AgglomerateCells: agg}
		if want := map[int]int{256: 2, 1: 4}[agg]; want > 0 && mg.LevelRanks(4, 8*8*8, true, agg) != want {
			t.Fatalf("agglomerate %d: coarsest level not on %d ranks", agg, want)
		}
		run, err := RunMultigridSelfHeal(4, p, 2, 0.5, nil, ckptio.Options{})
		if err != nil {
			t.Fatalf("agglomerate %d: %v", agg, err)
		}
		res := run.Result
		if !res.Healed || res.FinalSize != 4 {
			t.Fatalf("agglomerate %d: solve did not recover: %+v", agg, res)
		}
		if !run.HistoryMatches {
			t.Fatalf("agglomerate %d: the restarted history is not the clean solve's: %+v", agg, res)
		}
		if res.RestoredAt < 1 {
			t.Fatalf("agglomerate %d: restart did not use a checkpoint: %+v", agg, res)
		}
		if res.RelRes > p.Rtol*1.01 {
			t.Fatalf("agglomerate %d: recovered solve missed the original tolerance: %+v", agg, res)
		}
		// Restarting from the checkpoint must beat solving from scratch.
		if res.Cycles-res.RestoredAt >= run.CleanCycles {
			t.Fatalf("agglomerate %d: restart gained nothing over a cold start: %+v", agg, res)
		}
	}
}

// TestMultigridRestartsBeforeFirstCheckpoint: a crash before the first
// checkpoint leaves nothing to restore, so the regrown world solves again
// from cycle 0, through the clean solve's history bit for bit.
func TestMultigridRestartsBeforeFirstCheckpoint(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 40}
	run, err := RunMultigridSelfHeal(4, p, 3, 0.01, nil, ckptio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := run.Result
	if run.Respawns != 1 || !res.Healed || res.RestoredAt != 0 || res.Cycles != run.CleanCycles || !run.HistoryMatches {
		t.Fatalf("want a from-scratch restart at full size in %d cycles: respawns=%d %+v", run.CleanCycles, run.Respawns, res)
	}
}

// TestSelfHealEveryKillPoint kills each of ranks 0-3 at every 1% of the
// clean solve's virtual clock.  Every run either finishes before the crash
// fires or heals through the clean history bit for bit; none may return an
// error.  It pins the checkpoint commit: a survivor that has entered the
// collective write must never wait there for one that has unwound into
// Restore.  Under the race detector a strided subset of the points runs.
func TestSelfHealEveryKillPoint(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 40}
	stride := 1
	if raceEnabled {
		stride = 7
	}
	failed, healed, points := 0, 0, 0
	for rank := range 4 {
		for k := 1; k < 100; k += stride {
			run, err := RunMultigridSelfHeal(4, p, rank, float64(k)/100, nil, ckptio.Options{})
			points++
			if err == nil && run.Respawns > 0 {
				healed++
			}
			switch {
			case err != nil:
				t.Errorf("rank %d at %d%%: %v", rank, k, err)
			case run.Respawns > 0 && !run.HistoryMatches:
				t.Errorf("rank %d at %d%%: healed history diverged (restored at %d)", rank, k, run.Result.RestoredAt)
			default:
				continue
			}
			if failed++; failed == 3 {
				t.Fatal("giving up after 3 failed kill points")
			}
		}
	}
	t.Logf("%d kill points: %d healed, %d finished before the crash fired", points, healed, points-healed-failed)
}

// TestSelfHealMultigridLossy repeats the kill under a seeded 1% drop + 1%
// duplication plan: the reliability protocol must absorb the link faults and
// the recovery must still reproduce the reference history exactly.
func TestSelfHealMultigridLossy(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	fp := &simnet.FaultPlan{Seed: 7, Drop: 0.01, Duplicate: 0.01}
	run, err := RunMultigridSelfHeal(4, p, 2, 0.5, fp, ckptio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Respawns != 1 || !run.Result.Healed {
		t.Fatalf("respawns=%d healed=%v", run.Respawns, run.Result.Healed)
	}
	if !run.HistoryMatches {
		t.Fatalf("lossy healed history diverged\nclean: %v\nresumed from %d: %v",
			run.CleanHistory, run.Result.RestoredAt, run.Result.History)
	}
}

// TestSelfHealRankZero kills rank 0 — the rank that reports results — to
// check that a replacement incarnation picks the reporting duty back up.
func TestSelfHealRankZero(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	run, err := RunMultigridSelfHeal(4, p, 0, 0.5, nil, ckptio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Respawns != 1 || !run.Result.Healed {
		t.Fatalf("respawns=%d healed=%v", run.Respawns, run.Result.Healed)
	}
	if !run.HistoryMatches {
		t.Fatalf("history diverged after rank-0 kill (restored at %d)", run.Result.RestoredAt)
	}
}

// TestSelfHealResumesPastCycle511: the restore point is agreed over the
// restored communicator with one entry per possible cycle, so a long solve
// whose retained checkpoints all lie past cycle 511 resumes from the newest
// of them, not from scratch, and still reproduces the fault-free history
// bitwise.  The solve is the Richardson iteration on one level, whose
// residual stalls at the coarse solve's tolerance and so runs all 800
// cycles; conjugate gradients would reach 1e-300 in a few dozen.
func TestSelfHealResumesPastCycle511(t *testing.T) {
	const n, every = 2, 50
	p := MultigridParams{Extent: 8, Levels: 1, Rtol: 1e-300, MaxCycles: 800, Richardson: true}
	clean := NewFaultyWorld(n, mpi.Optimized(), nil)
	var ref []float64
	if err := clean.Run(func(c *mpi.Comm) error {
		s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
		s.Solve(b, x, p.Rtol, p.MaxCycles)
		if c.Rank() == 0 {
			ref = append([]float64(nil), s.History...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Rank 1 dies 90% of the way through, when the four checkpoints the
	// store keeps are all past cycle 511; the supervisor respawns it once.
	fw := NewFaultyWorld(n, mpi.Optimized(), &simnet.FaultPlan{CrashAt: map[int]float64{1: 0.9 * clean.MaxClock()}})
	dir := t.TempDir()
	results := make([]SelfHealResult, n)
	body := func(rejoin uint64) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			store, err := ckptio.NewStore(dir, nil, ckptio.Options{})
			if err != nil {
				return err
			}
			results[c.Rank()], err = SelfHealMultigrid(c, p, petsc.ScatterDatatype, store,
				HealParams{CheckpointEvery: every, RejoinEpoch: rejoin})
			return err
		}
	}
	done := make(chan struct{})
	respawned := make(chan error, 1)
	go func() {
		for len(fw.CrashedRanks()) == 0 {
			select {
			case <-done:
				respawned <- nil
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
		respawned <- fw.Respawn(1, body(1))
	}()
	err := fw.Run(body(0))
	close(done)
	if rerr := <-respawned; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		base := res.RestoredAt
		if base < 512 || base%every != 0 {
			t.Fatalf("rank %d resumed from cycle %d, want the newest checkpoint past 511", r, base)
		}
		if base+len(res.History) != len(ref) {
			t.Fatalf("rank %d: resumed from %d for %d cycles, fault-free run took %d", r, base, len(res.History), len(ref))
		}
		for i, v := range res.History {
			if v != ref[base+i] {
				t.Fatalf("rank %d cycle %d residual %v, fault-free %v", r, base+i+1, v, ref[base+i])
			}
		}
	}
}

// TestMultigridRankResume covers the service's restore-point agreement:
// after a checkpointed run, damage to the newest checkpoint that only ONE
// rank's file view touches makes just that rank lack it, and every rank of
// the resumed run must still agree on the previous checkpoint and
// reproduce the uninterrupted history bitwise from there.  So must they
// where the newest checkpoint is of the other iteration.
func TestMultigridRankResume(t *testing.T) {
	const n = 4
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-30, MaxCycles: 10}
	dir := t.TempDir()
	// 16^3 on 4 ranks splits y and z in two; a 1 KiB stripe is eight
	// 16-value rows, exactly one rank's share of one z-plane, so the
	// file's last stripe belongs to rank 3 alone.
	opt := ckptio.Options{StripeBytes: 1024, Aggregators: 2}
	run := func(p MultigridParams, opts func() (MultigridRankOptions, error)) []MultigridResult {
		t.Helper()
		out := make([]MultigridResult, n)
		err := NewFaultyWorld(n, mpi.Optimized(), nil).Run(func(c *mpi.Comm) error {
			o, err := opts()
			if err != nil {
				return err
			}
			out[c.Rank()], err = MultigridRank(c, p, petsc.ScatterDatatype, o)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	withStore := func(dir string, every int, resume bool) func() (MultigridRankOptions, error) {
		return func() (MultigridRankOptions, error) {
			st, err := ckptio.NewStore(dir, nil, opt)
			return MultigridRankOptions{Store: st, CheckpointEvery: every, Resume: resume}, err
		}
	}
	ref := run(p, func() (MultigridRankOptions, error) { return MultigridRankOptions{}, nil })[0]

	// The interrupted run stops after cycle 6, leaving checkpoints 2, 4, 6.
	short := p
	short.MaxCycles = 6
	run(short, withStore(dir, 2, false))

	// Flip the last byte of the cycle-6 payload.
	data, err := filepath.Glob(filepath.Join(dir, "*c000000006.data"))
	if err != nil || len(data) != 1 {
		t.Fatalf("cycle-6 data file: %v %v", data, err)
	}
	buf, err := os.ReadFile(data[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(data[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	has6 := make([]bool, n)
	err = NewFaultyWorld(n, mpi.Optimized(), nil).Run(func(c *mpi.Comm) error {
		st, err := ckptio.NewStore(dir, nil, opt)
		if err != nil {
			return err
		}
		s, _, _ := mgSetup(c, p, petsc.ScatterDatatype)
		s.CheckpointTo(st, 0)
		for _, it := range st.Iterations() {
			has6[c.Rank()] = has6[c.Rank()] || it == 6
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !has6[0] || !has6[1] || !has6[2] || has6[3] {
		t.Fatalf("ranks holding cycle 6 after the damage: %v, want all but rank 3", has6)
	}

	resumesAt4 := func(what string, dir string) {
		t.Helper()
		for r, res := range run(p, withStore(dir, 2, true)) {
			if res.Restored != 4 {
				t.Fatalf("%s: rank %d resumed from cycle %d, want 4", what, r, res.Restored)
			}
			if len(res.History) != len(ref.History)-4 {
				t.Fatalf("%s: rank %d resumed %d cycles, want %d", what, r, len(res.History), len(ref.History)-4)
			}
			for i, v := range res.History {
				if v != ref.History[4+i] {
					t.Fatalf("%s: rank %d cycle %d residual %v, uninterrupted %v", what, r, 5+i, v, ref.History[4+i])
				}
			}
		}
	}
	resumesAt4("damaged cycle 6", dir)

	// A Richardson checkpoint at cycle 6, newer than the conjugate
	// gradients' at 2 and 4, holds one vector where they hold three: the
	// resumed conjugate-gradient run restores none of it and agrees on 4.
	mixed := t.TempDir()
	short.MaxCycles = 4
	run(short, withStore(mixed, 2, false))
	richardson := p
	richardson.MaxCycles, richardson.Richardson = 6, true
	run(richardson, withStore(mixed, 6, false))
	resumesAt4("newer Richardson checkpoint", mixed)
}
