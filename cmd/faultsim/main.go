// Command faultsim demonstrates the fault-injection and fault-tolerance
// subsystem end to end:
//
//  1. the reliability layer: the outlier Allgatherv microbenchmark under a
//     sweep of link drop/duplication rates, reporting the virtual-time
//     overhead of ack/retransmission against a clean run (results stay
//     bytewise identical — see the property tests in internal/mpi);
//  2. solver-level recovery: the Figure 17 multigrid solve (100^3 grid by
//     default) with a rank crash injected mid-solve, recovered via
//     Comm.Revoke + Comm.Shrink, re-decomposition over the survivors, and
//     restart from the newest checkpoint, sieve-read through the shrunk
//     decomposition's file view.
//
// With -iomatrix it instead sweeps injected checkpoint-I/O faults (short
// writes, EIO, fsync failure, ENOSPC, filesystem crash) over the collective
// checkpoint layer while a rank is killed mid-solve: every cell of the
// matrix must still heal with a bitwise-identical resumed history — an
// aborted checkpoint epoch may cost a restore point, never correctness.
package main

import (
	"flag"
	"fmt"
	"os"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
)

// ioMatrix runs the in-process collective-checkpoint chaos harness under
// each fault spec and returns the number of failed cells.
func ioMatrix(n int, p bench.MultigridParams) int {
	specs := []struct{ name, spec string }{
		{"clean", ""},
		{"short-writes", "short=0.3,seed=11"},
		{"eio", "eio=0.2,seed=12"},
		{"fsync-fail", "fsync=0.3,seed=13"},
		{"enospc", "enospc=262144,seed=14"},
		{"fs-crash", "crash=40,seed=15"},
	}
	failed := 0
	for _, sp := range specs {
		plan, err := ckptio.ParseFaultPlan(sp.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultsim: %s: %v\n", sp.name, err)
			return 1
		}
		run, err := bench.RunMultigridSelfHeal(n, p, n/2, 0.5, nil,
			ckptio.Options{StripeBytes: 4096, Aggregators: 2, Faults: plan})
		switch {
		case err != nil:
			fmt.Printf("  %-13s FAIL: %v\n", sp.name, err)
			failed++
		case !run.Result.Healed || !run.HistoryMatches:
			fmt.Printf("  %-13s FAIL: healed=%v historyMatches=%v restoredAt=%d\n",
				sp.name, run.Result.Healed, run.HistoryMatches, run.Result.RestoredAt)
			failed++
		default:
			fmt.Printf("  %-13s ok: healed at full size, restored from cycle %d, history bitwise-identical\n",
				sp.name, run.Result.RestoredAt)
		}
	}
	return failed
}

func main() {
	procs := flag.Int("procs", 16, "process count")
	extent := flag.Int("extent", 100, "cubic grid extent for the crash demo")
	levels := flag.Int("levels", 3, "multigrid levels")
	rtol := flag.Float64("rtol", 1e-6, "relative tolerance")
	crashRank := flag.Int("crash-rank", -1, "rank to crash (default procs-1)")
	crashFrac := flag.Float64("crash-frac", 0.5, "crash time as a fraction of the clean solve")
	seed := flag.Uint64("seed", 20250806, "fault plan seed")
	iters := flag.Int("iters", 10, "iterations per overhead measurement")
	ioMat := flag.Bool("iomatrix", false, "sweep injected checkpoint-I/O faults over the collective checkpoint layer (small grid, rank kill mid-solve)")
	flag.Parse()

	if *ioMat {
		p := bench.MultigridParams{Extent: 16, Levels: 2, Rtol: *rtol, MaxCycles: 20}
		fmt.Printf("FAULTSIM: collective checkpoint I/O fault matrix (4 ranks, %d^3 grid, rank kill at 50%%)\n", p.Extent)
		if failed := ioMatrix(4, p); failed > 0 {
			fmt.Printf("  RESULT: %d matrix cells FAILED\n", failed)
			os.Exit(1)
		}
		fmt.Println("  RESULT: every fault cell healed with a bitwise-identical history")
		return
	}

	bench.FaultOverhead(*procs, []float64{0.001, 0.01, 0.05}, *iters, *seed).Print(os.Stdout)

	rank := *crashRank
	if rank < 0 {
		rank = *procs - 1
	}
	p := bench.MultigridParams{Extent: *extent, Levels: *levels, Rtol: *rtol, MaxCycles: 50}
	fmt.Printf("FAULTSIM: %d^3 multigrid on %d ranks, rank %d crashes at %.0f%% of the clean solve\n",
		p.Extent, *procs, rank, 100**crashFrac)
	res := bench.RunMultigridFaulted(*procs, p, rank, *crashFrac)
	fmt.Printf("  clean solve:    %d cycles, %.4f s virtual\n", res.CleanCycles, res.CleanSeconds)
	fmt.Printf("  crash injected: t=%.4f s\n", res.CrashAt)
	if res.CheckpointAt == 0 {
		// A checkpoint is always stamped with cycle >= 1, so zero means the
		// first attempt converged before the scheduled crash time.
		fmt.Printf("  recovery:       none needed — crash fell after convergence\n")
	} else {
		fmt.Printf("  recovery:       shrink to %d survivors, restart from checkpoint of cycle %d\n",
			res.Survivors, res.CheckpointAt)
	}
	fmt.Printf("  restarted run:  %d cycles to relative residual %.3e (target %.0e)\n",
		res.CyclesAfter, res.RelRes, p.Rtol)
	fmt.Printf("  faulted total:  %.4f s virtual (clean %.4f s)\n", res.Seconds, res.CleanSeconds)
	if !res.Recovered {
		fmt.Println("  RESULT: solve did NOT converge after the crash")
		os.Exit(1)
	}
	if res.CheckpointAt == 0 {
		fmt.Println("  RESULT: solve converged before the scheduled crash; no recovery exercised")
	} else {
		fmt.Println("  RESULT: solve converged after mid-solve rank crash via Comm.Shrink()")
	}
}
