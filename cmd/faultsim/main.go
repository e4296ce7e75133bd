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
//     decomposition's file view (or from scratch when the crash comes
//     before the first checkpoint).
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
	"io"
	"os"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
)

// ioMatrix runs the in-process collective-checkpoint chaos harness under
// each fault spec and returns the number of failed cells.
func ioMatrix(n int, p bench.MultigridParams, stdout, stderr io.Writer) int {
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
			fmt.Fprintf(stderr, "faultsim: %s: %v\n", sp.name, err)
			return 1
		}
		run, err := bench.RunMultigridSelfHeal(n, p, n/2, 0.5, nil,
			ckptio.Options{StripeBytes: 4096, Aggregators: 2, Faults: plan})
		switch {
		case err != nil:
			fmt.Fprintf(stdout, "  %-13s FAIL: %v\n", sp.name, err)
			failed++
		case !run.Result.Healed || !run.HistoryMatches:
			fmt.Fprintf(stdout, "  %-13s FAIL: healed=%v historyMatches=%v restoredAt=%d\n",
				sp.name, run.Result.Healed, run.HistoryMatches, run.Result.RestoredAt)
			failed++
		default:
			fmt.Fprintf(stdout, "  %-13s ok: healed at full size, restored from cycle %d, history bitwise-identical\n",
				sp.name, run.Result.RestoredAt)
		}
	}
	return failed
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// checkArgs rejects what would otherwise panic inside a world (or, for a
// crash rank nobody holds, silently exercise nothing).  The restarted solve
// runs on the survivors, so the shape must fit both decompositions.
func checkArgs(procs, crashRank int, crashFrac float64, p bench.MultigridParams) error {
	switch {
	case procs < 1:
		return fmt.Errorf("-procs %d too small (need >= 1)", procs)
	case crashRank < 0 || crashRank >= procs:
		return fmt.Errorf("-crash-rank %d out of range [0,%d)", crashRank, procs)
	case !(crashFrac > 0): // also NaN
		return fmt.Errorf("-crash-frac %v must be positive", crashFrac)
	}
	if err := p.Validate(procs); err != nil || procs == 1 {
		return err
	}
	return p.Validate(procs - 1)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "process count")
	extent := fs.Int("extent", 100, "cubic grid extent for the crash demo")
	levels := fs.Int("levels", 3, "multigrid levels")
	rtol := fs.Float64("rtol", 1e-6, "relative tolerance")
	crashRank := fs.Int("crash-rank", -1, "rank to crash (default procs-1)")
	crashFrac := fs.Float64("crash-frac", 0.5, "crash time as a fraction of the clean solve")
	seed := fs.Uint64("seed", 20250806, "fault plan seed")
	iters := fs.Int("iters", 10, "iterations per overhead measurement")
	ioMat := fs.Bool("iomatrix", false, "sweep injected checkpoint-I/O faults over the collective checkpoint layer (small grid, rank kill mid-solve)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	p := bench.MultigridParams{Extent: *extent, Levels: *levels, Rtol: *rtol, MaxCycles: 50}
	rank := *crashRank
	if rank == -1 {
		rank = *procs - 1
	}
	if err := checkArgs(*procs, rank, *crashFrac, p); err != nil {
		fmt.Fprintf(stderr, "faultsim: %v\n", err)
		return 2
	}

	if *ioMat {
		p := bench.MultigridParams{Extent: 16, Levels: 2, Rtol: *rtol, MaxCycles: 20}
		fmt.Fprintf(stdout, "FAULTSIM: collective checkpoint I/O fault matrix (4 ranks, %d^3 grid, rank kill at 50%%)\n", p.Extent)
		if failed := ioMatrix(4, p, stdout, stderr); failed > 0 {
			fmt.Fprintf(stdout, "  RESULT: %d matrix cells FAILED\n", failed)
			return 1
		}
		fmt.Fprintln(stdout, "  RESULT: every fault cell healed with a bitwise-identical history")
		return 0
	}

	bench.FaultOverhead(*procs, []float64{0.001, 0.01, 0.05}, *iters, *seed).Print(stdout)

	fmt.Fprintf(stdout, "FAULTSIM: %d^3 multigrid on %d ranks, rank %d crashes at %.0f%% of the clean solve\n",
		p.Extent, *procs, rank, 100**crashFrac)
	res, err := bench.RunMultigridFaulted(*procs, p, rank, *crashFrac)
	if err != nil {
		fmt.Fprintf(stderr, "faultsim: %v\n", err)
		return 1
	}
	crashed := res.Survivors < *procs
	fmt.Fprintf(stdout, "  clean solve:    %d cycles, %.4f s virtual\n", res.CleanCycles, res.CleanSeconds)
	fmt.Fprintf(stdout, "  crash injected: t=%.4f s\n", res.CrashAt)
	switch {
	case !crashed:
		fmt.Fprintf(stdout, "  recovery:       none needed — crash fell after convergence\n")
	case res.CheckpointAt == 0:
		fmt.Fprintf(stdout, "  recovery:       shrink to %d survivors, restart from scratch (crash before the first checkpoint)\n",
			res.Survivors)
	default:
		fmt.Fprintf(stdout, "  recovery:       shrink to %d survivors, restart from checkpoint of cycle %d\n",
			res.Survivors, res.CheckpointAt)
	}
	fmt.Fprintf(stdout, "  restarted run:  %d cycles to relative residual %.3e (target %.0e)\n",
		res.CyclesAfter, res.RelRes, p.Rtol)
	fmt.Fprintf(stdout, "  faulted total:  %.4f s virtual (clean %.4f s)\n", res.Seconds, res.CleanSeconds)
	if !res.Recovered {
		fmt.Fprintln(stdout, "  RESULT: solve did NOT converge after the crash")
		return 1
	}
	if crashed {
		fmt.Fprintln(stdout, "  RESULT: solve converged after mid-solve rank crash via Comm.Shrink()")
	} else {
		fmt.Fprintln(stdout, "  RESULT: solve converged before the scheduled crash; no recovery exercised")
	}
	return 0
}
