// Command mgsolve drives the paper's Section 5.5 application, the 3-D
// Laplacian multigrid solve, outside the virtual-time figure sweep (that is
// repro -fig 17).  It needs a mode flag; without one, or with flag values no
// run could use, it says so in one line and exits 2 before anything is
// spawned.
//
// With -tcp N it acts as a launcher: it spawns N nccdd rank daemons as
// separate OS processes connected over TCP localhost, runs the solve across
// them, and verifies the distributed residual history bitwise against an
// in-process reference run.
//
// With -tcp N -selfheal it also supervises the daemons — durable
// checkpoints, heartbeat failure detection, respawn of dead ranks into a
// regrown full-size world — and -chaos smoke-tests that path by killing
// -killrank after its first checkpoint and demanding a bitwise-identical
// resumed history.
//
// With -trace or -analyze (and no -tcp) it runs one traced in-process solve
// on -np ranks; -servestress and -submit drive the multi-tenant service.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
	"nccd/internal/core"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
	"nccd/internal/simnet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, refuses a bad invocation with one stderr line and exit 2
// before any daemon is spawned or world built, and runs the selected mode.
// stdout and stderr receive what run and the in-process traced solve print;
// the modes that spawn daemons stream to the process's own descriptors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	extent := fs.Int("extent", bench.DefaultMultigridParams.Extent, "cubic grid extent")
	levels := fs.Int("levels", bench.DefaultMultigridParams.Levels, "multigrid levels")
	rtol := fs.Float64("rtol", bench.DefaultMultigridParams.Rtol, "relative tolerance")
	maxCycles := fs.Int("maxcycles", bench.DefaultMultigridParams.MaxCycles, "V-cycle cap")
	tcp := fs.Int("tcp", 0, "spawn N rank daemons as OS processes over TCP localhost; with -pernode K this is the NODE count and N*K daemons are spawned")
	perNode := fs.Int("pernode", 1, "co-located ranks per node for -tcp runs: >1 gives each node K ranks sharing a memory segment, TCP only between nodes")
	daemon := fs.String("daemon", "", "path to the nccdd binary (default: next to mgsolve, then PATH)")
	arm := fs.String("arm", "compiled", "experimental arm for -tcp runs: baseline, optimized, compiled or hand")
	drop := fs.Float64("drop", 0, "message drop probability per transmission attempt, on every link (the runtime retransmits)")
	corrupt := fs.Float64("corrupt", 0, "message corruption probability per attempt")
	dup := fs.Float64("dup", 0, "message duplication probability per attempt")
	delayMean := fs.Float64("delaymean", 0, "mean injected message delay in seconds")
	seed := fs.Uint64("seed", 1, "fault plan seed")
	noVerify := fs.Bool("noverify", false, "skip the in-process reference comparison after a -tcp run")
	trace := fs.String("trace", "", "write a merged Chrome trace JSON here (with -tcp: per-rank files <path>.rank<N> are merged; without: one traced in-process solve)")
	np := fs.Int("np", 4, "rank count for a traced in-process solve (-trace without -tcp)")
	metrics := fs.String("metrics", "", "write a JSON snapshot of the process metrics registry here after the run")
	analyzeFlag := fs.Bool("analyze", false, "run the cross-rank analyzer after the solve: message matching, wait states, critical path, communication matrix; with -tcp it collects per-rank span files and exits nonzero on any unmatched message edge")
	selfheal := fs.Bool("selfheal", false, "run the -tcp daemons with durable checkpoints and the epoch/rejoin recovery protocol")
	chaos := fs.Bool("chaos", false, "self-healing smoke test: SIGKILL -killrank after its first checkpoint, respawn it, and require full-size recovery (implies -selfheal)")
	killRank := fs.Int("killrank", 2, "the rank -chaos kills")
	ckptDir := fs.String("ckpt", "", "shared durable checkpoint directory for -selfheal runs (default: a fresh temp dir)")
	ckptEvery := fs.Int("ckptevery", 1, "checkpoint period in V-cycles for -selfheal runs")
	// 25 ms × the detectors' 9-interval hard-failure threshold gives a
	// 225 ms failure window: wide enough that a scheduler stall on a loaded
	// host (observed at ~100-150 ms with four local daemons) does not read
	// as a mass failure, yet still a small fraction of any solve's runtime.
	hb := fs.Duration("hb", 25*time.Millisecond, "heartbeat interval for -selfheal failure detection (0 = rely on connection loss only)")
	aggr := fs.Int("aggr", 2, "checkpoint aggregator rank count for -selfheal runs")
	stripe := fs.Int64("stripe", 256<<10, "checkpoint file stripe size in bytes for -selfheal runs")
	ioFault := fs.String("iofault", "", "checkpoint I/O fault spec forwarded to every daemon, e.g. short=0.2,eio=0.1,fsync=0.1,enospc=65536,seed=7")
	serveStress := fs.Int("servestress", 0, "spawn an N-rank nccdd -serve fleet and stress the multi-tenant service: 1 huge + -servejobs small concurrent jobs, SIGKILL one rank mid-run, bitwise verification of every completed job, healed-resume / overload / cancel / drain checks; exit 3 = unexpected overload, 4 = job failed, 5 = unexpected cancel")
	serveJobs := fs.Int("servejobs", 8, "small concurrent jobs in the -servestress run")
	serveKill := fs.Int("servekill", -1, "mesh rank -servestress SIGKILLs mid-run (-1 = last rank; 0 is refused — it hosts the controller)")
	submit := fs.String("submit", "", "submit one job (the -extent/-levels/-rtol/-maxcycles problem) to a running service at this base URL, wait, and exit 0 completed / 3 overloaded / 4 failed / 5 canceled")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "mgsolve: %v\n", err)
		return 2
	}
	cfg, mode, err := bench.ArmByName(*arm)
	if err != nil {
		return usage(err)
	}
	p := bench.MultigridParams{Extent: *extent, Levels: *levels, Rtol: *rtol, MaxCycles: *maxCycles}
	code := 0
	switch {
	case *submit != "":
		code = runServeSubmit(*submit, p)
	case *serveStress > 0:
		code = runServeStress(serveStressConfig{
			n: *serveStress, smallJobs: *serveJobs, killRank: *serveKill,
			daemon: *daemon, arm: *arm,
		})
	case *tcp > 0:
		if *perNode < 1 {
			return usage(fmt.Errorf("-pernode %d too small (need >= 1)", *perNode))
		}
		n := *tcp * *perNode
		if *chaos && (*killRank < 0 || *killRank >= n) {
			return usage(fmt.Errorf("-killrank %d out of range [0,%d)", *killRank, n))
		}
		if err := p.Validate(n); err != nil {
			return usage(err)
		}
		wire := simnet.FaultPlan{Drop: *drop, Corrupt: *corrupt, Duplicate: *dup, DelayMean: *delayMean}
		if err := wire.Validate(); err != nil {
			return usage(err)
		}
		if _, err := ckptio.ParseFaultPlan(*ioFault); err != nil {
			return usage(err)
		}
		code = runLauncher(launchConfig{
			n: n, perNode: *perNode, daemon: *daemon, arm: *arm, p: p,
			drop: *drop, corrupt: *corrupt, dup: *dup, delayMean: *delayMean,
			seed: *seed, skipVerify: *noVerify, trace: *trace, analyze: *analyzeFlag,
			selfheal: *selfheal || *chaos, chaos: *chaos, killRank: *killRank,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, hb: *hb,
			aggr: *aggr, stripe: *stripe, ioFault: *ioFault,
		})
	case *trace != "" || *analyzeFlag:
		if err := p.Validate(*np); err != nil {
			return usage(err)
		}
		code = runTracedSolve(*np, core.Arm{Name: *arm, Config: cfg, Mode: mode}, p, *trace, *analyzeFlag, stdout, stderr)
	default:
		return usage(fmt.Errorf("no mode selected: pass -tcp N, -trace FILE, -analyze, -servestress N or -submit URL (the Fig. 17 sweep is repro -fig 17; -h lists every flag)"))
	}
	if *metrics != "" {
		if err := obs.Metrics.WriteSnapshotFile(*metrics); err != nil {
			fmt.Fprintf(stderr, "mgsolve: writing metrics: %v\n", err)
			code = 1
		} else {
			fmt.Fprintln(stdout, "wrote metrics snapshot", *metrics)
		}
	}
	return code
}

// runTracedSolve runs one in-process multigrid solve with tracing enabled,
// writes the Chrome trace (if a path was given), and optionally feeds the
// spans through the cross-rank analyzer.
func runTracedSolve(n int, arm core.Arm, p bench.MultigridParams, path string, doAnalyze bool, stdout, stderr io.Writer) int {
	res, spans, err := bench.TraceMultigrid(n, p, arm, path)
	if err != nil {
		fmt.Fprintf(stderr, "mgsolve: %v\n", err)
		return 1
	}
	if path != "" {
		if err := obs.ValidateChromeTraceFile(path); err != nil {
			fmt.Fprintf(stderr, "mgsolve: trace failed validation: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "traced solve: %d ranks, %d cycles, relres %.3e, %d spans\n",
		n, res.Cycles, res.RelRes, len(spans))
	if path != "" {
		fmt.Fprintf(stdout, "wrote %s (load it at https://ui.perfetto.dev)\n", path)
	}
	if doAnalyze {
		rep := analyze.Analyze(spans, analyze.Options{Ranks: n})
		rep.Render(stdout)
		if rep.UnmatchedSends > 0 || rep.UnmatchedRecvs > 0 {
			fmt.Fprintf(stderr, "mgsolve: %d unmatched sends, %d unmatched recvs\n",
				rep.UnmatchedSends, rep.UnmatchedRecvs)
			return 1
		}
	}
	return 0
}
