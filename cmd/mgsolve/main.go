// Command mgsolve drives the paper's Section 5.5 application, the 3-D
// Laplacian multigrid solve, outside the virtual-time figure sweep (that is
// repro -fig 17).  It needs a mode flag; without one it prints usage and
// exits 2.
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
	"os"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

func main() {
	extent := flag.Int("extent", bench.DefaultMultigridParams.Extent, "cubic grid extent")
	levels := flag.Int("levels", bench.DefaultMultigridParams.Levels, "multigrid levels")
	rtol := flag.Float64("rtol", bench.DefaultMultigridParams.Rtol, "relative tolerance")
	maxCycles := flag.Int("maxcycles", bench.DefaultMultigridParams.MaxCycles, "V-cycle cap")
	tcp := flag.Int("tcp", 0, "spawn N rank daemons as OS processes over TCP localhost; with -pernode K this is the NODE count and N*K daemons are spawned")
	perNode := flag.Int("pernode", 1, "co-located ranks per node for -tcp runs: >1 gives each node K ranks sharing a memory segment, TCP only between nodes")
	daemon := flag.String("daemon", "", "path to the nccdd binary (default: next to mgsolve, then PATH)")
	arm := flag.String("arm", "compiled", "experimental arm for -tcp runs: baseline, optimized, compiled or hand")
	drop := flag.Float64("drop", 0, "frame drop probability injected below the TCP framing layer")
	corrupt := flag.Float64("corrupt", 0, "frame corruption probability")
	dup := flag.Float64("dup", 0, "frame duplication probability")
	delayMean := flag.Float64("delaymean", 0, "mean injected frame delay in seconds")
	seed := flag.Uint64("seed", 1, "fault plan seed")
	noVerify := flag.Bool("noverify", false, "skip the in-process reference comparison after a -tcp run")
	trace := flag.String("trace", "", "write a merged Chrome trace JSON here (with -tcp: per-rank files <path>.rank<N> are merged; without: one traced in-process solve)")
	np := flag.Int("np", 4, "rank count for a traced in-process solve (-trace without -tcp)")
	metrics := flag.String("metrics", "", "write a JSON snapshot of the process metrics registry here after the run")
	analyzeFlag := flag.Bool("analyze", false, "run the cross-rank analyzer after the solve: message matching, wait states, critical path, communication matrix; with -tcp it collects per-rank span files and exits nonzero on any unmatched message edge")
	selfheal := flag.Bool("selfheal", false, "run the -tcp daemons with durable checkpoints and the epoch/rejoin recovery protocol")
	chaos := flag.Bool("chaos", false, "self-healing smoke test: SIGKILL -killrank after its first checkpoint, respawn it, and require full-size recovery (implies -selfheal)")
	killRank := flag.Int("killrank", 2, "the rank -chaos kills")
	ckptDir := flag.String("ckpt", "", "shared durable checkpoint directory for -selfheal runs (default: a fresh temp dir)")
	ckptEvery := flag.Int("ckptevery", 1, "checkpoint period in V-cycles for -selfheal runs")
	// 25 ms × 3 misses × the detector's 3× hard-fail factor gives a 225 ms
	// failure window: wide enough that a scheduler stall on a loaded host
	// (observed at ~100-150 ms with four local daemons) does not read as a
	// mass failure, yet still a small fraction of any solve's runtime.
	hb := flag.Duration("hb", 25*time.Millisecond, "heartbeat interval for -selfheal failure detection (0 = rely on connection loss only)")
	hbMiss := flag.Int("hbmiss", 3, "missed heartbeat intervals before a peer is suspected")
	aggr := flag.Int("aggr", 2, "checkpoint aggregator rank count for -selfheal runs")
	stripe := flag.Int64("stripe", 256<<10, "checkpoint file stripe size in bytes for -selfheal runs")
	ioFault := flag.String("iofault", "", "checkpoint I/O fault spec forwarded to every daemon, e.g. short=0.2,eio=0.1,fsync=0.1,enospc=65536,seed=7")
	serveStress := flag.Int("servestress", 0, "spawn an N-rank nccdd -serve fleet and stress the multi-tenant service: 1 huge + -servejobs small concurrent jobs, SIGKILL one rank mid-run, bitwise verification of every completed job, healed-resume / overload / cancel / drain checks; exit 3 = unexpected overload, 4 = job failed, 5 = unexpected cancel")
	serveJobs := flag.Int("servejobs", 8, "small concurrent jobs in the -servestress run")
	serveKill := flag.Int("servekill", -1, "mesh rank -servestress SIGKILLs mid-run (-1 = last rank; 0 is refused — it hosts the controller)")
	submit := flag.String("submit", "", "submit one job (the -extent/-levels/-rtol/-maxcycles problem) to a running service at this base URL, wait, and exit 0 completed / 3 overloaded / 4 failed / 5 canceled")
	flag.Parse()
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
		n := *tcp * max(*perNode, 1)
		checkShape(p, n)
		code = runLauncher(launchConfig{
			n: n, perNode: *perNode, daemon: *daemon, arm: *arm, p: p,
			drop: *drop, corrupt: *corrupt, dup: *dup, delayMean: *delayMean,
			seed: *seed, skipVerify: *noVerify, trace: *trace, analyze: *analyzeFlag,
			selfheal: *selfheal, chaos: *chaos, killRank: *killRank,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, hb: *hb, hbMiss: *hbMiss,
			aggr: *aggr, stripe: *stripe, ioFault: *ioFault,
		})
	case *trace != "" || *analyzeFlag:
		checkShape(p, *np)
		code = runTracedSolve(*np, *arm, p, *trace, *analyzeFlag)
	default:
		fmt.Fprintln(os.Stderr, "mgsolve: no mode selected: pass -tcp N, -trace FILE, -analyze, -servestress N or -submit URL (the Fig. 17 sweep is repro -fig 17)")
		flag.Usage()
		os.Exit(2)
	}
	if *metrics != "" {
		if err := obs.Metrics.WriteSnapshotFile(*metrics); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: writing metrics: %v\n", err)
			code = 1
		} else {
			fmt.Println("wrote metrics snapshot", *metrics)
		}
	}
	os.Exit(code)
}

// checkShape refuses a problem that cannot be solved on n ranks with one
// line and exit 2, before any daemon is spawned or world built.
func checkShape(p bench.MultigridParams, n int) {
	if err := p.Validate(n); err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		os.Exit(2)
	}
}

// runTracedSolve runs one in-process multigrid solve with tracing enabled,
// writes the Chrome trace (if a path was given), and optionally feeds the
// spans through the cross-rank analyzer.
func runTracedSolve(n int, arm string, p bench.MultigridParams, path string, doAnalyze bool) int {
	cfg, mode, err := bench.ArmByName(arm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	res, spans, err := bench.TraceMultigrid(n, p, core.Arm{Name: arm, Config: cfg, Mode: mode}, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	if path != "" {
		if err := obs.ValidateChromeTraceFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: trace failed validation: %v\n", err)
			return 1
		}
	}
	fmt.Printf("traced solve: %d ranks, %d cycles, relres %.3e, %d spans\n",
		n, res.Cycles, res.RelRes, len(spans))
	if path != "" {
		fmt.Printf("wrote %s (load it at https://ui.perfetto.dev)\n", path)
	}
	if doAnalyze {
		rep := analyze.Analyze(spans, analyze.Options{Ranks: n})
		rep.Render(os.Stdout)
		if rep.UnmatchedSends > 0 || rep.UnmatchedRecvs > 0 {
			fmt.Fprintf(os.Stderr, "mgsolve: %d unmatched sends, %d unmatched recvs\n",
				rep.UnmatchedSends, rep.UnmatchedRecvs)
			return 1
		}
	}
	return 0
}
