// Command mgsolve drives the paper's Section 5.5 application, the 3-D
// Laplacian multigrid solve, outside the virtual-time figure sweep (that is
// repro -fig 17).  It needs a mode flag; without one, or with flag values no
// run could use, it says so in one line and exits 2 before anything is
// spawned.
//
// With -tcp N it acts as a launcher: it spawns N nccdd rank daemons as
// separate OS processes connected over TCP localhost, runs the solve across
// them, and verifies the distributed residual history bitwise against an
// in-process reference run.  The run's flags (the problem, -arm, the fault
// plan, -pernode and the checkpoint store) are bench.DaemonSpec's: mgsolve
// validates the spec once, for every rank, and forwards it to each daemon
// by name.
//
// With -tcp N -selfheal it also supervises the daemons — durable
// checkpoints, heartbeat failure detection, respawn of dead ranks into a
// regrown full-size world — and -chaos smoke-tests that path by killing
// -killrank once its first checkpoint write has run, committed or aborted,
// and demanding a bitwise-identical resumed history.
//
// With -trace or -analyze (and no -tcp) it runs one traced in-process solve
// on -np ranks; -servestress and -submit drive the multi-tenant service.
// Every traced run ends the same way: the ranks' spans (the world tracer's
// in process, each daemon's -spans file under -tcp) go onto one time axis,
// -trace FILE renders them as one Chrome trace and -analyze runs the
// cross-rank analyzer over them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nccd/internal/bench"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, refuses a bad invocation with one stderr line and exit 2
// before any daemon is spawned or world built, and runs the selected mode.
// stdout and stderr receive what run and the in-process traced solve print;
// the modes that spawn daemons stream to the process's own descriptors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec bench.DaemonSpec
	spec.Flags(fs)
	tcp := fs.Int("tcp", 0, "spawn N rank daemons as OS processes over TCP localhost; with -pernode K this is the NODE count and N*K daemons are spawned")
	daemon := fs.String("daemon", "", "path to the nccdd binary (default: next to mgsolve, then PATH)")
	trace := fs.String("trace", "", "write the run's Chrome trace JSON here, every rank in one file (with -tcp: rendered from the daemons' span files; without: one traced in-process solve)")
	np := fs.Int("np", 4, "rank count for a traced in-process solve (-trace without -tcp)")
	metrics := fs.String("metrics", "", "write a JSON snapshot of the process metrics registry here after the run")
	analyzeFlag := fs.Bool("analyze", false, "run the cross-rank analyzer after the solve: message matching, wait states, critical path, communication matrix; exits nonzero on any unmatched message edge of a trace that dropped no span")
	selfheal := fs.Bool("selfheal", false, "run the -tcp daemons with durable checkpoints and the epoch/rejoin recovery protocol (implied by -ckpt)")
	chaos := fs.Bool("chaos", false, "self-healing smoke test: SIGKILL -killrank once its first checkpoint write has run (committed or not), respawn it, and require full-size recovery (implies -selfheal)")
	killRank := fs.Int("killrank", 2, "the rank -chaos kills")
	serveStress := fs.Int("servestress", 0, "spawn an N-rank (N >= 3) nccdd -serve fleet and stress the multi-tenant service: 1 huge + 8 small concurrent jobs, SIGKILL the last rank mid-run, bitwise verification of every completed job, healed-resume / overload / cancel / drain checks; exit 3 = unexpected overload, 4 = job failed, 5 = unexpected cancel")
	submit := fs.String("submit", "", "submit one job (the -extent/-levels/-rtol/-maxcycles problem) to a running service at this base URL, wait, and exit 0 completed / 3 overloaded / 4 failed / 5 canceled")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "mgsolve: %v\n", err)
		return 2
	}
	code := 0
	switch {
	case *submit != "":
		code = runServeSubmit(*submit, spec.MultigridParams)
	case *serveStress > 0:
		if err := spec.Validate(*serveStress); err != nil {
			return usage(err)
		}
		if *serveStress < 3 {
			return usage(fmt.Errorf("-servestress %d too small (need >= 3: rank 0 hosts the controller, the last rank is killed)", *serveStress))
		}
		if err := spec.ValidateServe(); err != nil {
			return usage(err)
		}
		code = runServeStress(*serveStress, *daemon, spec)
	case *tcp > 0:
		n := *tcp * spec.PerNode
		if err := spec.Validate(n); err != nil {
			return usage(err)
		}
		if *chaos && (*killRank < 0 || *killRank >= n) {
			return usage(fmt.Errorf("-killrank %d out of range [0,%d)", *killRank, n))
		}
		code = runLauncher(launchConfig{
			n: n, daemon: *daemon, spec: spec, trace: *trace, analyze: *analyzeFlag,
			selfheal: *selfheal || *chaos || spec.CkptDir != "", chaos: *chaos, killRank: *killRank,
		})
	case *trace != "" || *analyzeFlag:
		if err := spec.Validate(*np); err != nil {
			return usage(err)
		}
		res, sf := bench.TraceMultigrid(*np, spec.MultigridParams, spec.CoreArm())
		fmt.Fprintf(stdout, "traced solve: %d ranks, %d cycles, relres %.3e, %d spans\n",
			*np, res.Cycles, res.RelRes, len(sf.Spans))
		code = finishTrace([]obs.SpanFile{sf}, analyze.Options{Ranks: *np}, *trace, *analyzeFlag, stdout, stderr)
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

// finishTrace is how every traced run ends.  files holds each process's
// spans: the world tracer's in process, one -spans file per rank under
// -tcp.  It merges them onto one axis (mergeSpans), renders and validates
// the Chrome trace when path is set, and runs the cross-rank analyzer when
// doAnalyze is, with opts.Dropped summed from the files.  An unmatched
// message edge fails the run only on a complete trace: a send span with no
// receive span (or vice versa) then means the identity plumbing broke,
// while after a ring drop it may be a casualty, which the report names.
func finishTrace(files []obs.SpanFile, opts analyze.Options, path string, doAnalyze bool, stdout, stderr io.Writer) int {
	spans, dropped := mergeSpans(files)
	if path != "" {
		if err := obs.WriteChromeTraceFile(path, spans, 0); err != nil {
			fmt.Fprintf(stderr, "mgsolve: writing trace: %v\n", err)
			return 1
		}
		if err := obs.ValidateChromeTraceFile(path); err != nil {
			fmt.Fprintf(stderr, "mgsolve: trace failed validation: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (load it at https://ui.perfetto.dev)\n", path)
	}
	if !doAnalyze {
		return 0
	}
	opts.Dropped = dropped
	rep := analyze.Analyze(spans, opts)
	rep.Render(stdout)
	if dropped == 0 && (rep.UnmatchedSends > 0 || rep.UnmatchedRecvs > 0) {
		fmt.Fprintf(stderr, "mgsolve: %d unmatched sends, %d unmatched recvs on a complete trace\n",
			rep.UnmatchedSends, rep.UnmatchedRecvs)
		return 1
	}
	return 0
}
