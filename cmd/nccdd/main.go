// Command nccdd hosts one rank of a multi-process nccd world: it connects
// to its peers over TCP (the full mesh is established during startup),
// runs the 3-D Laplacian multigrid solve, and prints its result as a
// "RESULT {json}" line on stdout.  It is normally spawned by
// `mgsolve -tcp N`, one process per rank, but can be launched by hand:
//
//	nccdd -rank 0 -n 2 -addrs 127.0.0.1:7001,127.0.0.1:7002 &
//	nccdd -rank 1 -n 2 -addrs 127.0.0.1:7001,127.0.0.1:7002
//
// With -pernode K (and a shared -shmdir) ranks are grouped K to a node:
// co-located ranks exchange over a lock-free shared-memory segment and
// only inter-node traffic crosses TCP.  The collectives do not change:
// the node layout is the transport's concern.
//
// A seeded fault plan (-drop/-corrupt/-dup/-delaymean/-seed) drives the
// runtime's loss/ack/dedup protocol over the real links — TCP and the
// shared-memory rings alike: every drop, duplicate and corruption is
// decided at the sender, and the receiver's checksum and sequence defenses
// reject the damaged and duplicated copies.  Without -ckpt a peer's death
// ends the solve: one "nccdd: rank R: ..." line on stderr and exit 1.
//
// With -ckpt DIR (a directory all ranks share) the daemon checkpoints the
// solve and rides out peer failures through the epoch/rejoin recovery
// protocol instead of aborting; a supervisor relaunches a killed rank with
// -rejoin -epoch N and the same rank/address, and the replacement restores
// the agreed checkpoint into the regrown full-size world.  It prints a
// "CYCLE <epoch> <iteration>" line before each iteration, which the
// launcher's chaos controller keys its kill and MTTR clock off.  A healing
// or serving daemon runs a heartbeat failure detector every -hb (25 ms by
// default), so hung (not just dead) peers are caught.
//
// With -spans PATH the daemon records its rank's spans and writes them
// there when the solve ends; `mgsolve -tcp N -trace FILE` (or -analyze)
// passes it to every rank and renders one Chrome trace and one cross-rank
// report from the ranks' files.  -metrics ADDR serves the metrics registry
// at /debug/metrics and the live communication-matrix dashboard at /dash
// for the length of the run.
//
// The run's flags (the problem, -arm, the fault plan, -pernode and the
// checkpoint store) are bench.DaemonSpec's, declared, defaulted and
// validated there for nccdd and mgsolve alike.
//
// Checkpoints are collective I/O: each is ONE shared file written by -aggr
// aggregator ranks in -stripe byte stripes (two-phase aggregation), and a
// restore is a local data-sieving read of just the owned range.  -iofault
// injects filesystem faults (short writes, EIO, ENOSPC, fsync failure,
// crash-between-write-and-rename) underneath it.
//
// With -serve ADDR the daemon stops being a one-shot solver and becomes
// one rank of a long-lived multi-tenant solver service: rank 0 serves the
// job API (POST /jobs, GET /jobs/<id>, POST /jobs/<id>/cancel) plus
// /debug/metrics and /dash on ADDR (printed as a "SERVICE <addr>" line),
// and every rank hosts its share of the submitted jobs, each in its own
// communicator namespace on the shared mesh.  SIGTERM drains: running
// jobs are canceled, then every daemon exits cleanly.  A SIGKILLed rank
// is respawned by its supervisor with -rejoin -epoch N and the same
// rank/address; only the jobs mapped onto that rank abort — they heal
// from their own checkpoints (-ckpt) while untouched jobs run on
// undisturbed.  Jobs run on flat TCP with no fault plan and default
// checkpoint options, so a serving daemon refuses a non-default -pernode,
// -drop, -corrupt, -dup, -delaymean, -aggr, -stripe or -iofault, and any
// -spans or -metrics, with one line and exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nccd/internal/bench"
	"nccd/internal/obs"
	"nccd/internal/service"
	"nccd/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, refuses a bad invocation with one stderr line and exit 2
// before any listener is opened or world built, and hosts the rank.  stdout
// receives the daemon's protocol lines (RESULT, CYCLE); the service
// mode prints its own to the process's descriptors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccdd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec bench.DaemonSpec
	spec.Flags(fs)
	rank := fs.Int("rank", -1, "world rank of this process")
	n := fs.Int("n", 0, "world size")
	addrList := fs.String("addrs", "", "comma-separated listen addresses, one per rank")
	worldID := fs.Uint64("world", 1, "world id (must match across ranks)")
	spans := fs.String("spans", "", "write this rank's raw spans (matching identities included) to the given path, for the launcher's Chrome trace and cross-rank analysis")
	metrics := fs.String("metrics", "", "serve the metrics registry and the live communication-matrix dashboard (/debug/metrics, /dash) over HTTP at this address (e.g. 127.0.0.1:0); the bound address is printed as a METRICS line")
	rejoin := fs.Bool("rejoin", false, "this process replaces a failed rank: dial the whole surviving mesh and restore from checkpoint (needs -ckpt outside -serve)")
	epoch := fs.Uint64("epoch", 0, "membership epoch a -rejoin replacement joins at (the launcher's respawn count)")
	fs.StringVar(&spec.ShmDir, "shmdir", "", "directory for the per-node shared-memory segment files (required with -pernode > 1; must be shared by co-located ranks)")
	serve := fs.String("serve", "", "run as a multi-tenant solver service instead of one fixed solve: rank 0 serves the job API, /debug/metrics and /dash at this address (e.g. 127.0.0.1:0)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "nccdd: %v\n", err)
		return code
	}

	addrs := strings.Split(*addrList, ",")
	if *rank < 0 || *n < 1 || *rank >= *n || len(addrs) != *n {
		return fail(2, fmt.Errorf("need -rank in [0,%d) and %d comma-separated -addrs", *n, *n))
	}
	if err := spec.Validate(*n); err != nil {
		return fail(2, err)
	}
	if spec.PerNode > 1 && spec.ShmDir == "" {
		return fail(2, fmt.Errorf("-pernode %d needs -shmdir: co-located ranks attach one segment file there", spec.PerNode))
	}
	if *rejoin && *serve == "" && (spec.CkptDir == "" || *epoch == 0) {
		// A replacement restores the agreed checkpoint in the survivors'
		// recovery epoch (≥ 1); without either it could only fail once the
		// mesh is up.
		return fail(2, fmt.Errorf("-rejoin needs -ckpt and -epoch 1 or later: a replacement resumes from the shared checkpoint directory in the survivors' recovery epoch"))
	}

	tcfg := transport.TCPConfig{Rank: *rank, Size: *n, WorldID: *worldID, Addrs: addrs,
		Epoch: *epoch, Rejoin: *rejoin}
	// The failure detector runs where failures are ridden out; a plain
	// solve ends at the first lost connection.
	if spec.CkptDir != "" || *serve != "" {
		tcfg.Heartbeat = spec.Heartbeat
	}
	ob := bench.DaemonObs{SpansPath: *spans, MetricsAddr: *metrics}

	if *serve != "" {
		// The service builds its own mesh and jobs and records no run of
		// its own: a flag it would silently ignore is refused instead.
		if err := spec.ValidateServe(); err != nil {
			return fail(2, err)
		}
		switch {
		case *spans != "":
			return fail(2, fmt.Errorf("-spans %s: a serving daemon cannot honour it (it records no spans)", *spans))
		case *metrics != "":
			return fail(2, fmt.Errorf("-metrics %s: a serving daemon cannot honour it (rank 0 serves /debug/metrics and /dash on the -serve address)", *metrics))
		}
		if err := runService(tcfg, spec, *serve); err != nil {
			return fail(1, fmt.Errorf("rank %d: %w", *rank, err))
		}
		fmt.Fprintln(stdout, "SERVED")
		return 0
	}

	// The progress line the launcher's chaos controller keys off.  Stdout
	// is unbuffered, so each line is in the launcher's pipe before the
	// iteration it announces runs.
	rep, err := bench.RunMultigridDaemon(tcfg, spec, ob, func(e uint64, it int) {
		fmt.Fprintf(stdout, "CYCLE %d %d\n", e, it)
	})
	if err != nil {
		return fail(1, err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return fail(1, fmt.Errorf("rank %d: %w", *rank, err))
	}
	fmt.Fprintf(stdout, "RESULT %s\n", out)
	return 0
}

// runService hosts this daemon's rank of the multi-tenant solver service:
// one shared TCP mesh under a transport.Mux, the service control plane on
// top, and (rank 0 only) the HTTP job API.  Blocks until the service
// drains (SIGTERM, or the controller's drain broadcast on worker ranks).
func runService(tcfg transport.TCPConfig, spec bench.DaemonSpec, apiAddr string) error {
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return err
	}
	mux := transport.NewMux(tcp)
	statName := fmt.Sprintf("transport.tcp.rank%d", tcfg.Rank)
	obs.Metrics.RegisterFunc(statName, func() any { return tcp.Stats() })
	defer obs.Metrics.Unregister(statName)

	arm := spec.CoreArm()
	svc, err := service.New(mux, service.Config{
		Rank:            tcfg.Rank,
		MPI:             arm.Config,
		Mode:            arm.Mode,
		CkptDir:         spec.CkptDir,
		CheckpointEvery: spec.CkptEvery,
		OnEvent:         func(line string) { fmt.Printf("EVENT %s\n", line) },
	})
	if err != nil {
		return err
	}

	var srv *http.Server
	if tcfg.Rank == 0 {
		ln, lerr := net.Listen("tcp", apiAddr)
		if lerr != nil {
			return fmt.Errorf("job API listener: %w", lerr)
		}
		hm := http.NewServeMux()
		hm.Handle("/jobs", svc.Handler())
		hm.Handle("/jobs/", svc.Handler())
		hm.Handle("/debug/metrics", obs.MetricsHandler(obs.Metrics))
		hm.Handle("/dash", obs.DashHandler())
		srv = &http.Server{Handler: hm}
		go func() { _ = srv.Serve(ln) }()
		fmt.Printf("SERVICE %s\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Println("EVENT draining on signal")
			svc.Drain()
		}
	}()

	err = svc.Wait()
	if srv != nil {
		_ = srv.Close()
	}
	_ = mux.Close()
	return err
}
