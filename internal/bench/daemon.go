package bench

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/core"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// RankReport is one multi-process rank's result, serialized as JSON on the
// daemon's stdout (prefixed "RESULT ") and parsed by the launcher.
type RankReport struct {
	Rank    int     `json:"rank"`
	Seconds float64 `json:"seconds"`
	// SelfHealResult is the solve's outcome; its self-healing fields are
	// zero unless the daemon heals.
	SelfHealResult
	Stats transport.TCPStats `json:"stats"`
	// Reliability is this rank's share of the runtime's loss/ack/dedup
	// protocol; all zero on clean links.
	Reliability Reliability `json:"reliability"`
	// ShmStats carries the shared-memory endpoint's counters on
	// hierarchical (pernode > 1) runs; nil on flat TCP runs.
	ShmStats *shm.Stats `json:"shm_stats,omitempty"`
}

// Reliability counts one rank's work in the runtime's loss/ack/dedup
// protocol: what its sends cost (retransmissions, corrupted and duplicated
// copies put on the wire) and what its receives rejected.
type Reliability struct {
	Retransmits int64 `json:"retransmits"`
	CorruptSent int64 `json:"corrupt_sent"`
	DupsSent    int64 `json:"dups_sent"`
	CRCRejects  int64 `json:"crc_rejects"`
	DupRejects  int64 `json:"dup_rejects"`
}

// reliabilityOf reads w's reliability counters.  A wall-clock world counts
// only the ranks it hosts.
func reliabilityOf(w *mpi.World) Reliability {
	st := w.TotalStats()
	return Reliability{Retransmits: st.Retransmits, CorruptSent: st.CorruptSent, DupsSent: st.DupsSent,
		CRCRejects: w.ChecksumRejects(), DupRejects: w.DuplicateRejects()}
}

// Add accumulates o into r.
func (r *Reliability) Add(o Reliability) {
	r.Retransmits += o.Retransmits
	r.CorruptSent += o.CorruptSent
	r.DupsSent += o.DupsSent
	r.CRCRejects += o.CRCRejects
	r.DupRejects += o.DupRejects
}

// DaemonObs configures a rank daemon's observability surfaces.
type DaemonObs struct {
	// MetricsAddr, when non-empty, serves the process metrics registry
	// (plan cache, pool, reliability counters, live TCP endpoint stats)
	// over HTTP for the duration of the run.  The caller learns the
	// bound address — ":0" picks an ephemeral port — from the daemon's
	// "METRICS <addr>" stdout line.  The live communication-matrix
	// dashboard is served at /dash on the same listener.
	MetricsAddr string
	// SpansPath, when non-empty, enables span recording and writes this
	// rank's raw spans (obs.WriteSpansFile format, attributes included)
	// there afterwards; the launcher renders its Chrome trace and runs its
	// cross-rank analysis from the ranks' files.
	SpansPath string
}

// obsSetup applies the daemon's pre-run observability surfaces; the
// returned func tears them down.
func obsSetup(w *mpi.World, rw *rankWire, rank int, ob DaemonObs) (func(), error) {
	if ob.SpansPath != "" {
		w.Tracer().Enable()
	}
	if ob.MetricsAddr == "" {
		return func() {}, nil
	}
	unreg := registerWireMetrics(rw, rank)
	matName := fmt.Sprintf("mpi.comm_matrix.rank%d", rank)
	obs.Metrics.RegisterFunc(matName, func() any { return w.CommMatrix() })
	srv, err := obs.ServeMetrics(ob.MetricsAddr, obs.Metrics)
	if err != nil {
		unreg()
		obs.Metrics.Unregister(matName)
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Printf("METRICS %s\n", srv.Addr())
	return func() {
		srv.Close()
		obs.Metrics.Unregister(matName)
		unreg()
	}, nil
}

// ArmByName maps a command-line arm name to an MPI build and scatter
// backend: "baseline" (MVAPICH2-0.9.5), "optimized" (MVAPICH2-New),
// "compiled" (optimized + compiled datatype plans), "hand" (hand-tuned
// scatter over the baseline build).
func ArmByName(name string) (mpi.Config, petsc.ScatterMode, error) {
	switch name {
	case "baseline":
		return mpi.Baseline(), petsc.ScatterDatatype, nil
	case "optimized":
		return mpi.Optimized(), petsc.ScatterDatatype, nil
	case "compiled":
		return mpi.Compiled(), petsc.ScatterDatatype, nil
	case "hand":
		return mpi.Baseline(), petsc.ScatterHandTuned, nil
	default:
		return mpi.Config{}, 0, fmt.Errorf("unknown arm %q (want baseline, optimized, compiled or hand)", name)
	}
}

// DaemonSpec is the multigrid run every rank daemon of a world is given:
// the problem, the arm, the wire fault plan, the node layout and the
// healing checkpoint store.  Flags declares it, once for nccdd and mgsolve
// alike; Args renders it back as a command line, so a launcher forwards
// its spec to each daemon by name; Validate is its one check.
type DaemonSpec struct {
	MultigridParams
	// Arm is the ArmByName name of the MPI build and scatter backend.
	Arm string
	// Wire is the link fault plan (Seed, Drop, Corrupt, Duplicate,
	// DelayMean) the runtime's loss/ack/dedup loop rides out on every link.
	Wire simnet.FaultPlan
	// PerNode groups ranks PerNode to a node (node = rank / PerNode):
	// co-located ranks exchange over a shared-memory segment file under
	// ShmDir and only traffic between nodes crosses TCP.  1 is flat TCP.
	PerNode int
	// ShmDir is the host's directory for the per-node segment files.  The
	// launcher picks it, so it is not one of the spec's flags.
	ShmDir string
	// CkptDir, shared by every rank, makes the daemon heal: it checkpoints
	// every CkptEvery V-cycles, each checkpoint one file written by
	// Aggregators ranks in StripeBytes stripes, through the I/O fault plan
	// IOFaults (ckptio.ParseFaultPlan syntax), and rides out peer failures
	// through SelfHealMultigrid instead of aborting.
	CkptDir     string
	CkptEvery   int
	Aggregators int
	StripeBytes int64
	IOFaults    string
	// Heartbeat is the failure detector's interval on a daemon that heals
	// or serves; 0 leaves detection to connection loss.
	Heartbeat time.Duration
}

// Flags declares the spec's flags on fs, bound to s, each with its one
// default.
func (s *DaemonSpec) Flags(fs *flag.FlagSet) {
	d := DefaultMultigridParams
	fs.IntVar(&s.Extent, "extent", d.Extent, "cubic grid extent")
	fs.IntVar(&s.Levels, "levels", d.Levels, "multigrid levels")
	fs.Float64Var(&s.Rtol, "rtol", d.Rtol, "relative tolerance")
	fs.IntVar(&s.MaxCycles, "maxcycles", d.MaxCycles, "V-cycle cap")
	fs.StringVar(&s.Arm, "arm", "compiled", "experimental arm: baseline, optimized, compiled or hand")
	fs.Float64Var(&s.Wire.Drop, "drop", 0, "message drop probability per transmission attempt, on every link (the runtime retransmits)")
	fs.Float64Var(&s.Wire.Corrupt, "corrupt", 0, "message corruption probability per attempt")
	fs.Float64Var(&s.Wire.Duplicate, "dup", 0, "message duplication probability per attempt")
	fs.Float64Var(&s.Wire.DelayMean, "delaymean", 0, "mean injected message delay in seconds")
	fs.Uint64Var(&s.Wire.Seed, "seed", 1, "fault plan seed")
	fs.IntVar(&s.PerNode, "pernode", 1, "co-located ranks per node: >1 groups ranks onto nodes (node = rank/pernode), shared memory within a node, TCP between")
	fs.StringVar(&s.CkptDir, "ckpt", "", "durable checkpoint directory every rank shares: checkpoint the solve and ride out peer failures via epoch bump + rejoin instead of aborting (mgsolve -selfheal picks a fresh temp dir)")
	fs.IntVar(&s.CkptEvery, "ckptevery", 1, "checkpoint period in V-cycles")
	fs.IntVar(&s.Aggregators, "aggr", 2, "checkpoint aggregator rank count")
	fs.Int64Var(&s.StripeBytes, "stripe", 256<<10, "checkpoint file stripe size in bytes")
	fs.StringVar(&s.IOFaults, "iofault", "", "inject checkpoint I/O faults, e.g. short=0.2,eio=0.1,fsync=0.1,enospc=65536,crash=12,seed=7")
	// 25 ms × the detectors' 9-interval hard-failure threshold gives a
	// 225 ms failure window: wide enough that a scheduler stall on a loaded
	// host (observed at ~100-150 ms with four local daemons) does not read
	// as a mass failure, yet still a small fraction of any solve's runtime.
	fs.DurationVar(&s.Heartbeat, "hb", 25*time.Millisecond, "heartbeat interval of a healing or serving daemon's failure detector: a peer silent 3 intervals is suspected, 9 declared down (0 = rely on connection loss only)")
}

// Args renders s as the arguments Flags parses back into it, every flag
// by name.  flag.Value.String round-trips floats and durations exactly, so
// a daemon solves bit for bit the launcher's problem.
func (s DaemonSpec) Args() []string {
	var bound DaemonSpec
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bound.Flags(fs)
	bound = s // the flags point into bound, so they now read s
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// Validate reports why s cannot run on a world of ranks ranks, or nil.
func (s DaemonSpec) Validate(ranks int) error {
	if s.PerNode < 1 {
		return fmt.Errorf("-pernode %d too small (need >= 1)", s.PerNode)
	}
	if ranks%s.PerNode != 0 {
		return fmt.Errorf("-pernode %d does not divide the world's %d ranks", s.PerNode, ranks)
	}
	if s.CkptEvery < 1 {
		return fmt.Errorf("-ckptevery %d too small (need >= 1)", s.CkptEvery)
	}
	if s.Aggregators < 1 {
		return fmt.Errorf("-aggr %d too small (need >= 1)", s.Aggregators)
	}
	if s.StripeBytes < 1 {
		return fmt.Errorf("-stripe %d too small (need >= 1)", s.StripeBytes)
	}
	if s.Heartbeat < 0 {
		return fmt.Errorf("-hb %v negative (0 leaves detection to connection loss)", s.Heartbeat)
	}
	if err := s.MultigridParams.Validate(ranks); err != nil {
		return err
	}
	if _, _, err := ArmByName(s.Arm); err != nil {
		return err
	}
	if err := s.Wire.Validate(); err != nil {
		return err
	}
	_, err := ckptio.ParseFaultPlan(s.IOFaults)
	return err
}

// ValidateServe reports the first of s's flags a serving daemon cannot
// honour, or nil: the service runs every job on one flat TCP mesh, with no
// link fault plan and default checkpoint options.  It compares values, not
// whether a flag was set, since a launcher forwards every flag by name.
func (s DaemonSpec) ValidateServe() error {
	var bound DaemonSpec
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bound.Flags(fs)
	bound = s // the flags point into bound, so they now read s
	for _, name := range []string{"pernode", "drop", "corrupt", "dup", "delaymean", "aggr", "stripe", "iofault"} {
		if f := fs.Lookup(name); f.Value.String() != f.DefValue {
			return fmt.Errorf("-%s %s: a serving daemon cannot honour it (jobs run on flat TCP, without a fault plan, with default checkpoint options)", name, f.Value)
		}
	}
	return nil
}

// CoreArm resolves the arm of a validated spec.
func (s DaemonSpec) CoreArm() core.Arm {
	cfg, mode, err := ArmByName(s.Arm)
	if err != nil {
		panic(err) // Validate refuses the name first
	}
	return core.Arm{Name: s.Arm, Config: cfg, Mode: mode}
}

// rankWire bundles one rank's transport stack: the endpoint the world
// sends through plus the constituent endpoints for stats reporting.
type rankWire struct {
	tr  transport.Transport
	tcp *transport.TCP
	shm *shm.Transport // nil on flat placements
	cl  *simnet.Cluster
}

func (rw *rankWire) shmStats() *shm.Stats {
	if rw.shm == nil {
		return nil
	}
	s := rw.shm.Stats()
	return &s
}

// buildWire constructs one rank's transport per the spec's layout: plain
// TCP for the flat layout, or a Hierarchical router of a shared-memory
// segment (intra-node) and TCP (inter-node).  The returned cluster mirrors
// the layout so virtual-time tooling agrees with the wires, and carries the
// spec's wire fault plan: the runtime injects its link faults above every
// transport.
func buildWire(tcfg transport.TCPConfig, spec DaemonSpec) (*rankWire, error) {
	var fp *simnet.FaultPlan
	if spec.Wire.Lossy() {
		fp = &spec.Wire
	}
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return nil, err
	}
	if spec.PerNode <= 1 {
		cl := simnet.Uniform(tcfg.Size, simnet.IBDDR())
		cl.Faults = fp
		return &rankWire{tr: tcp, tcp: tcp, cl: cl}, nil
	}
	node := tcfg.Rank / spec.PerNode
	nodeOf := make([]int, tcfg.Size)
	ranks := make([]int, 0, spec.PerNode)
	for r := range nodeOf {
		if nodeOf[r] = r / spec.PerNode; nodeOf[r] == node {
			ranks = append(ranks, r)
		}
	}
	st, err := shm.New(shm.Config{
		Rank:      tcfg.Rank,
		Size:      tcfg.Size,
		Ranks:     ranks,
		WorldID:   tcfg.WorldID,
		Path:      filepath.Join(spec.ShmDir, fmt.Sprintf("world%d-node%d.shm", tcfg.WorldID, node)),
		Heartbeat: tcfg.Heartbeat,
		Epoch:     tcfg.Epoch,
		Rejoin:    tcfg.Rejoin,
	})
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("shared-memory segment: %w", err)
	}
	hier, err := transport.NewHierarchical(tcfg.Rank, nodeOf, st, tcp)
	if err != nil {
		st.Close()
		tcp.Close()
		return nil, err
	}
	cl := simnet.TwoLevel(tcfg.Size/spec.PerNode, spec.PerNode, simnet.IBDDR(), simnet.ShmIntra())
	cl.Faults = fp
	return &rankWire{tr: hier, tcp: tcp, shm: st, cl: cl}, nil
}

// registerWireMetrics publishes the endpoints' counters in the process
// metrics registry.  The stats are per-endpoint, so each rank registers
// under its own name — "transport.tcp.rank<N>", "transport.shm.rank<N>"
// — which keeps ranks that share a process from clobbering each other's
// entry; obs.Registry.Snapshot adds the "transport.tcp.total" and
// "transport.shm.total" sums beside them (the totals /dash reads).  The
// returned func unregisters.
func registerWireMetrics(rw *rankWire, rank int) func() {
	tcpName := fmt.Sprintf("transport.tcp.rank%d", rank)
	obs.Metrics.RegisterFunc(tcpName, func() any { return rw.tcp.Stats() })
	shmName := ""
	if rw.shm != nil {
		shmName = fmt.Sprintf("transport.shm.rank%d", rank)
		obs.Metrics.RegisterFunc(shmName, func() any { return rw.shm.Stats() })
	}
	return func() {
		obs.Metrics.Unregister(tcpName)
		if shmName != "" {
			obs.Metrics.Unregister(shmName)
		}
	}
}

// RunMultigridDaemon hosts one rank of the multigrid solve spec describes
// (validated for tcfg.Size ranks) over TCP — or, with spec.PerNode > 1,
// over shared memory within the node and TCP across nodes: it builds the
// transport, joins the world, solves, and reports the local result plus
// the endpoints' wire statistics and the runtime's reliability counters.
// A peer's failure ends the solve with an error naming it.
//
// With spec.CkptDir set it heals instead: it checkpoints durably there,
// rides out peer failures through SelfHealMultigrid's epoch/rejoin
// recovery loop, and — launched with tcfg.Epoch > 0 — comes up as a
// replacement that restores the agreed checkpoint into the regrown world
// instead of starting over.  onCycle, when non-nil, is HealParams.OnCycle,
// epoch 0 where there is no healing.  Every error names the rank.
func RunMultigridDaemon(tcfg transport.TCPConfig, spec DaemonSpec, ob DaemonObs, onCycle func(epoch uint64, cycle int)) (RankReport, error) {
	fail := func(err error) (RankReport, error) {
		return RankReport{}, fmt.Errorf("rank %d: %w", tcfg.Rank, err)
	}
	arm := spec.CoreArm()
	var store *ckptio.Store
	if spec.CkptDir != "" {
		plan, err := ckptio.ParseFaultPlan(spec.IOFaults)
		if err != nil {
			return fail(err)
		}
		store, err = ckptio.NewStore(spec.CkptDir, nil, ckptio.Options{
			StripeBytes: spec.StripeBytes,
			Aggregators: spec.Aggregators,
			Faults:      plan,
		})
		if err != nil {
			return fail(err)
		}
	}
	rw, err := buildWire(tcfg, spec)
	if err != nil {
		return fail(err)
	}
	w, err := mpi.NewWorldTransport(rw.tr, rw.cl, arm.Config)
	if err != nil {
		rw.tr.Close()
		return fail(err)
	}
	defer w.Close()
	obsDown, err := obsSetup(w, rw, tcfg.Rank, ob)
	if err != nil {
		return fail(err)
	}
	defer obsDown()

	rep := RankReport{Rank: tcfg.Rank}
	wall0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		if store != nil {
			hp := HealParams{CheckpointEvery: spec.CkptEvery, RejoinEpoch: tcfg.Epoch, OnCycle: onCycle}
			res, err := SelfHealMultigrid(c, spec.MultigridParams, arm.Mode, store, hp)
			rep.SelfHealResult, rep.Seconds = res, time.Since(wall0).Seconds()
			return err
		}
		var opts MultigridRankOptions
		if onCycle != nil {
			opts.OnCycle = func(cycle int) error { onCycle(0, cycle); return nil }
		}
		res, err := MultigridRank(c, spec.MultigridParams, arm.Mode, opts)
		rep.SelfHealResult = SelfHealResult{Cycles: res.Cycles, RelRes: res.RelRes, History: res.History}
		rep.Seconds = res.Seconds
		return err
	})
	if err != nil {
		return RankReport{}, err // w.Run names the rank
	}
	rep.Stats = rw.tcp.Stats()
	rep.Reliability = reliabilityOf(w)
	rep.ShmStats = rw.shmStats()
	if ob.SpansPath != "" {
		if err := obs.WriteSpansFile(ob.SpansPath, w.Tracer()); err != nil {
			return fail(fmt.Errorf("writing spans: %w", err))
		}
	}
	return rep, nil
}
