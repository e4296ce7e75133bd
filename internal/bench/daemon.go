package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"nccd/internal/ckptio"
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
	// Trace is the path of this rank's Chrome trace file, when tracing
	// was requested.
	Trace string `json:"trace,omitempty"`
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
	// TracePath, when non-empty, enables span recording for the run and
	// writes this rank's Chrome trace file there afterwards.  The
	// launcher merges the per-rank files with obs.MergeChromeTraceFiles.
	TracePath string
	// MetricsAddr, when non-empty, serves the process metrics registry
	// (plan cache, pool, reliability counters, live TCP endpoint stats)
	// over HTTP for the duration of the run.  The caller learns the
	// bound address — ":0" picks an ephemeral port — from the daemon's
	// "METRICS <addr>" stdout line.  The live communication-matrix
	// dashboard is served at /dash on the same listener.
	MetricsAddr string
	// SpansPath, when non-empty, enables span recording and writes this
	// rank's raw spans (obs.WriteSpansFile format, attributes included)
	// there afterwards, for the launcher's cross-rank analysis pass.
	SpansPath string
}

// obsSetup applies the daemon's pre-run observability surfaces; the
// returned func tears them down.
func obsSetup(w *mpi.World, rw *rankWire, rank int, ob DaemonObs) (func(), error) {
	if ob.TracePath != "" || ob.SpansPath != "" {
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

// Placement describes how a rank daemon's world is laid out across
// nodes.  The zero value is the flat layout: every rank on its own node,
// all traffic over TCP.  With PerNode > 1 ranks are grouped PerNode to a
// node (node id = rank / PerNode), co-located ranks exchange over a
// shared-memory segment under ShmDir, and only traffic between nodes
// crosses TCP.
type Placement struct {
	PerNode int    // co-located ranks per node (0 or 1 = flat TCP)
	ShmDir  string // directory for the per-node segment files (PerNode > 1)
}

// Hierarchical reports whether the placement groups ranks onto nodes.
func (pl Placement) Hierarchical() bool { return pl.PerNode > 1 }

// NodeOf returns the node map for an n-rank world, nil for the flat
// layout.
func (pl Placement) NodeOf(n int) []int {
	if !pl.Hierarchical() {
		return nil
	}
	m := make([]int, n)
	for r := range m {
		m[r] = r / pl.PerNode
	}
	return m
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

// buildWire constructs one rank's transport per the placement: plain TCP
// for the flat layout, or a Hierarchical router of a shared-memory
// segment (intra-node) and TCP (inter-node).  The returned cluster
// mirrors the layout so virtual-time tooling agrees with the wires, and
// carries the fault plan fp: the runtime injects its link faults above
// every transport and fires its scheduled crashes off the local clock.
func buildWire(tcfg transport.TCPConfig, pl Placement, fp *simnet.FaultPlan) (*rankWire, error) {
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return nil, err
	}
	if !pl.Hierarchical() {
		cl := simnet.Uniform(tcfg.Size, simnet.IBDDR())
		cl.Faults = fp
		return &rankWire{tr: tcp, tcp: tcp, cl: cl}, nil
	}
	if tcfg.Size%pl.PerNode != 0 {
		tcp.Close()
		return nil, fmt.Errorf("world size %d not divisible by pernode %d", tcfg.Size, pl.PerNode)
	}
	if pl.ShmDir == "" {
		tcp.Close()
		return nil, fmt.Errorf("hierarchical placement needs a segment directory")
	}
	nodeOf := pl.NodeOf(tcfg.Size)
	node := nodeOf[tcfg.Rank]
	ranks := make([]int, 0, pl.PerNode)
	for r, nd := range nodeOf {
		if nd == node {
			ranks = append(ranks, r)
		}
	}
	st, err := shm.New(shm.Config{
		Rank:      tcfg.Rank,
		Size:      tcfg.Size,
		Ranks:     ranks,
		WorldID:   tcfg.WorldID,
		Path:      filepath.Join(pl.ShmDir, fmt.Sprintf("world%d-node%d.shm", tcfg.WorldID, node)),
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
	cl := simnet.TwoLevel(tcfg.Size/pl.PerNode, pl.PerNode, simnet.IBDDR(), simnet.ShmIntra())
	cl.Faults = fp
	return &rankWire{tr: hier, tcp: tcp, shm: st, cl: cl}, nil
}

// registerWireMetrics publishes the endpoints' counters in the process
// metrics registry.  The stats are per-endpoint, so each rank registers
// under its own name — "transport.tcp.rank<N>", "transport.shm.rank<N>"
// — and a scraper that wants totals sums the labeled entries itself;
// registering them under one shared name would silently clobber (not
// aggregate) when ranks share a process.  The returned func unregisters.
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

// RunMultigridDaemon hosts one rank of the multigrid solve over TCP —
// or, with a hierarchical placement, over shared memory within the node
// and TCP across nodes: it builds the transport from tcfg and pl, joins
// the world, solves, and reports the local result plus the endpoints'
// wire statistics and the runtime's reliability counters.  fp (nil for
// none) is the cluster's fault plan: link faults for the runtime's
// loss/ack/dedup loop, and scheduled crashes (CrashAt) that fire off the
// local virtual clock.
//
// With hp.CkptDir set it heals: it checkpoints durably there, rides out
// peer failures through SelfHealMultigrid's epoch/rejoin recovery loop,
// and — launched with hp.RejoinEpoch — comes up as a replacement that
// restores the agreed checkpoint into the regrown world instead of
// starting over.
func RunMultigridDaemon(tcfg transport.TCPConfig, pl Placement, fp *simnet.FaultPlan, cfg mpi.Config, p MultigridParams, mode petsc.ScatterMode, ob DaemonObs, hp HealParams) (RankReport, error) {
	var store *ckptio.Store
	if hp.CkptDir != "" {
		plan, err := ckptio.ParseFaultPlan(hp.IOFaults)
		if err != nil {
			return RankReport{}, err
		}
		store, err = ckptio.NewStore(hp.CkptDir, nil, ckptio.Options{
			StripeBytes: hp.StripeBytes,
			Aggregators: hp.Aggregators,
			Faults:      plan,
			OnCommit:    hp.OnCheckpoint,
		})
		if err != nil {
			return RankReport{}, err
		}
	}
	rw, err := buildWire(tcfg, pl, fp)
	if err != nil {
		return RankReport{}, err
	}
	w, err := mpi.NewWorldTransport(rw.tr, rw.cl, cfg)
	if err != nil {
		rw.tr.Close()
		return RankReport{}, err
	}
	defer w.Close()
	obsDown, err := obsSetup(w, rw, tcfg.Rank, ob)
	if err != nil {
		return RankReport{}, err
	}
	defer obsDown()

	rep := RankReport{Rank: tcfg.Rank}
	if store == nil {
		res := RunMultigridWorld(w, p, mode)
		rep.Seconds = res.Seconds
		rep.SelfHealResult = SelfHealResult{Cycles: res.Cycles, RelRes: res.RelRes, History: res.History}
	} else {
		wall0 := time.Now()
		err = w.Run(func(c *mpi.Comm) (err error) {
			rep.SelfHealResult, err = SelfHealMultigrid(c, p, mode, store, hp)
			return err
		})
		if err != nil {
			return RankReport{}, err
		}
		rep.Seconds = time.Since(wall0).Seconds()
	}
	rep.Stats = rw.tcp.Stats()
	rep.Reliability = reliabilityOf(w)
	rep.ShmStats = rw.shmStats()
	if ob.TracePath != "" {
		if err := obs.WriteChromeTraceFile(ob.TracePath, w.Tracer().Spans(), tcfg.Rank); err != nil {
			return RankReport{}, fmt.Errorf("writing trace: %w", err)
		}
		rep.Trace = ob.TracePath
	}
	if ob.SpansPath != "" {
		if err := obs.WriteSpansFile(ob.SpansPath, w.Tracer()); err != nil {
			return RankReport{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}
