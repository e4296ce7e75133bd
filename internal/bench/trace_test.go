package bench

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nccd/internal/core"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// TestTracedMultigridChromeExport is the tracing acceptance test for the
// in-process path: a 4-rank multigrid solve with tracing on must export a
// Chrome trace that passes structural validation (balanced B/E nesting,
// per-lane monotone timestamps) and shows every layer of the stack —
// transport sends/recvs, datatype pack/unpack, and the multigrid phase
// hierarchy.
func TestTracedMultigridChromeExport(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	arm := core.Arm{Name: "compiled", Config: mpi.Compiled(), Mode: petsc.ScatterDatatype}
	path := filepath.Join(t.TempDir(), "trace.json")
	res, sf := TraceMultigrid(4, p, arm)
	if res.Cycles == 0 {
		t.Fatalf("traced solve did not converge: %+v", res)
	}
	if len(sf.Spans) == 0 {
		t.Fatal("traced solve recorded no spans")
	}
	if err := obs.WriteChromeTraceFile(path, sf.Spans, 0); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTraceFile(path); err != nil {
		t.Fatalf("exported trace is malformed: %v", err)
	}
	evs, err := obs.ReadChromeTraceFile(path)
	if err != nil {
		t.Fatalf("reading trace back: %v", err)
	}
	counts := obs.CountEvents(evs)
	for _, kind := range []string{
		"send", "recv", "localcopy", "compute", // transport/timeline layer
		"pack", "unpack", // datatype engine
		"mg_solve", "mg_cycle", "mg_level", "smooth", "restrict", "prolong", "coarse_solve", // solver stack
	} {
		if counts[kind] == 0 {
			t.Errorf("trace contains no %q spans (kinds seen: %v)", kind, counts)
		}
	}
	// One mg_cycle span per rank per V-cycle.
	if got, want := counts["mg_cycle"], 4*res.Cycles; got != want {
		t.Errorf("mg_cycle spans = %d, want %d (4 ranks x %d cycles)", got, want, res.Cycles)
	}
}

// runTracedMultigridTCP is runMultigridTCP with span recording enabled on
// every rank's world; it writes one Chrome trace from every world's spans
// and returns its path plus the aggregated reliability counters.
func runTracedMultigridTCP(t *testing.T, n int, p MultigridParams, fp *simnet.FaultPlan) (string, Reliability) {
	t.Helper()
	cfg := mpi.Compiled()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	worlds := make([]*mpi.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(transport.TCPConfig{
				Rank: r, Size: n, WorldID: 0x0b5, Addrs: addrs, Listener: lns[r],
				DialTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			cl := simnet.Uniform(n, simnet.IBDDR())
			cl.Faults = fp
			w, err := mpi.NewWorldTransport(tr, cl, cfg)
			if err != nil {
				errs[r] = err
				return
			}
			w.Tracer().Enable()
			worlds[r] = w
			RunMultigridWorld(w, p, petsc.ScatterDatatype)
		}(r)
	}
	wg.Wait()
	var agg Reliability
	var spans []obs.Span
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		agg.Add(reliabilityOf(worlds[r]))
		spans = append(spans, worlds[r].Tracer().Spans()...)
		worlds[r].Close()
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.WriteChromeTraceFile(path, spans, 0); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return path, agg
}

// TestTracedMultigridTCPRetransmits is the tracing acceptance test for the
// wall-clock path: under a seeded 1% drop plan the four ranks' one trace
// must validate and show the runtime's reliability protocol at work
// over real sockets (retransmit spans, nonzero retransmission counters);
// without faults the same trace must show none.
func TestTracedMultigridTCPRetransmits(t *testing.T) {
	const n = 4
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}

	fp := &simnet.FaultPlan{Seed: 42, Drop: 0.01}
	lossy, lossyStats := runTracedMultigridTCP(t, n, p, fp)
	if err := obs.ValidateChromeTraceFile(lossy); err != nil {
		t.Fatalf("lossy trace is malformed: %v", err)
	}
	evs, err := obs.ReadChromeTraceFile(lossy)
	if err != nil {
		t.Fatalf("reading lossy trace: %v", err)
	}
	counts := obs.CountEvents(evs)
	if counts["tcp_send"] == 0 || counts["tcp_recv"] == 0 {
		t.Errorf("trace missing transport spans: %v", counts)
	}
	if lossyStats.Retransmits == 0 {
		t.Fatalf("fault plan produced no retransmissions: %+v", lossyStats)
	}
	if counts["retransmit"] == 0 {
		t.Errorf("retransmissions occurred (%d) but no retransmit spans traced", lossyStats.Retransmits)
	}

	clean, cleanStats := runTracedMultigridTCP(t, n, p, nil)
	if err := obs.ValidateChromeTraceFile(clean); err != nil {
		t.Fatalf("clean trace is malformed: %v", err)
	}
	evs, err = obs.ReadChromeTraceFile(clean)
	if err != nil {
		t.Fatalf("reading clean trace: %v", err)
	}
	counts = obs.CountEvents(evs)
	if cleanStats.Retransmits != 0 || counts["retransmit"] != 0 {
		t.Errorf("clean run shows retransmissions: stats=%+v spans=%d", cleanStats, counts["retransmit"])
	}
}
