package bench

import (
	"math"
	"net"
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

// runMultigridTCP solves the multigrid problem on n single-rank TCP worlds
// in this process (the same topology as n OS processes), their clusters
// carrying the fault plan fp, and returns rank 0's result plus the
// aggregated reliability counters.
func runMultigridTCP(t *testing.T, n int, p MultigridParams, cfg mpi.Config, fp *simnet.FaultPlan) (MultigridResult, Reliability) {
	t.Helper()
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
	results := make([]MultigridResult, n)
	worlds := make([]*mpi.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(transport.TCPConfig{
				Rank: r, Size: n, WorldID: 0x1717, Addrs: addrs, Listener: lns[r],
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
			worlds[r] = w
			results[r] = RunMultigridWorld(w, p, petsc.ScatterDatatype)
		}(r)
	}
	wg.Wait()
	var agg Reliability
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		agg.Add(reliabilityOf(worlds[r]))
		worlds[r].Close()
	}
	// Every world solved the same problem; their histories must agree.
	for r := 1; r < n; r++ {
		if len(results[r].History) != len(results[0].History) {
			t.Fatalf("rank %d saw %d cycles, rank 0 saw %d", r, len(results[r].History), len(results[0].History))
		}
		for i := range results[r].History {
			if results[r].History[i] != results[0].History[i] {
				t.Fatalf("rank %d cycle %d residual %v != rank 0's %v", r, i, results[r].History[i], results[0].History[i])
			}
		}
	}
	return results[0], agg
}

// multigridHistoriesEqual requires bitwise-identical residual sequences:
// the solve is deterministic floating point, so any transport that delivers
// the right bytes yields the exact same history.
func multigridHistoriesEqual(t *testing.T, label string, got, want MultigridResult) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: %d cycles, want %d", label, got.Cycles, want.Cycles)
	}
	if err := CheckHistory(got.History, want.History, 0); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestCheckHistory: a history matches only the reference's tail from the
// restored iteration on, of the same length and the same bits, so −0 is not
// +0 and a NaN matches the same NaN; a restore point beyond the reference
// matches nothing, and a negative one is a fresh solve.
func TestCheckHistory(t *testing.T) {
	nan := math.NaN()
	ref := []float64{1, 0.5, 0, nan}
	for _, tc := range []struct {
		got  []float64
		from int
		ok   bool
	}{
		{ref, 0, true},
		{ref, -1, true},
		{ref[2:], 2, true},
		{nil, 4, true},
		{nil, 5, false},
		{ref[1:], 2, false},
		{ref[:3], 0, false},
		{[]float64{0.5, math.Copysign(0, -1), nan}, 1, false},
		{[]float64{math.Nextafter(0.5, 1), 0, nan}, 1, false},
	} {
		if err := CheckHistory(tc.got, ref, tc.from); (err == nil) != tc.ok {
			t.Errorf("CheckHistory(%v, ref, %d) = %v, want ok %v", tc.got, tc.from, err, tc.ok)
		}
	}
}

// TestMultigridTCPMatchesInproc is the transport-equivalence acceptance
// test: the 4-rank 64^3 multigrid solve over localhost TCP must converge
// through the exact same residual history as the in-process virtual-time
// run of the identical problem.
func TestMultigridTCPMatchesInproc(t *testing.T) {
	const n = 4
	p := MultigridParams{Extent: 64, Levels: 3, Rtol: 1e-6, MaxCycles: 30}
	if testing.Short() {
		p.Extent = 16
	}
	cfg := mpi.Compiled()
	ref := RunMultigridWorld(core.NewUniformWorld(n, cfg), p, petsc.ScatterDatatype)
	if ref.Cycles == 0 || len(ref.History) == 0 {
		t.Fatalf("inproc reference did not converge: %+v", ref)
	}
	got, _ := runMultigridTCP(t, n, p, cfg, nil)
	multigridHistoriesEqual(t, "tcp", got, ref)
}

// TestMultigridTCPLossy runs the same solve with a seeded 1% drop / 1%
// corrupt fault plan on the cluster: the runtime's loss/ack/dedup loop runs
// over the TCP mesh, and the solve must complete via retransmission with
// the identical residual history, every corrupted copy rejected by the
// receiver's checksum.
func TestMultigridTCPLossy(t *testing.T) {
	const n = 4
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	cfg := mpi.Compiled()
	ref := RunMultigridWorld(core.NewUniformWorld(n, cfg), p, petsc.ScatterDatatype)
	fp := &simnet.FaultPlan{Seed: 42, Drop: 0.01, Corrupt: 0.01}

	// Pool-balance witness.  The solve legitimately retains a fixed number
	// of pooled buffers (payloads whose ownership passed to application
	// code), so the reference solve establishes that baseline; the lossy
	// TCP run — with all its retransmissions, CRC rejects and corrupted
	// copies — must not leak a single buffer beyond it.
	gets := obs.Metrics.Counter("datatype.pool_gets")
	puts := obs.Metrics.Counter("datatype.pool_puts")
	b0 := gets.Load() - puts.Load()
	refB := RunMultigridWorld(core.NewUniformWorld(n, cfg), p, petsc.ScatterDatatype)
	multigridHistoriesEqual(t, "baseline rerun", refB, ref)
	refDelta := gets.Load() - puts.Load() - b0

	b1 := gets.Load() - puts.Load()
	got, stats := runMultigridTCP(t, n, p, cfg, fp)
	lossyDelta := gets.Load() - puts.Load() - b1

	multigridHistoriesEqual(t, "lossy tcp", got, ref)
	if stats.Retransmits == 0 || stats.CorruptSent == 0 || stats.CRCRejects == 0 {
		t.Fatalf("reliability protocol never engaged: %+v", stats)
	}
	if lossyDelta != refDelta {
		t.Fatalf("lossy solve leaked pooled buffers: gets-puts delta %d, reference solve %d", lossyDelta, refDelta)
	}
}
