// Command repro regenerates the tables and figures of the paper's
// evaluation section, printing paper-vs-measured tables suitable for
// EXPERIMENTS.md.  -fig picks one figure (12, 13, 14a, 14b, 15, 16, 17), the
// ablation studies (ablate), the Alltoallw timeline chart behind Figure 15
// (timeline), the crash-recovery demo (faults) or the checkpoint I/O fault matrix (iomatrix); the default,
// all, runs Figures 12 through 17 in order.  Use -quick for a reduced sweep
// during development.  A figure that fails (a crash row that does not
// recover, a fault cell that does not heal) makes repro exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

// sweep is the parameter set of Figures 12-17, the timeline chart and the
// crash-recovery demo.  There are exactly two: the paper's and the reduced
// -quick one.
type sweep struct {
	transposeSizes []int
	transposeIters int
	agvSizes       []int
	agvProcs       []int
	agvIters       int
	a2aProcs       []int
	a2aIters       int
	vsProcs        []int
	vs             bench.VecScatterParams
	mgProcs        []int
	mg             bench.MultigridParams
	timelineRanks  int
	faultProcs     int
	faultIters     int
	fault          bench.MultigridParams
}

var fullSweep = sweep{
	transposeSizes: []int{64, 128, 256, 512, 1024},
	transposeIters: 3,
	agvSizes:       []int{1, 4, 16, 64, 256, 1024, 4096, 16384},
	agvProcs:       []int{2, 4, 8, 16, 32, 64},
	agvIters:       5,
	a2aProcs:       []int{2, 4, 8, 16, 32, 64, 128},
	a2aIters:       20,
	vsProcs:        []int{2, 4, 8, 16, 32, 64, 128},
	vs:             bench.DefaultVecScatterParams,
	mgProcs:        []int{4, 8, 16, 32, 64, 128},
	mg:             bench.DefaultMultigridParams,
	timelineRanks:  12,
	faultProcs:     16,
	faultIters:     10,
	fault:          bench.MultigridParams{Extent: 100, Levels: 3, Rtol: 1e-6, MaxCycles: 50},
}

var quickSweep = sweep{
	transposeSizes: []int{64, 128, 256},
	transposeIters: 2,
	agvSizes:       []int{16, 256, 4096},
	agvProcs:       []int{4, 16, 64},
	agvIters:       3,
	a2aProcs:       []int{4, 16, 64},
	a2aIters:       8,
	vsProcs:        []int{4, 16, 64},
	vs:             bench.VecScatterParams{PerRankDoubles: 1 << 14, Iters: 3},
	mgProcs:        []int{4, 16, 64},
	mg:             bench.MultigridParams{Extent: 32, Levels: 3, Rtol: 1e-6, MaxCycles: 30},
	timelineRanks:  8,
	faultProcs:     4,
	faultIters:     1,
	fault:          bench.MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 50},
}

// figures lists what -fig accepts, in the order "all" runs them.  The
// ablation, timeline and fault studies are extensions, not paper
// tables: they are not part of "all".
var figures = []struct {
	name  string
	inAll bool
	run   func(s *sweep, w io.Writer) error
}{
	{"12", true, table(func(s *sweep, w io.Writer) {
		bench.Fig12(s.transposeSizes, s.transposeIters).Print(w)
	})},
	{"13", true, table(func(s *sweep, w io.Writer) {
		a, b := bench.Fig13(s.transposeSizes, s.transposeIters)
		a.Print(w)
		b.Print(w)
	})},
	{"14a", true, table(func(s *sweep, w io.Writer) { bench.Fig14a(s.agvSizes, s.agvIters).Print(w) })},
	{"14b", true, table(func(s *sweep, w io.Writer) { bench.Fig14b(s.agvProcs, s.agvIters).Print(w) })},
	{"15", true, table(func(s *sweep, w io.Writer) { bench.Fig15(s.a2aProcs, s.a2aIters).Print(w) })},
	{"16", true, table(func(s *sweep, w io.Writer) { bench.Fig16(s.vsProcs, s.vs).Print(w) })},
	{"17", true, table(func(s *sweep, w io.Writer) { bench.Fig17(s.mgProcs, s.mg).Print(w) })},
	{"ablate", false, table(func(_ *sweep, w io.Writer) {
		const n, iters = 256, 3 // transpose matrix size for the engine ablations
		bench.AblateLookAhead([]int{1, 2, 4, 8, 15, 32, 64, 128, 256}, n, iters).Print(w)
		bench.AblatePipeline([]int{4096, 8192, 16384, 32768, 65536, 131072, 262144}, n, iters).Print(w)
		bench.AblateBinThreshold([]int{0, 64, 1024, 1 << 20}, iters).Print(w)
		bench.AblateAlgorithms([]int{8, 16, 32, 64}, iters).Print(w)
		bench.AblateOutlierThreshold([]float64{1.5, 2, 4, 8, 16, 64}, iters).Print(w)
		mgp := bench.MultigridParams{Extent: 48, Levels: 3, Rtol: 1e-6, MaxCycles: 30}
		bench.AblateAgglomeration([]int{16, 32, 64, 128}, mgp, 2048).Print(w)
	})},
	{"timeline", false, timeline},
	{"faults", false, faults},
	{"iomatrix", false, ioMatrix},
}

// table adapts a figure that only prints tables, and so cannot fail.
func table(f func(s *sweep, w io.Writer)) func(*sweep, io.Writer) error {
	return func(s *sweep, w io.Writer) error {
		f(s, w)
		return nil
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	accepted := strings.Join(names, ", ") + " or all"

	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "what to reproduce: "+accepted+" (all = Figures 12-17)")
	quick := fs.Bool("quick", false, "reduced parameter sweeps for Figures 12-17, timeline and faults")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	all := *fig == "all"
	if !all && !slices.Contains(names, *fig) {
		fmt.Fprintf(stderr, "repro: unknown -fig %q (want %s)\n", *fig, accepted)
		return 2
	}

	s := &fullSweep
	if *quick {
		s = &quickSweep
	}
	start := time.Now()
	if all {
		fmt.Fprintln(stdout, "Reproducing: Nonuniformly Communicating Noncontiguous Data (IPDPS 2007)")
		fmt.Fprintln(stdout, "Simulated testbed: 32 Intel EM64T + 32 AMD Opteron nodes, IB DDR (virtual-time model)")
		fmt.Fprintln(stdout)
	}
	for _, f := range figures {
		if f.name == *fig || all && f.inAll {
			if err := f.run(s, stdout); err != nil {
				fmt.Fprintf(stderr, "repro: -fig %s: %v\n", f.name, err)
				return 1
			}
		}
	}
	if all {
		fmt.Fprintf(stdout, "total harness time: %v\n", time.Since(start).Round(time.Second))
	}
	return 0
}

// chartWidth is the timeline chart's width in columns.
const chartWidth = 100

// timeline draws an ASCII gantt chart of the virtual-time trace of one
// nearest-neighbor Alltoallw under each algorithm, each followed by the
// cross-rank analyzer's report.  It makes the paper's synchronization story
// (Figure 15) visible: under the round-robin baseline every rank's lane
// fills with receive-wait time coupled to all other ranks; under the binned
// algorithm the lanes stay short and independent.
//
// Legend: C compute, S send, R receive (including wait), L local copy,
// K skew, . idle.
func timeline(s *sweep, out io.Writer) error {
	for _, algo := range []mpi.AlltoallwAlgo{mpi.ATRoundRobin, mpi.ATBinned} {
		if err := chart(out, s.timelineRanks, algo); err != nil {
			return err
		}
	}
	return nil
}

// chart runs the ring exchange on n ranks, draws one lane per rank and
// reports on the trace.
func chart(out io.Writer, n int, algo mpi.AlltoallwAlgo) error {
	cfg := mpi.Optimized()
	cfg.Alltoallw = algo
	fmt.Fprintf(out, "=== Alltoallw (%v), %d ranks, ring-neighbor pattern ===\n", algo, n)
	w := core.NewPaperWorld(n, cfg)
	w.EnableTrace()
	mat := datatype.Contiguous(100, datatype.Double)
	err := w.Run(func(c *mpi.Comm) error {
		me := c.Rank()
		succ, pred := (me+1)%n, (me-1+n)%n
		sends := make([]mpi.TypeSpec, n)
		recvs := make([]mpi.TypeSpec, n)
		sends[succ] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 0}
		recvs[succ] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 0}
		if pred != succ {
			sends[pred] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 800}
			recvs[pred] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 800}
		}
		buf := make([]byte, 1600)
		recv := make([]byte, 1600)
		c.Compute(2e-6) // a little work before the collective
		c.Alltoallw(buf, sends, recv, recvs)
		return nil
	})
	if err != nil {
		return err
	}

	horizon := w.MaxClock()
	lanes := make([][]byte, n)
	for r := range lanes {
		lanes[r] = []byte(strings.Repeat(".", chartWidth))
	}
	// Only the kinds that make up a rank's sequential timeline are drawn;
	// collective containers and pack phases overlap them.
	symbol := map[string]byte{"compute": 'C', "send": 'S', "recv": 'R', "localcopy": 'L', "skew": 'K'}
	for _, e := range w.Tracer().Spans() {
		sym, ok := symbol[e.Kind]
		if !ok || e.Clock != obs.ClockVirtual {
			continue
		}
		lo := int(e.Start / horizon * chartWidth)
		hi := int(e.End / horizon * chartWidth)
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < chartWidth; i++ {
			lanes[e.Rank][i] = sym
		}
	}
	fmt.Fprintf(out, "horizon: %.1f us\n", horizon*1e6)
	for r, lane := range lanes {
		fmt.Fprintf(out, "rank %3d |%s|\n", r, lane)
	}
	analyze.Analyze(w.Tracer().Spans(), analyze.Options{Ranks: n, Dropped: w.Tracer().Dropped()}).Render(out)
	fmt.Fprintln(out)
	return nil
}

// faultSeed seeds the lossy links of the reliability-overhead table.
const faultSeed = 20250806

// faults prints the reliability layer's overhead under lossy links, then
// the multigrid solve healing from a rank crash three ways: from a
// checkpoint, with the root rank gone, and from scratch (the crash comes
// before the first checkpoint).  Each heals the one way there is: the dead
// rank is respawned, the full-size communicator regrown by Comm.Restore and
// the solve resumed.  A solve that misses its tolerance or the clean
// history after the crash, restores from the wrong place, or never sees the
// crash, is an error.
func faults(s *sweep, w io.Writer) error {
	n, p := s.faultProcs, s.fault
	bench.FaultOverhead(n, []float64{0.001, 0.01, 0.05}, s.faultIters, faultSeed).Print(w)
	for _, c := range []struct {
		rank    int
		frac    float64
		scratch bool // the crash comes before the first checkpoint
	}{{n - 1, 0.5, false}, {0, 0.5, false}, {n - 1, 0.01, true}} {
		fmt.Fprintf(w, "FAULTSIM: %d^3 multigrid on %d ranks, rank %d crashes at %.0f%% of the clean solve\n",
			p.Extent, n, c.rank, 100*c.frac)
		fail := func(format string, a ...any) error {
			return fmt.Errorf("rank %d crash at %.0f%%: %s", c.rank, 100*c.frac, fmt.Sprintf(format, a...))
		}
		run, err := bench.RunMultigridSelfHeal(n, p, c.rank, c.frac, nil, ckptio.Options{})
		if err != nil {
			return fail("%v", err)
		}
		res := run.Result
		fmt.Fprintf(w, "  clean solve:    %d cycles, %.4f s virtual\n", run.CleanCycles, run.CleanSeconds)
		fmt.Fprintf(w, "  crash injected: t=%.4f s\n", c.frac*run.CleanSeconds)
		switch {
		case run.Respawns == 0:
			return fail("the solve converged first; no recovery exercised")
		case res.RestoredAt == 0:
			fmt.Fprintf(w, "  recovery:       respawn rank %d, regrow to %d ranks, restart from scratch (crash before the first checkpoint)\n",
				c.rank, res.FinalSize)
		default:
			fmt.Fprintf(w, "  recovery:       respawn rank %d, regrow to %d ranks, restart from checkpoint of cycle %d\n",
				c.rank, res.FinalSize, res.RestoredAt)
		}
		fmt.Fprintf(w, "  resumed run:    %d cycles to relative residual %.3e (target %.0e)\n",
			res.Cycles-max(res.RestoredAt, 0), res.RelRes, p.Rtol)
		fmt.Fprintf(w, "  healed total:   %.4f s virtual (clean %.4f s)\n", run.Seconds, run.CleanSeconds)
		switch {
		case !res.Healed || res.RelRes > p.Rtol:
			return fail("the resumed solve missed its tolerance")
		case !run.HistoryMatches:
			return fail("the resumed solve's history is not the clean solve's")
		case c.scratch != (res.RestoredAt == 0):
			return fail("restored from cycle %d", res.RestoredAt)
		}
		fmt.Fprintln(w, "  RESULT: solve converged after mid-solve rank crash via respawn and Comm.Restore()")
	}
	return nil
}

// ioMatrix sweeps injected checkpoint-I/O faults (short writes, EIO, fsync
// failure, ENOSPC, filesystem crash) over the collective checkpoint layer
// while a rank is killed mid-solve.  Every cell must heal with a
// bitwise-identical resumed history: an aborted checkpoint epoch may cost a
// restore point, never correctness.
func ioMatrix(_ *sweep, w io.Writer) error {
	const n = 4
	p := bench.MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	fmt.Fprintf(w, "FAULTSIM: collective checkpoint I/O fault matrix (%d ranks, %d^3 grid, rank kill at 50%%)\n", n, p.Extent)
	failed := 0
	for _, sp := range []struct {
		name string
		plan *ckptio.FaultPlan
	}{
		{"clean", nil},
		{"short-writes", &ckptio.FaultPlan{ShortWrite: 0.3, Seed: 11}},
		{"eio", &ckptio.FaultPlan{WriteErr: 0.2, Seed: 12}},
		{"fsync-fail", &ckptio.FaultPlan{FsyncErr: 0.3, Seed: 13}},
		{"enospc", &ckptio.FaultPlan{ENOSPCAfter: 262144, Seed: 14}},
		{"fs-crash", &ckptio.FaultPlan{CrashAfterOps: 40, Seed: 15}},
	} {
		run, err := bench.RunMultigridSelfHeal(n, p, n/2, 0.5, nil,
			ckptio.Options{StripeBytes: 4096, Aggregators: 2, Faults: sp.plan})
		switch {
		case err != nil:
			fmt.Fprintf(w, "  %-13s FAIL: %v\n", sp.name, err)
			failed++
		case !run.Result.Healed || !run.HistoryMatches:
			fmt.Fprintf(w, "  %-13s FAIL: healed=%v historyMatches=%v restoredAt=%d\n",
				sp.name, run.Result.Healed, run.HistoryMatches, run.Result.RestoredAt)
			failed++
		default:
			fmt.Fprintf(w, "  %-13s ok: healed at full size, restored from cycle %d, history bitwise-identical\n",
				sp.name, run.Result.RestoredAt)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of 6 checkpoint I/O fault cells failed", failed)
	}
	fmt.Fprintln(w, "  RESULT: every fault cell healed with a bitwise-identical history")
	return nil
}
