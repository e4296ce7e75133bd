// Command repro regenerates the tables and figures of the paper's
// evaluation section, printing paper-vs-measured tables suitable for
// EXPERIMENTS.md.  -fig picks one figure (12, 13, 14a, 14b, 15, 16, 17), the
// ablation studies (ablate) or the AMR extension experiment (amr); the
// default, all, runs Figures 12 through 17 in order.  Use -quick for a
// reduced sweep during development.
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
	"nccd/internal/core"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

// sweep is the parameter set of Figures 12-17.  There are exactly two: the
// paper's and the reduced -quick one.
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
}

// traceRanks is the world size of the -trace solve.
const traceRanks = 4

// figures lists what -fig accepts, in the order "all" runs them.  The
// ablation and AMR studies are extensions, not paper figures: they have one
// sweep each and are not part of "all".
var figures = []struct {
	name  string
	inAll bool
	run   func(s *sweep, w io.Writer)
}{
	{"12", true, func(s *sweep, w io.Writer) {
		bench.Fig12(s.transposeSizes, s.transposeIters).Print(w)
	}},
	{"13", true, func(s *sweep, w io.Writer) {
		a, b := bench.Fig13(s.transposeSizes, s.transposeIters)
		a.Print(w)
		b.Print(w)
	}},
	{"14a", true, func(s *sweep, w io.Writer) { bench.Fig14a(s.agvSizes, s.agvIters).Print(w) }},
	{"14b", true, func(s *sweep, w io.Writer) { bench.Fig14b(s.agvProcs, s.agvIters).Print(w) }},
	{"15", true, func(s *sweep, w io.Writer) { bench.Fig15(s.a2aProcs, s.a2aIters).Print(w) }},
	{"16", true, func(s *sweep, w io.Writer) { bench.Fig16(s.vsProcs, s.vs).Print(w) }},
	{"17", true, func(s *sweep, w io.Writer) { bench.Fig17(s.mgProcs, s.mg).Print(w) }},
	{"ablate", false, func(_ *sweep, w io.Writer) {
		const n, iters = 256, 3 // transpose matrix size for the engine ablations
		bench.AblateLookAhead([]int{1, 2, 4, 8, 15, 32, 64, 128, 256}, n, iters).Print(w)
		bench.AblatePipeline([]int{4096, 8192, 16384, 32768, 65536, 131072, 262144}, n, iters).Print(w)
		bench.AblateBinThreshold([]int{0, 64, 1024, 1 << 20}, iters).Print(w)
		bench.AblateAlgorithms([]int{8, 16, 32, 64}, iters).Print(w)
		bench.AblateOutlierThreshold([]float64{1.5, 2, 4, 8, 16, 64}, iters).Print(w)
		mgp := bench.MultigridParams{Extent: 48, Levels: 3, Rtol: 1e-6, MaxCycles: 30}
		bench.AblateAgglomeration([]int{16, 32, 64, 128}, mgp, 2048).Print(w)
		bench.AblateSmoother([]int{8, 32}, mgp).Print(w)
	}},
	{"amr", false, func(_ *sweep, w io.Writer) {
		bench.AMRByProcs([]int{4, 8, 16, 32, 64, 128}, bench.DefaultAMRParams).Print(w)
		bench.AMRByImbalance([]float64{0, 0.5, 1, 2, 4, 8}, 64, bench.DefaultAMRParams).Print(w)
	}},
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
	quick := fs.Bool("quick", false, "reduced parameter sweeps for Figures 12-17")
	trace := fs.String("trace", "", "after the sweeps, run one traced multigrid solve and write its Chrome trace here")
	metrics := fs.String("metrics", "", "write a JSON snapshot of the process metrics registry here after the run")
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
	for _, n := range append([]int{traceRanks}, s.mgProcs...) {
		if err := s.mg.Validate(n); err != nil {
			fmt.Fprintf(stderr, "repro: multigrid sweep on %d ranks: %v\n", n, err)
			return 2
		}
	}

	start := time.Now()
	if all {
		fmt.Fprintln(stdout, "Reproducing: Nonuniformly Communicating Noncontiguous Data (IPDPS 2007)")
		fmt.Fprintln(stdout, "Simulated testbed: 32 Intel EM64T + 32 AMD Opteron nodes, IB DDR (virtual-time model)")
		fmt.Fprintln(stdout)
	}
	for _, f := range figures {
		if f.name == *fig || all && f.inAll {
			f.run(s, stdout)
		}
	}

	if *trace != "" {
		arm := core.Arm{Name: "compiled", Config: mpi.Compiled(), Mode: petsc.ScatterDatatype}
		res, spans, err := bench.TraceMultigrid(traceRanks, s.mg, arm, *trace)
		if err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 1
		}
		fmt.Fprintf(stdout, "traced solve: %d cycles, %d spans; wrote %s\n", res.Cycles, len(spans), *trace)
	}
	if *metrics != "" {
		if err := obs.Metrics.WriteSnapshotFile(*metrics); err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote metrics snapshot", *metrics)
	}
	if all {
		fmt.Fprintf(stdout, "total harness time: %v\n", time.Since(start).Round(time.Second))
	}
	return 0
}
