// Command timeline renders an ASCII gantt chart of the virtual-time trace
// of one nearest-neighbor Alltoallw, making the paper's synchronization
// story visible: under the round-robin baseline every rank's lane fills
// with receive-wait time coupled to all other ranks; under the binned
// algorithm the lanes stay short and independent.
//
// Legend: C compute, S send, R receive (including wait), L local copy,
// K skew, . idle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, refuses a chart no world could draw with one stderr line
// and exit 2, and renders both algorithms to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ranks := fs.Int("ranks", 12, "number of ranks")
	width := fs.Int("width", 100, "chart width in characters")
	doAnalyze := fs.Bool("analyze", false, "follow each chart with the cross-rank analyzer report: message matching, wait states, critical path, communication matrix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ranks < 1 || *width < 1 {
		fmt.Fprintf(stderr, "timeline: -ranks %d -width %d: both must be at least 1\n", *ranks, *width)
		return 2
	}

	for _, algo := range []mpi.AlltoallwAlgo{mpi.ATRoundRobin, mpi.ATBinned} {
		cfg := mpi.Optimized()
		cfg.Alltoallw = algo
		fmt.Fprintf(stdout, "=== Alltoallw (%v), %d ranks, ring-neighbor pattern ===\n", algo, *ranks)
		w := render(stdout, *ranks, *width, cfg)
		if *doAnalyze {
			rep := analyze.Analyze(w.Tracer().Spans(),
				analyze.Options{Ranks: *ranks, Dropped: w.Tracer().Dropped()})
			rep.Render(stdout)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func render(stdout io.Writer, n, width int, cfg mpi.Config) *mpi.World {
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
		out := make([]byte, 1600)
		c.Compute(2e-6) // a little work before the collective
		c.Alltoallw(buf, sends, out, recvs)
		return nil
	})
	if err != nil {
		panic(err)
	}

	horizon := w.MaxClock()
	lanes := make([][]byte, n)
	for r := range lanes {
		lanes[r] = make([]byte, width)
		for i := range lanes[r] {
			lanes[r][i] = '.'
		}
	}
	// Only the kinds that make up a rank's sequential timeline are drawn;
	// collective containers and pack phases overlap them.
	symbol := map[string]byte{"compute": 'C', "send": 'S', "recv": 'R', "localcopy": 'L', "skew": 'K'}
	for _, e := range w.Tracer().Spans() {
		sym, ok := symbol[e.Kind]
		if !ok || e.Clock != obs.ClockVirtual {
			continue
		}
		lo := int(e.Start / horizon * float64(width))
		hi := int(e.End / horizon * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < width; i++ {
			lanes[e.Rank][i] = sym
		}
	}
	fmt.Fprintf(stdout, "horizon: %.1f us\n", horizon*1e6)
	for r, lane := range lanes {
		fmt.Fprintf(stdout, "rank %3d |%s|\n", r, lane)
	}
	return w
}
