package mg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// withWorkers runs f with the row bands' seam forcing n workers on every
// one-rank wave (1 is the serial code), and restores the seam after.
func withWorkers(n int, f func()) {
	was := forceWorkers
	forceWorkers = n
	defer func() { forceWorkers = was }()
	f()
}

// bandOutcome is what a one-rank solve leaves behind: x, History, the
// virtual clock and every span the world recorded.
type bandOutcome struct {
	x, hist []float64
	clock   float64
	spans   string
}

// bandSolve solves shape k's seeded problem on one rank with tracing on: by
// conjugate gradients or the Richardson iteration, and, where resume is set,
// as SolveFrom of the iteration-2 checkpoint of a first solve of three
// iterations.
func bandSolve(t *testing.T, k kernelShape, richardson, resume bool) bandOutcome {
	t.Helper()
	var out bandOutcome
	w := mpi.NewWorld(simnet.Uniform(1, simnet.IBDDR()), k.cfg)
	w.Tracer().Enable()
	err := w.Run(func(c *mpi.Comm) error {
		mk := func() (*Solver, *petsc.Vec, *petsc.Vec) {
			s := k.solver(c)
			s.Richardson = richardson
			b, x := s.CreateVec(), s.CreateVec()
			fillSeeded(b, 7)
			return s, b, x
		}
		s, b, x := mk()
		if !resume {
			s.Solve(b, x, 1e-12, 5)
		} else {
			st, err := ckptio.NewStore(t.TempDir(), nil, ckptio.Options{})
			if err != nil {
				return err
			}
			s.CheckpointTo(st, 2)
			s.Solve(b, x, 1e-30, 3)
			s, b, x = mk()
			s.CheckpointTo(st, 0)
			if _, _, err := s.SolveFrom(b, x, 1e-30, 3, 2); err != nil {
				return err
			}
		}
		out.x = slices.Clone(x.Array())
		out.hist = slices.Clone(s.History)
		out.clock = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out.spans = fmt.Sprint(w.Tracer().Spans())
	return out
}

// bandShapes are the grids TestRowBandsBitwise solves on one rank: 1-D, whose
// one plane of one row is cut into slabs of one row or none, 2-D, whose one
// plane is cut along y, 3-D with planes of two rows, with fewer planes than
// the workers, with slabs of one and two planes, thinner than the deepest
// stage's depth from a slab face, and a level 1 wide enough to run in slabs
// too (bandLevelCells).
var bandShapes = []kernelShape{
	{n: []int{64}, levels: 3},
	{n: []int{32, 24}, levels: 3},
	{n: []int{16, 2, 8}, levels: 2},
	{n: []int{24, 16, 6}, levels: 2},
	{n: []int{24, 16, 40}, levels: 4},
	{n: []int{128, 64, 4}, levels: 2},
}

// TestRowBandsBitwise: a one-rank solve in slabs of 2, 3 and 4 workers leaves
// x, History, the virtual clock and the span list as the serial solve does,
// bit for bit, under both arms, by conjugate gradients and by the Richardson
// iteration, and resumed by SolveFrom.  Where the process has a core to
// spare, a helper runs a slab of the 2-D grid.
func TestRowBandsBitwise(t *testing.T) {
	helped := cores.helped.Load()
	for i, k := range bandShapes {
		shapeHelped := cores.helped.Load()
		k.np, k.cfg = 1, mpi.Compiled()
		for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
			k.mode = mode
			for _, how := range []struct {
				name               string
				richardson, resume bool
			}{{"cg", false, false}, {"richardson", true, false}, {"cg resumed", false, true}, {"richardson resumed", true, true}} {
				if how.resume && (i%2 == 0) != (mode == petsc.ScatterDatatype) {
					continue // resume every shape under one arm
				}
				var want bandOutcome
				withWorkers(1, func() { want = bandSolve(t, k, how.richardson, how.resume) })
				for _, n := range []int{2, 3, 4} {
					var got bandOutcome
					withWorkers(n, func() { got = bandSolve(t, k, how.richardson, how.resume) })
					what := fmt.Sprintf("%v, %s, %d workers", k, how.name, n)
					if err := bitsDiffer(what+": x", got.x, want.x); err != nil {
						t.Fatal(err)
					}
					if err := bitsDiffer(what+": History", got.hist, want.hist); err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.clock) != math.Float64bits(want.clock) {
						t.Fatalf("%s: virtual clock %v, serial %v", what, got.clock, want.clock)
					}
					if got.spans != want.spans {
						t.Fatalf("%s: spans differ from the serial solve's", what)
					}
				}
			}
		}
		if runtime.GOMAXPROCS(0) > 1 && len(k.n) == 2 && cores.helped.Load() == shapeHelped {
			t.Fatalf("%v: no helper ran a slab", k)
		}
	}
	if runtime.GOMAXPROCS(0) > 1 && cores.helped.Load() == helped {
		t.Fatal("no helper ran a band")
	}
}

// TestSolveAllocatesNothing: a 32³ one-rank solve, after a collection as the
// benchmark harness makes one before every op, allocates nothing in the
// median of nine, whether or not it borrows helpers.
func TestSolveAllocatesNothing(t *testing.T) {
	runWorld(t, 1, mpi.Compiled(), func(c *mpi.Comm) error {
		s := New(c, []int{32, 32, 32}, 3, petsc.ScatterDatatype)
		b, x := s.CreateVec(), s.CreateVec()
		fillSeeded(b, 1)
		var deltas []uint64
		var before, after runtime.MemStats
		for range 9 {
			x.Set(0)
			runtime.GC()
			runtime.ReadMemStats(&before)
			s.Solve(b, x, 1e-6, 30)
			runtime.ReadMemStats(&after)
			deltas = append(deltas, after.Mallocs-before.Mallocs)
		}
		slices.Sort(deltas)
		if m := deltas[len(deltas)/2]; m != 0 {
			return fmt.Errorf("a solve allocates %d times in the median of nine: %v", m, deltas)
		}
		return nil
	})
}

// TestSolversStartNoGoroutineEach: building, solving with and dropping 50
// one-rank solvers leaves no more goroutines than the pool's GOMAXPROCS−1
// helpers.
func TestSolversStartNoGoroutineEach(t *testing.T) {
	before := runtime.NumGoroutine()
	for range 50 {
		runWorld(t, 1, mpi.Compiled(), func(c *mpi.Comm) error {
			s := New(c, []int{16, 16, 16}, 2, petsc.ScatterDatatype)
			b, x := s.CreateVec(), s.CreateVec()
			fillSeeded(b, 1)
			s.Solve(b, x, 1e-6, 3)
			return nil
		})
	}
	runtime.GC()
	if n, most := runtime.NumGoroutine(), before+runtime.GOMAXPROCS(0)-1; n > most {
		t.Fatalf("%d goroutines after 50 solvers, %d before and GOMAXPROCS %d", n, before, runtime.GOMAXPROCS(0))
	}
}

// TestConcurrentSolvesShareCores: under GOMAXPROCS=2 a lone one-rank solve
// borrows a helper, and two running at once take one core each and lend no
// helper while both run, every History the serial solve's; a two-rank world
// borrows nothing; under GOMAXPROCS=1 a one-rank solve starts no goroutine.
func TestConcurrentSolvesShareCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const iterations = 6
	// solveOn solves a 32³ problem on np ranks and returns rank 0's History.
	solveOn := func(np int, onCycle func(int) error) ([]float64, error) {
		var hist []float64
		w := mpi.NewWorld(simnet.Uniform(np, simnet.IBDDR()), mpi.Compiled())
		err := w.Run(func(c *mpi.Comm) error {
			s := New(c, []int{32, 32, 32}, 3, petsc.ScatterDatatype)
			b, x := s.CreateVec(), s.CreateVec()
			fillSeeded(b, 3)
			var stopped error
			if onCycle != nil {
				s.OnCycle = func(it int) error { stopped = onCycle(it); return stopped }
			}
			s.Solve(b, x, 1e-30, iterations)
			if c.Rank() == 0 {
				hist = slices.Clone(s.History)
			}
			return stopped
		})
		return hist, err
	}
	solve := func(onCycle func(int) error) []float64 {
		t.Helper()
		hist, err := solveOn(1, onCycle)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	var want []float64
	withWorkers(1, func() { want = solve(nil) })
	from := cores.loans.Load()
	if h := solve(nil); !slices.Equal(h, want) {
		t.Fatal("a lone solve's History is not the serial one's")
	}
	if cores.loans.Load() == from {
		t.Fatal("a lone one-rank solve under GOMAXPROCS=2 borrowed no helper")
	}

	// Both solves wait for each other at the start of their first and their
	// last iteration, where neither is inside a wave; in between, both are
	// running.
	var first, last sync.WaitGroup
	first.Add(2)
	last.Add(2)
	loans := make([]int64, 2)
	got := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = solveOn(1, func(it int) error {
				switch it {
				case 1:
					first.Done()
					first.Wait()
					loans[i] = cores.loans.Load()
				case iterations:
					last.Done()
					last.Wait()
					if now := cores.loans.Load(); now != loans[i] {
						return fmt.Errorf("%d helpers lent while two solves ran under GOMAXPROCS=2", now-loans[i])
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	for i, h := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if err := bitsDiffer(fmt.Sprintf("concurrent solve %d: History", i), h, want); err != nil {
			t.Fatal(err)
		}
	}

	from = cores.loans.Load()
	if _, err := solveOn(2, nil); err != nil {
		t.Fatal(err)
	}
	if n := cores.loans.Load() - from; n != 0 {
		t.Fatalf("a two-rank world borrowed %d helpers", n)
	}

	runtime.GOMAXPROCS(1)
	goroutines := runtime.NumGoroutine()
	if h := solve(nil); !slices.Equal(h, want) {
		t.Fatal("under GOMAXPROCS=1 the solve's History is not the serial one's")
	}
	if n := cores.loans.Load() - from; n != 0 {
		t.Fatalf("under GOMAXPROCS=1 a solve borrowed %d helpers", n)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("under GOMAXPROCS=1 a solve left %d goroutines, %d before", n, goroutines)
	}
}

// TestRowBandsHandoffs: a banded wave hands its crew at most 1 + stages
// tasks: both halves of the V-cycle on every banded level and the conjugate
// gradients' direction.  A wave is one task,
// the slabs of every worker; a task per wavefront step would be planes +
// 2·stages.  The tasks are counted in the crew's state word, whose
// generation borrow sets to 0 and every task and the release move on by one.
func TestRowBandsHandoffs(t *testing.T) {
	withWorkers(2, func() {
		runWorld(t, 1, mpi.Compiled(), func(c *mpi.Comm) error {
			s := New(c, []int{128, 64, 16}, 3, petsc.ScatterDatatype)
			b, x := s.CreateVec(), s.CreateVec()
			fillSeeded(b, 5)
			check := func(what string, l int, wave func()) error {
				if s.crew != nil {
					s.crew.state.Store(0)
				}
				wave()
				stages := len(s.levels[l].wave.stages)
				n := 0
				if s.crew != nil {
					n = int(s.crew.state.Load()>>stateGen) - 1
				}
				if n <= 0 {
					return fmt.Errorf("%s of level %d: no task handed to a crew", what, l)
				}
				if n > 1+stages {
					return fmt.Errorf("%s of level %d: %d tasks for %d stages", what, l, n, stages)
				}
				return nil
			}
			for l := 0; l < 2; l++ {
				lb, lx := b, x
				if l > 0 {
					lb, lx = s.levels[l].b, s.levels[l].x
				}
				if err := check("pre-smoothing", l, func() { s.pre(l, fromNothing, lb, lx) }); err != nil {
					return err
				}
				if err := check("post-smoothing", l, func() { s.post(l, lb, lx, endResidual) }); err != nil {
					return err
				}
			}
			for _, rho := range []float64{0, 2} {
				if err := check("direction", 0, func() { s.direction(1, rho) }); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
