package bench

import (
	"fmt"
	"math"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/core"
	"nccd/internal/dmda"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

// MultigridParams configures the 3-D Laplacian multigrid application run.
type MultigridParams struct {
	// Extent is the cubic grid size per dimension (the paper uses 100).
	Extent int
	// Levels is the multigrid depth (the paper uses 3).
	Levels int
	// Rtol is the solve tolerance.
	Rtol float64
	// MaxCycles bounds the V-cycle count.
	MaxCycles int
	// AgglomerateCells is mg.NewAgglomerated's minCellsPerRank.  Zero is
	// mg.New's hierarchy, whose coarsest level of at most 16³ cells lives on
	// rank 0 alone; 1 keeps every level on every rank, the paper's
	// configuration; k > 1 concentrates levels with fewer than k cells per
	// rank onto fewer ranks (an extension).
	AgglomerateCells int
	// Richardson solves by bare V-cycles (mg.Solver.Richardson) instead of
	// conjugate gradients preconditioned by one.  The paper's rows set it,
	// as they set AgglomerateCells: Fig17, AblateAgglomeration and the E7
	// fixture of the virtual-clock golden.
	Richardson bool
}

// DefaultMultigridParams is the paper's configuration: 100^3, one degree of
// freedom, three levels.
var DefaultMultigridParams = MultigridParams{Extent: 100, Levels: 3, Rtol: 1e-6, MaxCycles: 30}

// MaxCycles caps MultigridParams.MaxCycles: a resumed solve's restore-point
// agreement (agreeRestoreBase) reduces one value per possible cycle.
const MaxCycles = 1 << 20

// Validate reports why p cannot be solved on ranks ranks, or nil.  It is
// the one problem-shape check every front-end (mgsolve, nccdd, repro, the
// service) runs before it builds a world; mg.New and dmda.FactorGrid keep
// their panics as the library-level guard.
func (p MultigridParams) Validate(ranks int) error {
	if p.Extent < 4 {
		return fmt.Errorf("extent %d too small (need >= 4)", p.Extent)
	}
	if p.Levels < 1 {
		return fmt.Errorf("levels %d too small (need >= 1)", p.Levels)
	}
	if p.MaxCycles < 1 {
		return fmt.Errorf("max_cycles %d too small (need >= 1)", p.MaxCycles)
	}
	if p.MaxCycles > MaxCycles {
		return fmt.Errorf("max_cycles %d too large (limit %d)", p.MaxCycles, MaxCycles)
	}
	if !(p.Rtol > 0) { // NaN too: no residual is ever below it
		return fmt.Errorf("rtol %v not positive", p.Rtol)
	}
	if ranks < 1 {
		return fmt.Errorf("ranks %d too small (need >= 1)", ranks)
	}
	for l, ext := 1, p.Extent; l < p.Levels; l, ext = l+1, ext/2 {
		if ext%2 != 0 {
			return fmt.Errorf("extent %d not divisible by 2^(levels-1) = %.0f", p.Extent, math.Ldexp(1, p.Levels-1))
		}
	}
	// Every level needs a process grid over the ranks mg.NewAgglomerated
	// gives it.
	for l, ext := 0, p.Extent; l < p.Levels; l, ext = l+1, ext/2 {
		active := mg.LevelRanks(ranks, ext*ext*ext, l == p.Levels-1, p.AgglomerateCells)
		if !dmda.GridFeasible(active, 3, [3]int{ext, ext, ext}) {
			return fmt.Errorf("no feasible process grid for %d ranks on the %d^3 grid of level %d", active, ext, l)
		}
	}
	return nil
}

// MultigridResult holds one application run's outcome.
type MultigridResult struct {
	Seconds float64
	Cycles  int
	RelRes  float64
	// History is the relative residual after each V-cycle — the
	// decomposition- and transport-independent convergence witness used to
	// compare in-process and multi-process runs of the same problem.
	History []float64
	// Restored is the checkpoint iteration a resumed run (see
	// MultigridRankOptions.Resume) restarted from; zero for a fresh solve.
	// A resumed History covers cycles Restored+1 onward.
	Restored int
}

// CheckHistory returns nil where got, the History of a solve resumed after
// iteration from (≤ 0 for a fresh one), is ref's from iteration from+1 on,
// bit for bit (math.Float64bits), or else an error naming the first
// difference.
func CheckHistory(got, ref []float64, from int) error {
	from = max(from, 0)
	if len(got) != len(ref)-from {
		return fmt.Errorf("%d iterations after iteration %d, the reference %d in all", len(got), from, len(ref))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(ref[from+i]) {
			return fmt.Errorf("iteration %d: residual %v, the reference %v", from+i+1, v, ref[from+i])
		}
	}
	return nil
}

// RunMultigrid measures the Section 5.5 application: solving the 3-D
// Laplacian (equation 2 with homogeneous boundaries) on an Extent^3 grid
// with a Levels-level multigrid, for one experimental arm.
func RunMultigrid(n int, p MultigridParams, arm core.Arm) MultigridResult {
	return RunMultigridWorld(core.NewPaperWorld(n, arm.Config), p, arm.Mode)
}

// RunMultigridWorld runs the same application on a caller-supplied world —
// any cluster model, any transport.  On a virtual-time world the reported
// seconds are the rank-maximum virtual solve time; on a wall-clock world
// (multi-process ranks over TCP) they are real elapsed time, and every
// hosted rank fills in the result, since each process observes only its
// own ranks.
func RunMultigridWorld(w *mpi.World, p MultigridParams, mode petsc.ScatterMode) MultigridResult {
	var out MultigridResult
	err := w.Run(func(c *mpi.Comm) error {
		r, err := MultigridRank(c, p, mode, MultigridRankOptions{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 || w.Wallclock() {
			out = r
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// TraceMultigrid runs the in-process multigrid solve with tracing enabled
// and returns every rank's spans (all ranks share the world tracer) with
// the tracer's drop count.
func TraceMultigrid(n int, p MultigridParams, arm core.Arm) (MultigridResult, obs.SpanFile) {
	w := core.NewPaperWorld(n, arm.Config)
	w.Tracer().Enable()
	res := RunMultigridWorld(w, p, arm.Mode)
	return res, obs.SpanFile{Dropped: w.Tracer().Dropped(), Spans: w.Tracer().Spans()}
}

// MultigridRankOptions extends the per-rank application body for service
// use: scheduler pacing and cooperative cancellation (OnCycle), periodic
// checkpoints (Store/CheckpointEvery), and crash recovery (Resume).
// The zero value runs the plain Fig17 body.
type MultigridRankOptions struct {
	// OnCycle, when non-nil, is mg.Solver.OnCycle: called before every
	// V-cycle with the absolute cycle number (a resumed solve's first is
	// Restored+1); a non-nil error stops the solve (and is returned).
	OnCycle func(cycle int) error
	// Store, with CheckpointEvery > 0, takes a collective checkpoint every
	// CheckpointEvery cycles (mg.Solver.CheckpointTo).
	Store           *ckptio.Store
	CheckpointEvery int
	// Resume agrees on the newest checkpoint every rank can restore from
	// Store (a damaged stripe drops a checkpoint out on just the ranks
	// whose view touches it), protects it from retention and resumes the
	// solve from it.  With no common checkpoint the solve starts fresh.
	Resume bool
}

// mgSetup builds the solver and the paper's separable forcing on comm cc:
// the paper's data grid varies the coordinates uniformly across the grid
// in each dimension.  Only MultigridRank calls it, so a service job's,
// a recovered solve's and a figure's residual histories are bitwise
// comparable at the same problem and size.
func mgSetup(cc *mpi.Comm, p MultigridParams, mode petsc.ScatterMode) (*mg.Solver, *petsc.Vec, *petsc.Vec) {
	s := mg.NewAgglomerated(cc, []int{p.Extent, p.Extent, p.Extent}, p.Levels, mode, p.AgglomerateCells)
	s.Richardson = p.Richardson
	b := s.CreateVec()
	da := s.DA(0)
	own := da.OwnedBox()
	ba := b.Array()
	idx := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				x := (float64(i) + 0.5) / float64(p.Extent)
				y := (float64(j) + 0.5) / float64(p.Extent)
				z := (float64(k) + 0.5) / float64(p.Extent)
				ba[idx] = x * y * z
				idx++
			}
		}
	}
	return s, b, s.CreateVec()
}

// MultigridRank is the per-rank body of the Fig17 application: the 3-D
// Laplacian on an Extent^3 grid with separable forcing, solved by
// multigrid.  It is the one place a multigrid solve is built, restored and
// run: the figures, the service, the self-healing recovery loop and
// the daemons all call it.  Collective over c; comm failures surface as the
// mpi layer's panics (wrap the caller in mpi.Guard), and on the way out
// they revoke every communicator the solver holds, so peers still parked
// in a collective on them fail over too.
func MultigridRank(c *mpi.Comm, p MultigridParams, mode petsc.ScatterMode, opts MultigridRankOptions) (MultigridResult, error) {
	var s *mg.Solver
	defer func() {
		if e := recover(); e != nil {
			// Guard re-raises what is not a comm failure: an injected
			// crash's rank is dead and revokes nothing.
			_ = mpi.Guard(func() error { panic(e) })
			if s != nil {
				s.RevokeComms()
			} else {
				c.Revoke()
			}
			panic(e)
		}
	}()
	s, b, x := mgSetup(c, p, mode)
	var hookErr error
	if opts.OnCycle != nil {
		s.OnCycle = func(cycle int) error {
			if err := opts.OnCycle(cycle); err != nil {
				hookErr = err
				return err
			}
			return nil
		}
	}

	base := 0
	if opts.Store != nil {
		s.CheckpointTo(opts.Store, opts.CheckpointEvery)
		if opts.Resume {
			base = agreeRestoreBase(c, opts.Store, p.MaxCycles)
		}
	}

	c.Barrier()
	t0 := c.Clock()
	wall0 := time.Now()
	var cycles int
	var relres float64
	if base > 0 {
		var err error
		if cycles, relres, err = s.SolveFrom(b, x, p.Rtol, p.MaxCycles-base, base); err != nil {
			return MultigridResult{}, fmt.Errorf("bench: agreed restore iteration %d: %w", base, err)
		}
	} else {
		cycles, relres = s.Solve(b, x, p.Rtol, p.MaxCycles)
	}
	res := MultigridResult{Cycles: cycles, RelRes: relres,
		History: append([]float64(nil), s.History...), Restored: base}
	if hookErr != nil {
		// The hook aborted the solve (cancellation, drain).  Peer ranks may
		// have stopped at a different cycle, so no further collectives: hand
		// back the partial result without the elapsed-time reduction.
		res.Seconds = time.Since(wall0).Seconds()
		return res, hookErr
	}
	elapsed := c.AllreduceScalar(c.Clock()-t0, mpi.OpMax)
	if c.World().Wallclock() {
		elapsed = time.Since(wall0).Seconds()
	}
	res.Seconds = elapsed
	return res, nil
}

// agreeRestoreBase agrees on the newest checkpoint cycle every rank of c
// can restore from st, or 0 (start fresh) when there is none: one
// Allreduce(max) over a "lack" vector — entry i is 1 when this rank cannot
// produce cycle i — whose highest all-zero entry wins.  Cycles never
// exceed maxCycles, so the vector covers them all.  MultigridRank's
// resume, and so every recovery path, picks its restore point here.
func agreeRestoreBase(c *mpi.Comm, st *ckptio.Store, maxCycles int) int {
	lack := make([]float64, maxCycles+1)
	for i := 1; i < len(lack); i++ {
		lack[i] = 1
	}
	for _, it := range st.Iterations() {
		if it > 0 && it < len(lack) {
			lack[it] = 0
		}
	}
	c.Allreduce(lack, mpi.OpMax)
	for i := len(lack) - 1; i > 0; i-- {
		if lack[i] == 0 {
			return i
		}
	}
	return 0
}

// Fig17 regenerates Figure 17: 3-D Laplacian multigrid execution time (and
// percentage improvement over the baseline) vs. process count, on the
// paper's hierarchy and iteration: every level on every rank and bare
// V-cycles, whatever p.AgglomerateCells and p.Richardson say.
func Fig17(procs []int, p MultigridParams) *Experiment {
	p.AgglomerateCells, p.Richardson = 1, true
	e := &Experiment{
		ID:     "fig17",
		Title:  fmt.Sprintf("3-D Laplacian multigrid solver (%d^3 grid, %d levels)", p.Extent, p.Levels),
		XLabel: "procs",
		Unit:   "s",
		Series: []string{
			"MVAPICH2-0.9.5", "MVAPICH2-New", "hand-tuned",
			"improvement(New)", "improvement(hand)",
		},
		Expect: "baseline stops scaling past 32 procs; optimized keeps scaling, ~90% improvement at 128; hand-tuned ahead ~10% at 4 procs shrinking to <3% at 128",
	}
	var cycles int
	for _, n := range procs {
		vals := map[string]float64{}
		for _, arm := range core.Arms() {
			r := RunMultigrid(n, p, arm)
			vals[arm.Name] = r.Seconds
			cycles = r.Cycles
		}
		base := vals["MVAPICH2-0.9.5"]
		vals["improvement(New)"] = Improvement(base, vals["MVAPICH2-New"])
		vals["improvement(hand)"] = Improvement(base, vals["hand-tuned"])
		e.Add(fmt.Sprintf("%d", n), vals)
	}
	e.Notes = append(e.Notes, fmt.Sprintf("all arms run the identical numerical path (%d V-cycles to rtol %.0e)", cycles, p.Rtol))
	return e
}
