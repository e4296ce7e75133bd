// Package mg implements the paper's application workload: a geometric
// multigrid solver for the Laplacian on a DMDA-distributed structured grid
// (Section 5.5 uses a 100³ grid with three levels).  Every smoothing sweep
// and residual evaluation performs a star-stencil ghost exchange, and every
// level transfer performs an inter-level patch scatter, so the solver's
// communication profile is exactly the nonuniform, noncontiguous pattern the
// paper studies — and its scaling depends directly on which scatter backend
// and MPI configuration the experiment selects.
package mg

import (
	"fmt"
	"math"
	"strconv"

	"nccd/internal/ckptio"
	"nccd/internal/dmda"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

const flopSec = 0.6e-9

// level holds one grid of the hierarchy; levels[0] is the finest.
type level struct {
	da   *dmda.DA
	h    [3]float64        // grid spacing per dimension
	inv  [3]float64        // 1/h² per dimension of the grid, 0 beyond it
	coef [3][3][3]faceCoef // by domain faces along x, y and z (faceCoefs)
	w    [3][3][3]float64  // ω/diag of every face class (diagWeights)

	b, x, r *petsc.Vec
	p, ap   *petsc.Vec  // the coarsest level's conjugate-gradient scratch under Richardson (made at its first solve)
	exact   *exactSolve // the coarsest level's exact solve under conjugate gradients (made at its first solve)
	lwork   []float64   // ghosted local array the ghost cells are received into; nil where the ghost box is the owned box
	zeroRow []float64   // one owned x-row of zeros: the neighbour row beyond a domain face

	// Transfers to/from the next coarser level (nil on the coarsest).
	restrictSc  *petsc.Scatter // fine global -> fine patch (children of my coarse cells)
	restrictBox dmda.Box
	finePatch   []float64      // the restrictBox cells other ranks own are received into it, in the box's frame; nil where the box is the owned box
	interpSc    *petsc.Scatter // coarse global -> coarse patch (interp stencil sources)
	interpBox   dmda.Box
	coarsePatch []float64
	transfer    *transferTables // what both kernels read of the two boxes and interpWeights

	wave wave // the half V-cycle that runs next on this level, or last ran
}

// The cycle's shape.  The constants are typed so that coarseRtol*coarseRtol
// is the float64 product of the rounded tolerance: an untyped product would
// be evaluated exactly and rounded once, which can move tol2 by an ulp, and
// with it the Richardson coarse solve's stopping iteration and every residual
// history.
const (
	// nu1 and nu2 are the pre- and post-smoothing sweep counts.
	nu1, nu2 int = 2, 2
	// coarseIts caps the conjugate-gradient iterations of the coarsest-
	// level solve under Richardson, which the paper's rows model; under
	// conjugate gradients the coarsest level is solved exactly (coarseExact).
	coarseIts int = 400
	// coarseRtol is the Richardson coarse solve's relative tolerance.
	coarseRtol float64 = 1e-10
	// omega is the Jacobi damping factor.
	omega float64 = 2.0 / 3.0
	// coarseOneRankCells is the largest coarsest level the default hierarchy
	// solves on rank 0 alone (16³): its solve then sends no message, and the
	// level costs one restriction's gather and one interpolation's scatter a
	// cycle, where a level that spans ranks adds a gather of its right-hand
	// side to the exact solve and a halo exchange and an allreduce to every
	// step of the Richardson coarse conjugate gradients.
	coarseOneRankCells int = 4096
)

// Solver is a geometric multigrid V-cycle solver for the cell-centered
// Laplacian with homogeneous Dirichlet boundaries on the unit domain.
type Solver struct {
	c      *mpi.Comm
	dim    int
	levels []*level

	// Richardson makes Solve and SolveFrom iterate bare V-cycles, each from
	// the residual the one before it left, as the paper's rows do.  Unset,
	// they run conjugate gradients preconditioned by one V-cycle from a zero
	// guess (DESIGN §19 "Krylov outer iteration"), whose V-cycle solves the
	// coarsest level exactly (coarseExact).  The Richardson iteration keeps
	// the coarse conjugate gradients and PETSc's one-double reductions
	// (dot), because the paper's rows model them, so its History depends on
	// the rank count wherever the coarsest level spans ranks.
	Richardson bool

	// History records the relative residual ‖r_k‖₂/‖r_0‖₂ after each
	// iteration of the most recent Solve (PETSc's unpreconditioned norm).
	// For a given problem it is transport- and arm-independent, which makes
	// it the equivalence witness between in-process and multi-process runs.
	// Under conjugate gradients it is rank-count independent too, for every
	// hierarchy: every inner product is an order-free Sum (dot), the coarsest
	// level is solved on the same gathered bits by every rank that holds it,
	// and x is the same bits at every rank count.
	History []float64

	// OnCycle, when non-nil, runs before each iteration with the iteration
	// number about to execute (1-based, continuing from SolveFrom's base).
	// A non-nil error stops the solve immediately with the iterations
	// completed so far.  The hook is where a scheduler paces a tenant job —
	// blocking here shifts timing only, never the arithmetic, so residual
	// histories stay bitwise identical under any pacing — and where
	// cooperative cancellation lands between iterations.  It must not write
	// b, x, or the iteration's r and p: the next iteration starts from what
	// the last one left in them.
	OnCycle func(cycle int) error

	// store is the checkpoint store CheckpointTo bound, nil for none, and
	// every its period in iterations.
	store *ckptio.Store
	every int

	// The conjugate gradients' state beyond x: r is res, z and p live in
	// level 0's x and b, which the V-cycle never uses, and A·p in z's
	// storage.  sum takes the inner products, those fused into level-0
	// passes and dot's, and sumBuf is its Allreduce vector.
	res    *petsc.Vec
	sum    Sum
	sumBuf []float64

	// coarseComm is the communicator of the coarsest solve, its gather or its
	// inner products: c, or the ranks that hold coarse cells where NewAgglomerated
	// shrinks the coarsest level and the communication configuration lets
	// the others sit the solve out.  It is nil on those, which skip the
	// solve and wait at the next transfer.
	coarseComm *mpi.Comm

	// crew is the row bands' workers, made at the first wave that borrows a
	// helper, and inSolve whether the solver is inside Solve or SolveFrom.
	crew    *crew
	inSolve bool
}

// New builds a multigrid hierarchy over the grid of extents n (1-3 dims)
// with nlevels levels, coarsening by 2 per dimension.  Every extent must be
// divisible by 2^(nlevels-1).  mode selects the communication backend for
// all ghost exchanges and level transfers.  Every level is distributed over
// all ranks except a coarsest level of at most 16³ cells, which rank 0
// solves alone (LevelRanks).  Collective.
func New(c *mpi.Comm, n []int, nlevels int, mode petsc.ScatterMode) *Solver {
	return NewAgglomerated(c, n, nlevels, mode, 0)
}

// LevelRanks returns how many of ranks ranks a level of cells cells is
// decomposed over; coarsest says whether it is the hierarchy's last level.
// A positive minCellsPerRank gives every level at most cells/minCellsPerRank
// ranks (at least one), so 1 keeps every level on every rank wherever its
// grid has room.  minCellsPerRank 0 is the default: every rank on every
// level, except a coarsest level of at most coarseOneRankCells cells, which
// gets one.
func LevelRanks(ranks, cells int, coarsest bool, minCellsPerRank int) int {
	switch {
	case minCellsPerRank > 0:
		return min(ranks, max(1, cells/minCellsPerRank))
	case coarsest && cells <= coarseOneRankCells:
		return 1
	}
	return ranks
}

// NewAgglomerated is New with coarse-level agglomeration: every level is
// decomposed over LevelRanks ranks, so coarse grids whose subdomains would
// shrink below minCellsPerRank concentrate on fewer ranks and stop paying
// neighbor-exchange latency for a handful of cells.  minCellsPerRank 0 is
// New's hierarchy, 1 the fully distributed one.
func NewAgglomerated(c *mpi.Comm, n []int, nlevels int, mode petsc.ScatterMode, minCellsPerRank int) *Solver {
	if nlevels < 1 {
		panic("mg: need at least one level")
	}
	dim := len(n)
	factor := 1 << uint(nlevels-1)
	for _, e := range n {
		if e%factor != 0 {
			panic(fmt.Sprintf("mg: grid extent %d not divisible by 2^(levels-1)=%d", e, factor))
		}
	}
	s := &Solver{c: c, dim: dim, coarseComm: c}

	ext := append([]int(nil), n...)
	for l := 0; l < nlevels; l++ {
		cells := 1
		for _, e := range ext {
			cells *= e
		}
		limit := LevelRanks(c.Size(), cells, l == nlevels-1, minCellsPerRank)
		da := dmda.NewLimited(c, ext, 1, dmda.StencilStar, 1, mode, limit)
		lv := &level{da: da, wave: wave{stages: make([]stage, 0, 8)}}
		if da.GhostBox() != da.OwnedBox() {
			lv.lwork = da.CreateLocalArray()
		}
		lv.zeroRow = make([]float64, da.OwnedBox().Hi[0]-da.OwnedBox().Lo[0])
		for d := 0; d < 3; d++ {
			lv.h[d] = 1
		}
		for d := 0; d < dim; d++ {
			lv.h[d] = 1.0 / float64(ext[d])
			lv.inv[d] = 1 / (lv.h[d] * lv.h[d])
		}
		lv.coef = faceCoefs(dim, lv.inv)
		lv.w = diagWeights(&lv.coef)
		lv.b = da.CreateGlobalVec()
		lv.x = da.CreateGlobalVec()
		lv.r = da.CreateGlobalVec()
		s.levels = append(s.levels, lv)
		if l < nlevels-1 {
			for d := range ext {
				ext[d] /= 2
			}
		}
	}

	// Build inter-level transfers: each fine level's scatters reference the
	// next coarser DA.
	for l := 0; l+1 < nlevels; l++ {
		fine, coarse := s.levels[l], s.levels[l+1]

		// Restriction: coarse cell I gathers fine cells [2I-1, 2I+3) per
		// split dimension (the adjoint of the linear interpolation
		// stencil), so I need that halo around my coarse cells' children.
		cOwn := coarse.da.OwnedBox()
		var want dmda.Box
		for d := 0; d < 3; d++ {
			want.Lo[d], want.Hi[d] = cOwn.Lo[d], cOwn.Hi[d]
		}
		for d := 0; d < s.dim; d++ {
			want.Lo[d] = 2*cOwn.Lo[d] - 1
			want.Hi[d] = 2*cOwn.Hi[d] + 1
		}
		fine.restrictSc, fine.restrictBox = fine.da.NewPatchScatter(want)
		if fine.restrictBox != fine.da.OwnedBox() {
			fine.finePatch = make([]float64, fine.restrictBox.Cells())
		}

		// Interpolation: I need the coarse cells feeding my fine cells'
		// linear-interpolation stencil: [fLo/2 - 1, (fHi-1)/2 + 2).
		fOwn := fine.da.OwnedBox()
		for d := 0; d < 3; d++ {
			want.Lo[d], want.Hi[d] = fOwn.Lo[d], fOwn.Hi[d]
		}
		for d := 0; d < s.dim; d++ {
			want.Lo[d] = fOwn.Lo[d]/2 - 1
			want.Hi[d] = (fOwn.Hi[d]-1)/2 + 2
		}
		fine.interpSc, fine.interpBox = coarse.da.NewPatchScatter(want)
		fine.coarsePatch = make([]float64, fine.interpBox.Cells())
		fine.transfer = s.newTransferTables(fine, coarse)
	}

	// When the coarsest level is agglomerated, idle ranks can sit out the
	// coarse solve entirely — but only if no collective there requires
	// full participation: the binned Alltoallw and the hand-tuned path
	// contact planned peers only, while the baseline round-robin Alltoallw
	// synchronizes with every rank and therefore needs everyone present.
	coarsest := s.levels[nlevels-1]
	if act := coarsest.da.Active(); act < c.Size() {
		needsAll := mode == petsc.ScatterDatatype && c.World().Config().Alltoallw == mpi.ATRoundRobin
		if !needsAll {
			color := 0
			if c.Rank() >= act {
				color = -1
			}
			s.coarseComm = c.Split(color, 0)
		}
	}
	s.res = s.CreateVec()
	s.sumBuf = make([]float64, sumReduceLen)
	return s
}

// Levels returns the number of grid levels.
func (s *Solver) Levels() int { return len(s.levels) }

// DA returns the DMDA of level l (0 = finest).
func (s *Solver) DA(l int) *dmda.DA { return s.levels[l].da }

// CreateVec returns a zeroed vector with the finest grid's layout.
func (s *Solver) CreateVec() *petsc.Vec { return s.levels[0].da.CreateGlobalVec() }

// applyLevel computes y = A_l x on level l (ghost update + stencil).
func (s *Solver) applyLevel(l int, x, y *petsc.Vec) {
	lv := s.levels[l]
	lv.da.GhostUpdate(x, lv.lwork)
	s.stencil(lv, formApply, x.Array(), y.Array(), nil, ownedRows(lv.da.OwnedBox()))
	s.chargeStencil(lv)
}

// Apply computes y = A x on the finest grid.  The stencil reads x's owned
// cells in place while it writes y, so y must not be x: Apply(x, x) panics.
func (s *Solver) Apply(x, y *petsc.Vec) {
	if x == y {
		panic("mg: Apply(x, x): the stencil reads x in place, so the result needs a vector of its own")
	}
	s.applyLevel(0, x, y)
}

// span records a phase of the solve that began at start.  attrs builds the
// span's annotations and is called only with tracing on: the list and its
// formatted numbers are allocated, and with tracing off a V-cycle allocates
// nothing.
func (s *Solver) span(kind string, start float64, attrs func() []obs.Attr) {
	if s.c.Tracer().Enabled() {
		s.c.Span(kind, start, attrs()...)
	}
}

// intAttr is the annotation list of a span that carries one number, its level
// or its checkpoint iteration.
func intAttr(key string, v int) func() []obs.Attr {
	return func() []obs.Attr { return []obs.Attr{{Key: key, Val: strconv.Itoa(v)}} }
}

func relresAttr(relres float64) obs.Attr {
	return obs.Attr{Key: "relres", Val: strconv.FormatFloat(relres, 'g', 4, 64)}
}

// sweepStart is what the first sweep of a smoothing pass may take for granted.
type sweepStart uint8

const (
	fromNothing  sweepStart = iota // the sweep evaluates b − A x through the stencil
	fromResidual                   // the level's r holds b − A x for this x
	fromZero                       // x is zero, so b − A x is b
)

// sweep is the stage of a damped Jacobi update x + ω/diag·(b − A x) of level
// lv into y, made after a ghost update of x: from nothing through the stencil,
// from a known residual through update (which runs in place when y is lv.r),
// and from zero through update without reading x, which then need not be
// zero.  It charges the stencil pass and then one vector copy.
func sweep(lv *level, from sweepStart, b, x, y *petsc.Vec) stage {
	st := stage{op: opUpdate, src: x, dst: y, aux: lv.r, gated: true, then: [5]uint8{1}}
	switch from {
	case fromZero:
		st.aux, st.zero = b, true
	case fromNothing:
		st.op, st.form, st.aux = opStencil, formJacobi, b
	}
	return st
}

// addSmooth appends to lv's wave the stages of sweeps sweeps of damped Jacobi
// on level lv for A x = b, the first of them from what from says of x, inside
// one "smooth" span.  The ghost update before a sweep from a known residual is
// made and charged all the same, as the paper's smoother makes it.
func (s *Solver) addSmooth(lv *level, sweeps int, from sweepStart, b, x *petsc.Vec) {
	w := &lv.wave
	first := len(w.stages)
	w.sweeps = sweeps
	// Sweeps ping-pong between x and the residual storage, so only an odd
	// count ends with a copy back into x.  The virtual clock's cost model has
	// one vector copy per sweep, and is charged one whether or not a copy
	// happens.
	src, dst := x, lv.r
	for it := 0; it < sweeps; it++ {
		w.add(sweep(lv, from, b, src, dst))
		from = fromNothing
		src, dst = dst, src
	}
	if src != x {
		w.add(stage{op: opCopy, src: src, dst: x})
	}
	if len(w.stages) > first {
		w.stages[first].open |= spanSmooth
		w.stages[len(w.stages)-1].close |= spanSmooth
	}
}

// residualStage is the stage of r = b − A x on level lv in one stencil pass
// after a ghost update of x.  The virtual clock's cost model prices the
// subtraction as an AYPX pass of its own, which is charged after the
// stencil's.
func residualStage(b, x, r *petsc.Vec) stage {
	return stage{op: opStencil, form: formResidual, src: x, dst: r, aux: b, gated: true, then: [5]uint8{2}}
}

// residual computes r = b - A x on level l, a wavefront of the one stage.
func (s *Solver) residual(l int, b, x, r *petsc.Vec) {
	w := &s.levels[l].wave
	w.stages = append(w.stages[:0], residualStage(b, x, r))
	s.run(l)
}

// cycleEnd is what a V-cycle does once its post-smoothing is done.
type cycleEnd uint8

const (
	endNone     cycleEnd = iota
	endResidual          // the residual b − A x of its result into the level's r
	endDot               // ⟨b, x⟩ of its result added to s.sum, inside the last smoothing stage
)

// vcycle runs one V-cycle on level l for A_l x = b (x holds the initial
// guess and result); from is what the pre-smoothing may take for granted of
// it.  Every coarser level starts from zero.  end is what the cycle ends
// with, outside its "mg_level" span where it is a pass of its own.
func (s *Solver) vcycle(l int, from sweepStart, b, x *petsc.Vec, end cycleEnd) {
	lv := s.levels[l]
	lv.wave.open(spanLevel, s.c.Clock())
	if l == len(s.levels)-1 {
		s.coarseSolve(l, b, x)
		s.closeSpans(l, spanLevel)
		switch end {
		case endResidual:
			s.residual(l, b, x, lv.r)
		case endDot:
			s.sum.AddProducts(b.Array(), x.Array())
			s.c.Compute(float64(2*lv.da.OwnedCount()) * flopSec)
		}
		return
	}
	next := s.levels[l+1]
	s.pre(l, from, b, x)
	s.zeroGuess(l+1, next.x)
	s.vcycle(l+1, fromZero, next.b, next.x, endNone)
	s.post(l, b, x, end)
}

// zeroGuess makes x, a V-cycle's guess on level l, zero where the cycle reads
// it: on the coarsest level under Richardson only, whose conjugate gradients
// start from it.  A V-cycle's first sweep from zero reads no x (sweep), and
// the exact coarse solve overwrites x, so everywhere else x stays as it is,
// and the virtual clock is charged the Set all the same.
func (s *Solver) zeroGuess(l int, x *petsc.Vec) {
	if s.Richardson && l == len(s.levels)-1 {
		x.Set(0)
		return
	}
	s.c.Compute(float64(x.LocalSize()) * flopSec)
}

// pre runs the first half of a V-cycle on level l as one wavefront: the
// pre-smoothing, the residual into the level's r and its restriction into the
// next level's b.
func (s *Solver) pre(l int, from sweepStart, b, x *petsc.Vec) {
	lv, next := s.levels[l], s.levels[l+1]
	w := &lv.wave
	w.stages = w.stages[:0]
	s.addSmooth(lv, nu1, from, b, x)
	w.add(residualStage(b, x, lv.r))
	w.add(stage{op: opRestrict, src: lv.r, dst: next.b, gated: true, open: spanRestrict, close: spanRestrict})
	s.run(l)
}

// post runs the second half of a V-cycle on level l as one wavefront: the
// interpolation of the next level's x into x, the post-smoothing, which closes
// the level's "mg_level" span, and what end says: the residual into the
// level's r as a stage of its own, or ⟨b, x⟩ accumulated row by row in the
// last smoothing stage once it has written x's final rows.
func (s *Solver) post(l int, b, x *petsc.Vec, end cycleEnd) {
	lv, next := s.levels[l], s.levels[l+1]
	w := &lv.wave
	w.stages = w.stages[:0]
	w.add(stage{op: opInterp, src: next.x, dst: x, gated: true, open: spanProlong, close: spanProlong})
	s.addSmooth(lv, nu2, fromNothing, b, x)
	last := &w.stages[len(w.stages)-1]
	last.close |= spanLevel
	switch end {
	case endResidual:
		w.add(residualStage(b, x, lv.r))
	case endDot:
		last.dot = [2]*petsc.Vec{b, x}
		last.charge(2)
	}
	s.run(l)
}

// coarseSolve solves A_l x = b on the coarsest level, as PETSc's coarse-grid
// solver does, since a V-cycle's contraction depends on the coarsest problem
// being solved, not merely smoothed.  Under conjugate gradients the solve is
// exact (coarseExact) and overwrites x; under Richardson it is unpreconditioned
// conjugate gradients from the guess in x, whose inner products are PETSc's
// one-double reductions, as the paper's rows model them.  With agglomeration,
// ranks outside the coarse communicator skip the solve.
func (s *Solver) coarseSolve(l int, b, x *petsc.Vec) {
	c := s.coarseComm
	if c == nil {
		return // inactive rank: owns no coarse cells, rejoins at the transfer
	}
	defer s.span("coarse_solve", s.c.Clock(), intAttr("level", l))
	if !s.Richardson {
		s.coarseExact(l, b, x)
		return
	}
	lv := s.levels[l]
	r := lv.r
	s.residual(l, b, x, r)
	rr := s.dot(c, r, r)
	bnorm := s.dot(c, b, b)
	if bnorm == 0 {
		bnorm = 1
	}
	tol2 := coarseRtol * coarseRtol * bnorm
	if rr <= tol2 {
		return
	}
	if lv.p == nil {
		lv.p, lv.ap = b.Duplicate(), b.Duplicate()
	}
	p, ap := lv.p, lv.ap
	p.Copy(r)
	for it := 0; it < coarseIts; it++ {
		s.applyLevel(l, p, ap)
		pap := s.dot(c, p, ap)
		if pap <= 0 {
			return
		}
		alpha := rr / pap
		x.AXPY(alpha, p)
		r.AXPY(-alpha, ap)
		rrNew := s.dot(c, r, r)
		if rrNew <= tol2 {
			return
		}
		p.AYPX(rrNew/rr, r)
		rr = rrNew
	}
}

// CheckpointTo binds st to level 0's communicator and natural file view and
// has Solve and SolveFrom write a checkpoint to it every `every` iterations
// (0: none; st then only serves SolveFrom).  Each rank writes and reads
// only its owned values, in natural order, so a checkpoint restores onto any
// decomposition.  It holds x for the Richardson iteration, and x, r and p
// for conjugate gradients, whose ρ rides in the commit beside the residual
// and r0.  Set Richardson first; checkpoints of the other iteration drop out
// of st's Iterations.
func (s *Solver) CheckpointTo(st *ckptio.Store, every int) {
	da := s.levels[0].da
	vectors := 3 // state's x, r and p
	if s.Richardson {
		vectors = 1
	}
	st.Bind(da.Comm(), da.NaturalBytes(), da.NaturalSegments(), vectors)
	s.store, s.every = st, every
}

// state is this rank's owned values of the vectors a checkpoint holds, x
// first.
func (s *Solver) state(x *petsc.Vec) [][]float64 {
	if s.Richardson {
		return [][]float64{x.Array()}
	}
	return [][]float64{x.Array(), s.res.Array(), s.levels[0].b.Array()}
}

// Solve solves A x = b from the guess in x until the residual 2-norm falls
// below rtol times the initial residual norm, or maxCycles iterations have
// run: conjugate gradients preconditioned by one V-cycle, or bare V-cycles
// where Richardson is set.  It returns the iteration count and the final
// relative residual, NaN where b or x is not finite.  Collective.
func (s *Solver) Solve(b, x *petsc.Vec, rtol float64, maxCycles int) (cycles int, relres float64) {
	s.enter()
	defer s.leave()
	s.History = s.History[:0]
	r := s.res
	if s.Richardson {
		r = s.levels[0].r
	}
	s.residual(0, b, x, r)
	r0 := math.Sqrt(s.dot(s.c, r, r))
	if r0 == 0 {
		return 0, 0
	}
	// relres starts at 1, or NaN where r0 is not finite.
	return s.iterate(b, x, rtol, maxCycles, start{r0: r0, relres: r0 / r0, from: fromResidual})
}

// SolveFrom resumes an interrupted solve from its checkpoint at iteration
// base in the store CheckpointTo bound, which it pins against the store's
// retention.  Iteration numbering continues from base, and the checkpoint's
// r0, the original solve's initial residual norm, keeps relative residuals —
// and rtol — meaning what they meant before.  maxCycles is the remaining
// budget; the returned count excludes base, and maxCycles 0 only reads the
// checkpoint into x and returns its relative residual.  The read is purely
// local and charges no virtual time; the ranks agree on base beforehand.
//
// Under conjugate gradients SolveFrom resumes from the x, r, p and ρ of the
// checkpoint; each is in natural order and every inner product is
// order-free, so the resumed History is the fault-free run's from iteration
// base+1 on, bit for bit, at any world size.  The Richardson iteration
// resumes from x alone, and its History matches the fault-free run's only at
// the same world size.  Collective.
func (s *Solver) SolveFrom(b, x *petsc.Vec, rtol float64, maxCycles, base int) (cycles int, relres float64, err error) {
	s.enter()
	defer s.leave()
	s.History = s.History[:0]
	at := start{base: base, from: fromNothing}
	if at.relres, at.r0, at.rho, err = s.store.ReadOwned(base, s.state(x)...); err != nil {
		return 0, 0, err
	}
	s.store.Protect(base)
	s.span("restore", s.c.Clock(), intAttr("iteration", base))
	cycles, relres = s.iterate(b, x, rtol, maxCycles, at)
	return cycles, relres, nil
}

// start is where iterate begins: base iterations done, at relative residual
// relres of the initial residual norm r0.  rho is ⟨r, z⟩ of the conjugate
// gradients' iteration before, 0 where there is no p yet and p starts as z,
// and from what the Richardson iteration's first pre-smoothing may take for
// granted of x.
type start struct {
	base            int
	r0, relres, rho float64
	from            sweepStart
}

// iterate is the outer iteration of Solve and SolveFrom from at: residuals
// are measured against at.r0, iterations are numbered from at.base+1, and
// History holds one entry per executed iteration.  An iteration is one
// V-cycle from the residual the one before it ended with, which nothing
// between the two changes (OnCycle and the checkpoint only read x), or one
// step of conjugate gradients (pcgStep).  A step that cannot run (pcgStep)
// stops the iteration at the relative residual before it.
func (s *Solver) iterate(b, x *petsc.Vec, rtol float64, maxCycles int, at start) (cycles int, relres float64) {
	relres = at.relres
	defer s.span("mg_solve", s.c.Clock(), func() []obs.Attr {
		return []obs.Attr{{Key: "cycles", Val: strconv.Itoa(cycles)}, relresAttr(relres)}
	})
	for cycles = 0; cycles < maxCycles; cycles++ {
		it := at.base + cycles + 1
		if s.OnCycle != nil {
			if err := s.OnCycle(it); err != nil {
				return cycles, relres
			}
		}
		cycleStart := s.c.Clock()
		var rnorm float64
		if s.Richardson {
			s.vcycle(0, at.from, b, x, endResidual)
			at.from = fromResidual
			rnorm = math.Sqrt(s.dot(s.c, s.levels[0].r, s.levels[0].r))
		} else {
			var ok bool
			if rnorm, at.rho, ok = s.pcgStep(x, at.rho); !ok {
				break
			}
		}
		relres = rnorm / at.r0
		s.History = append(s.History, relres)
		s.span("mg_cycle", cycleStart, func() []obs.Attr {
			return []obs.Attr{{Key: "cycle", Val: strconv.Itoa(it)}, relresAttr(relres)}
		})
		if relres <= rtol {
			cycles++
			break
		}
		if s.store != nil && s.every > 0 && it%s.every == 0 {
			cpStart := s.c.Clock()
			// Best-effort: an error means an I/O fault somewhere aborted the
			// checkpoint, and a rank failure mid-write resurfaces in the
			// next iteration's collectives for the caller's recovery path.
			_ = s.store.PutOwned(it, relres, at.r0, at.rho, s.state(x)...)
			s.span("checkpoint", cpStart, intAttr("iteration", it))
		}
	}
	return cycles, relres
}

// dot is the solver's one inner product ⟨a, b⟩ over c, charged as Vec.Dot.
// Under Richardson it is PETSc's VecDot, one double a reduction, which the
// paper's rows model; otherwise the order-free sum, the same bits at every
// rank count, which no V-cycle is using then: under conjugate gradients dot
// takes only ‖r₀‖, before the first.  Collective over c.
func (s *Solver) dot(c *mpi.Comm, a, b *petsc.Vec) float64 {
	s.c.Compute(float64(2*a.LocalSize()) * flopSec)
	if s.Richardson {
		sum := 0.0
		ba := b.Array()
		for i, v := range a.Array() {
			sum += v * ba[i]
		}
		return c.AllreduceScalar(sum, mpi.OpSum)
	}
	s.sum.Reset()
	s.sum.AddProducts(a.Array(), b.Array())
	return s.sum.Allreduce(c, s.sumBuf)
}

// pcgStep is one iteration of conjugate gradients preconditioned by one
// V-cycle, in three trips through level 0 besides the V-cycle's own (DESIGN
// §19 "Krylov outer iteration"): z = M⁻¹r by one V-cycle from zero, with
// ⟨r, z⟩ in its last stage; p = z + βp, A·p and ⟨p, A·p⟩ in one wavefront
// (direction); and x += αp, r −= αA·p and ‖r‖² in one pass (step).  r starts
// as b − A x, so b is not read again.  rho is ⟨r, z⟩ of the iteration
// before, 0 where there is no p yet.  It returns ‖r‖ after the step and
// ⟨r, z⟩; ok is false, and x and r are as they were, where ⟨p, A·p⟩ is not
// positive: p is zero, as r and z were, or not finite.
func (s *Solver) pcgStep(x *petsc.Vec, rho float64) (rnorm, rz float64, ok bool) {
	z := s.levels[0].x
	s.zeroGuess(0, z)
	s.sum.Reset()
	s.vcycle(0, fromZero, s.res, z, endDot)
	rz = s.sum.Allreduce(s.c, s.sumBuf)
	s.sum.Reset()
	s.direction(rz, rho)
	pap := s.sum.Allreduce(s.c, s.sumBuf)
	if !(pap > 0) {
		return 0, 0, false
	}
	s.sum.Reset()
	s.step(x, rz/pap)
	return math.Sqrt(s.sum.Allreduce(s.c, s.sumBuf)), rz, true
}

// direction runs p = z + (rz/rho)·p, or p = z where rho is 0, and A·p into
// z's storage with ⟨p, A·p⟩ added to s.sum, as one wavefront on level 0: the
// operator's stage, gated by p's exchange, two planes behind the update, whose
// plane it reads the z of before the operator overwrites it.
func (s *Solver) direction(rz, rho float64) {
	lv := s.levels[0]
	p, z := lv.b, lv.x
	w := &lv.wave
	w.stages = w.stages[:0]
	if rho == 0 {
		w.add(stage{op: opCopy, src: z, dst: p, then: [5]uint8{1}})
	} else {
		w.add(stage{op: opAYPX, src: z, dst: p, scale: rz / rho, then: [5]uint8{2}})
	}
	w.add(stage{op: opStencil, form: formApply, src: p, dst: z, gated: true, dot: [2]*petsc.Vec{p, z}, then: [5]uint8{2}})
	s.run(0)
}

// step runs x += α·p and r −= α·A·p, A·p in z's storage, and adds ‖r‖² to
// s.sum in one pass over level 0, a chunk of the sum at a time, in blocks of
// whole chunks that the workers claim from either end where the solver
// borrows helpers (bands.go).  The virtual clock is charged the two AXPYs and
// the norm, as Vec charges them.
func (s *Solver) step(x *petsc.Vec, alpha float64) {
	n := x.LocalSize()
	if c := s.borrow(s.workers(0)); c != nil {
		c.step.set(0, (n+stepBlock-1)/stepBlock)
		c.run(task{kind: taskStep, x: x, alpha: alpha})
		c.release()
	} else {
		s.stepCells(x, alpha, 0, n, &s.sum)
	}
	for range 3 {
		s.c.Compute(float64(2*n) * flopSec)
	}
}

// stepCells runs the step on the cells [lo, hi), a whole number of sum chunks
// from the first cell, and adds ‖r‖² there to sum.
func (s *Solver) stepCells(x *petsc.Vec, alpha float64, lo, hi int, sum *Sum) {
	lv := s.levels[0]
	xa, ra, pa, apa := x.Array()[:hi], s.res.Array()[:hi], lv.b.Array()[:hi], lv.x.Array()[:hi]
	for ; lo < hi; lo += sumChunk {
		end := min(lo+sumChunk, hi)
		axpyCells(xa[lo:end], pa[lo:end], alpha)
		axpyCells(ra[lo:end], apa[lo:end], -alpha)
		sum.AddProducts(ra[lo:end], ra[lo:end])
	}
}

// axpyCells runs y += a·x as Vec.AXPY writes it, in lanes where useLanes is
// set.
func axpyCells(y, x []float64, a float64) {
	x = x[:len(y)]
	if useLanes {
		axpyLanes(y, x, a)
		return
	}
	axpyCellsGo(y, x, a)
}

// axpyCellsGo is axpyCells's Go loop.
func axpyCellsGo(y, x []float64, a float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += float64(a * x[i])
	}
}

// RevokeComms revokes the solver's communicators — the one it was built on
// and the agglomerated coarse sub-communicator, if any — so members still
// blocked in a broken collective abandon it with ErrRevoked and join the
// recovery.  The first rank to observe a failure calls this before
// mpi.Comm.Restore.
func (s *Solver) RevokeComms() {
	s.c.Revoke()
	if s.coarseComm != nil && s.coarseComm != s.c {
		s.coarseComm.Revoke()
	}
}
