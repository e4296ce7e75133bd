package mg

import (
	"strconv"

	"nccd/internal/dmda"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

// Each half of a V-cycle runs as one z-plane wavefront (DESIGN §18 "Plane
// wavefront").  Its passes are stages; at step t stage s works on plane
// t − 2s of the owned box, so a stage that reads one plane either side of
// its own finds the stage before it two planes ahead, every plane a step
// reads was finished in an earlier step and none is written in the same
// step, and a plane is overwritten only once every stage that reads it has
// moved past.  One worker runs a step's stage-planes in stage order; a crew
// (bands.go) takes the whole step as one task.  Every exchange, clock
// charge and span stays where the pass-by-pass cycle had it: the first
// stage's exchange before the wavefront, every later one after it, each
// followed by the rows its stage could not run inside the wavefront because
// they lie too close to a received ghost face, and then by the stage's
// charges.

// rows is a box of x-rows of a level: rows j0 to j1−1 of planes k0 to k1−1.
type rows struct{ j0, j1, k0, k1 int }

// ownedRows is every row of the owned box b.
func ownedRows(b dmda.Box) rows { return rows{b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2]} }

func (r rows) empty() bool { return r.j0 >= r.j1 || r.k0 >= r.k1 }

// outside is the rows of r that in, empty or inside r, leaves out: the planes
// below in's, the rows beside it on its planes, and the planes above.
func (r rows) outside(in rows) [4]rows {
	if in.empty() {
		return [4]rows{r}
	}
	return [4]rows{
		{r.j0, r.j1, r.k0, in.k0},
		{r.j0, in.j0, in.k0, in.k1},
		{in.j1, r.j1, in.k0, in.k1},
		{r.j0, r.j1, in.k1, r.k1},
	}
}

// stageOp is what a stage computes.
type stageOp uint8

const (
	opStencil  stageOp = iota // dst = form of src, aux the right-hand side: a sweep from nothing, or the residual
	opUpdate                  // dst = src + ω/diag·aux, aux the known residual: a sweep from a known state
	opCopy                    // dst = src: the copy that ends an odd count of Jacobi sweeps
	opAYPX                    // dst = scale·dst + src: the conjugate gradients' new direction
	opCheb                    // one Chebyshev step's elementwise passes over z = dst, the direction aux and x = src
	opInterp                  // dst += the interpolant of the coarse correction src
	opRestrict                // dst (level l+1) = the restriction of src
)

// spanSet is a set of the spans a half V-cycle opens and closes, in the order
// of spanKinds.
type spanSet uint8

const (
	spanSmooth spanSet = 1 << iota
	spanRestrict
	spanProlong
	spanLevel
)

var spanKinds = [...]string{"smooth", "restrict", "prolong", "mg_level"}

// stagePlane is one stage's rows of one step of a wavefront: a plane of its
// level, or for the restriction the coarse planes the step completes.
type stagePlane struct {
	e *stage
	r rows
}

// stage is one pass of a wavefront.
type stage struct {
	op            stageOp
	form          stencilForm // opStencil's
	src, dst, aux *petsc.Vec
	omega         float64 // opStencil's and opUpdate's
	scale, dz     float64 // opAYPX's and opCheb's scale of dst or d and, on a Chebyshev step after the first, weight of z in d
	first         bool    // opCheb: the first step, whose d is a copy of z
	zero          bool    // opUpdate: src is the zero guess, which is not read
	// gated is whether an exchange of src precedes the stage: a ghost update
	// before a sweep or residual, the patch scatter before a transfer.
	gated bool
	// dot, where set, is a pair whose products the stage adds to the solver's
	// Sum on every row it has written.
	dot [2]*petsc.Vec
	// then lists the whole-vector passes the virtual clock charges after the
	// stage's own work, each as flops per owned cell; 0 ends the list.
	then        [5]uint8
	open, close spanSet
	in          rows // the rows the stage runs inside the wavefront (run)
}

// wave is a level's half V-cycle: its stages, the clocks its spans opened at
// and the sweep count its smoothing span reports.
type wave struct {
	stages []stage
	start  [len(spanKinds)]float64
	sweeps int
}

func (w *wave) add(st stage) { w.stages = append(w.stages, st) }

// charge appends to st.then a whole-vector pass of m flops per owned cell.
func (st *stage) charge(m uint8) {
	i := 0
	for st.then[i] != 0 {
		i++
	}
	st.then[i] = m
}

// open starts the spans of set at clock.
func (w *wave) open(set spanSet, clock float64) {
	for b := range spanKinds {
		if set&(1<<b) != 0 {
			w.start[b] = clock
		}
	}
}

// inner is the rows of lv at least depth rows away from every face across
// which it receives ghost cells: all of them at depth 0, and none at any
// other depth where a ghost face lies along x, which every row reaches.
func (lv *level) inner(depth int) rows {
	own, ghost := lv.da.OwnedBox(), lv.da.GhostBox()
	in := ownedRows(own)
	if depth == 0 {
		return in
	}
	if ghost.Lo[0] < own.Lo[0] || ghost.Hi[0] > own.Hi[0] {
		return rows{}
	}
	if ghost.Lo[1] < own.Lo[1] {
		in.j0 += depth
	}
	if ghost.Hi[1] > own.Hi[1] {
		in.j1 -= depth
	}
	if ghost.Lo[2] < own.Lo[2] {
		in.k0 += depth
	}
	if ghost.Hi[2] > own.Hi[2] {
		in.k1 -= depth
	}
	if in.empty() {
		return rows{}
	}
	return in
}

// restrictInner is the coarse rows the restriction from level l can gather
// inside the wavefront: those whose fine rows all lie in res, the rows the
// residual writes there.  The residual is never a wavefront's first stage, so
// res is empty wherever the fine level receives ghost cells along x, and
// every fine column of a row in it is this rank's.
func (s *Solver) restrictInner(l int, res rows) rows {
	if res.empty() {
		return rows{}
	}
	var in rows
	in.j0, in.j1 = s.coarseWithin(l, 1, res.j0, res.j1)
	in.k0, in.k1 = s.coarseWithin(l, 2, res.k0, res.k1)
	if in.empty() {
		return rows{}
	}
	return in
}

// coarseWithin is the range of the coarse indices along d that level l+1 owns
// here whose fine indices all lie in [lo, hi).
func (s *Solver) coarseWithin(l, d, lo, hi int) (int, int) {
	cOwn := s.levels[l+1].da.OwnedBox()
	a, b := cOwn.Hi[d], cOwn.Hi[d]
	for c := cOwn.Lo[d]; c < cOwn.Hi[d]; c++ {
		if f0, f1 := s.fineSpan(l, d, c); f0 >= lo && f1 < hi {
			if a == cOwn.Hi[d] {
				a = c
			}
			b = c + 1
		}
	}
	return a, b
}

// fineSpan is the lowest and highest index along d of the fine cells of level
// l that coarse index c gathers from.
func (s *Solver) fineSpan(l, d, c int) (int, int) {
	if d >= s.dim {
		return c, c
	}
	return max(2*c-1, 0), min(2*c+2, s.levels[l].da.GlobalSize(d)-1)
}

// run runs the stages of level l's wave.  A stage's depth is how far from a
// received ghost face a row must lie for the stage to run it inside the
// wavefront: 0 up to the first stage gated by an exchange after the
// wavefront, and one more for every stage from there on.  One more is what a
// stencil that reads what the stage before it wrote needs, and also keeps a
// stage from overwriting, inside the wavefront, rows that a stage before it
// reads outside it, or that an exchange after it still sends.  The
// restriction runs the coarse rows whose fine rows the residual before it ran
// inside the wavefront, each coarse plane once its last fine plane has its
// residual.  The stages run two planes apart: a stage-plane reads its own
// plane and the two beside it and writes its own, so no stage-plane of a
// step reads or writes a plane another one writes, and those of one step
// may run at once.  Where the solver borrows helpers each step goes to the
// crew as one task, each worker running its band of every one of the step's
// stage-planes (bands.go).  The restriction's coarse plane c waits for fine
// plane p+1 ≥ fineTop(c), which the residual two planes ahead finished in an
// earlier step.
func (s *Solver) run(l int) {
	lv := s.levels[l]
	st := lv.wave.stages
	own := ownedRows(lv.da.OwnedBox())
	depth := 0
	for i := range st {
		if i > 0 && (depth > 0 || st[i].gated) {
			depth++
		}
		st[i].in = lv.inner(depth)
		if st[i].op == opRestrict {
			st[i].in = s.restrictInner(l, st[i-1].in)
		}
	}

	s.exchange(l, &st[0])
	next := 0 // the restriction's next coarse plane
	if last := &st[len(st)-1]; last.op == opRestrict {
		next = last.in.k0
	}
	c := s.borrow(s.workers(l))
	for t := 0; t < own.k1-own.k0+2*len(st); t++ {
		for i := range st {
			e := &st[i]
			p := own.k0 + t - 2*i
			r := rows{e.in.j0, e.in.j1, p, p + 1}
			if e.op == opRestrict {
				r.k0 = next
				for next < e.in.k1 && s.fineTop(l, next) <= p+1 {
					next++
				}
				r.k1 = next
			}
			if r.k0 >= r.k1 || r.k0 < e.in.k0 || r.k1 > e.in.k1 {
				continue
			}
			if c == nil {
				s.apply(l, e, r, &s.sum)
			} else {
				c.plan = append(c.plan, stagePlane{e, r})
			}
		}
		if c != nil && len(c.plan) > 0 {
			c.run(task{kind: taskWave, l: l, planes: c.plan})
			c.plan = c.plan[:0]
		}
	}
	if c != nil {
		c.release()
	}

	for i := range st {
		e := &st[i]
		if i > 0 {
			s.exchange(l, e)
		}
		all := own
		if e.op == opRestrict {
			all = ownedRows(s.levels[l+1].da.OwnedBox())
		}
		for _, r := range all.outside(e.in) {
			if !r.empty() {
				s.apply(l, e, r, &s.sum)
			}
		}
		s.charge(l, e)
		s.closeSpans(l, e.close)
	}
}

// fineTop is the highest fine plane of level l that coarse plane c gathers
// from.
func (s *Solver) fineTop(l, c int) int {
	_, top := s.fineSpan(l, 2, c)
	return top
}

// exchange opens the stage's spans and, where it is gated, makes its
// exchange.
func (s *Solver) exchange(l int, e *stage) {
	lv := s.levels[l]
	if e.open != 0 {
		lv.wave.open(e.open, s.c.Clock())
	}
	if !e.gated {
		return
	}
	switch e.op {
	case opInterp:
		lv.interpSc.DoArrays(e.src.Array(), lv.coarsePatch)
	case opRestrict:
		s.restrictScatter(l, e.src)
	default:
		lv.da.GhostUpdate(e.src, lv.lwork)
	}
}

// apply runs stage e on the rows r of its level (the coarse level's for the
// restriction), and then adds the products of its dot pair on those rows to
// sum.
func (s *Solver) apply(l int, e *stage, r rows, sum *Sum) {
	lv := s.levels[l]
	own := lv.da.OwnedBox()
	n := (r.j1 - r.j0) * (own.Hi[0] - own.Lo[0]) // the cells of r on one plane, contiguous in the owned layout
	switch e.op {
	case opStencil:
		var b []float64
		if e.aux != nil {
			b = e.aux.Array()
		}
		s.stencil(lv, e.form, e.src.Array(), e.dst.Array(), b, e.omega, r)
	case opUpdate:
		var x []float64 // nil: the zero guess
		if !e.zero {
			x = e.src.Array()
		}
		s.update(lv, x, e.aux.Array(), e.dst.Array(), e.omega, r)
	case opInterp:
		s.interpolateAdd(l, e.dst, r)
	case opRestrict:
		s.restrictTo(l, e.src, e.dst, r)
	default:
		for k := r.k0; k < r.k1; k++ {
			lo := rowIndex(own, r.j0, k)
			src, dst := e.src.Array()[lo:lo+n], e.dst.Array()[lo:lo+n]
			switch e.op {
			case opCopy:
				copy(dst, src)
			case opAYPX:
				aypxCells(dst, src, e.scale)
			default:
				chebCells(e.first, dst, e.aux.Array()[lo:lo+n], src, e.scale, e.dz)
			}
		}
	}
	if a, b := e.dot[0], e.dot[1]; a != nil {
		for k := r.k0; k < r.k1; k++ {
			lo := rowIndex(own, r.j0, k)
			sum.AddProducts(a.Array()[lo:lo+n], b.Array()[lo:lo+n])
		}
	}
}

// aypxCells runs y = a·y + x as Vec.AYPX writes it.
func aypxCells(y, x []float64, a float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] = float64(a*y[i]) + x[i]
	}
}

// chebCells runs one Chebyshev step's elementwise passes on the cells of z,
// d and x: z.AXPY(-1, x), then d.Copy(z) and d.Scale(scale) on the first step
// or d.Scale(scale) and d.AXPY(dz, z) on a later one, and x.AXPY(1, d).  Each
// is written as the petsc.Vec method writes it, so that a compiler that fuses
// multiply-add fuses the same adds.
func chebCells(first bool, z, d, x []float64, scale, dz float64) {
	d, x = d[:len(z)], x[:len(z)]
	if first {
		for i := range z {
			z[i] += -1 * x[i]
			d[i] = z[i]
			d[i] *= scale
			x[i] += 1 * d[i]
		}
		return
	}
	for i := range z {
		z[i] += -1 * x[i]
		d[i] *= scale
		d[i] += dz * z[i]
		x[i] += 1 * d[i]
	}
}

// charge charges the virtual clock what the pass-by-pass cycle charged for
// stage e: a stencil pass for a sweep or residual, the transfer's arithmetic,
// then the whole-vector passes of e.then.
func (s *Solver) charge(l int, e *stage) {
	lv := s.levels[l]
	switch e.op {
	case opStencil, opUpdate:
		s.chargeStencil(lv)
	case opInterp:
		s.chargeInterp(l)
	case opRestrict:
		s.chargeRestrict(l)
	}
	n := lv.da.OwnedCount()
	for _, m := range e.then {
		if m == 0 {
			break
		}
		s.c.Compute(float64(int(m)*n) * flopSec)
	}
}

// closeSpans records the spans of set, each from the clock it opened at.
func (s *Solver) closeSpans(l int, set spanSet) {
	w := &s.levels[l].wave
	for b, kind := range spanKinds {
		switch {
		case set&(1<<b) == 0:
		case spanSet(1<<b) == spanSmooth:
			s.span(kind, w.start[b], func() []obs.Attr {
				return []obs.Attr{{Key: "level", Val: strconv.Itoa(l)},
					{Key: "sweeps", Val: strconv.Itoa(w.sweeps)},
					{Key: "smoother", Val: s.Smoother.String()}}
			})
		default:
			s.span(kind, w.start[b], intAttr("level", l))
		}
	}
}
