package mg

import (
	"strconv"
	"sync/atomic"

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
// moved past.  Where the solve borrows helpers (bands.go), the owned box is
// cut into slabs, one per worker, and each worker runs the wavefront over
// its slab alone.  Every exchange, clock charge and span stays where the
// pass-by-pass cycle had it: the first stage's exchange before the
// wavefront, every later one after it, each followed by the rows its stage
// could not run inside the wavefront because they lie too close to a
// received ghost face or to another worker's slab, and then by the stage's
// charges.

// rows is a box of x-rows of a level: rows j0 to j1−1 of planes k0 to k1−1.
type rows struct{ j0, j1, k0, k1 int }

// ownedRows is every row of the owned box b.
func ownedRows(b dmda.Box) rows { return rows{b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2]} }

// along is r's bounds along d, 1 (y) or 2 (z).
func (r *rows) along(d int) (lo, hi *int) {
	if d == 1 {
		return &r.j0, &r.j1
	}
	return &r.k0, &r.k1
}

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

// slab is one worker's share of a wave.  A pair of slabs shares a region of
// the level's planes (of its rows, where the level has one plane): the
// lower slab sweeps it upwards and the upper one downwards, each claiming
// the next plane from the region's meet word as it goes, and they meet
// wherever the two have got to.  own is the region until then and the
// slab's own rows after; in is the rows of own each stage runs inside the
// wavefront; coarse is the coarse rows the slab stands for once the wave
// is over, where the wave ends with the restriction.
type slab struct {
	own, coarse rows
	in          []rows
	down        bool
	meet        *meet
}

// meet is a region's planes that neither of its slabs has claimed yet: the
// lowest in the low 32 bits, and one past the highest in the high ones.  It
// has a cache line of its own.
type meet struct {
	atomic.Uint64
	_ [56]byte
}

// claim takes the next plane for the slab that sweeps down, or up: the
// region's highest unclaimed plane, or its lowest.  It fails once the two
// slabs have met.
func (m *meet) claim(down bool) bool {
	_, ok := m.next(down)
	return ok
}

// next is claim, and returns the plane it took.
func (m *meet) next(down bool) (int, bool) {
	for {
		v := m.Load()
		lo, hi := int(uint32(v)), int(v>>32)
		if lo >= hi {
			return 0, false
		}
		p := lo
		if down {
			hi--
			p = hi
		} else {
			lo++
		}
		if m.CompareAndSwap(v, uint64(hi)<<32|uint64(uint32(lo))) {
			return p, true
		}
	}
}

// set makes [lo, hi) the unclaimed planes.
func (m *meet) set(lo, hi int) { m.Store(uint64(hi)<<32 | uint64(uint32(lo))) }

// stage is one pass of a wavefront.
type stage struct {
	op            stageOp
	form          stencilForm // opStencil's
	src, dst, aux *petsc.Vec
	scale         float64 // opAYPX's scale of dst
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
}

// wave is a level's half V-cycle: its stages, the clocks its spans opened at,
// the sweep count its smoothing span reports, and the axis its slabs cut,
// the slabs and their regions' meet words, kept so that a wave allocates
// none.
type wave struct {
	stages []stage
	start  [len(spanKinds)]float64
	sweeps int
	axis   int
	slabs  []slab
	meets  []meet
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

// inner is the rows of slab sl of lv's owned box that stage i of a wave runs
// inside the wavefront: those at least depth rows away from every face
// across which lv receives ghost cells (none at a nonzero depth where a
// ghost face lies along x, which every row reaches), and at least i rows
// away from every face sl shares with another slab.
func (lv *level) inner(sl rows, depth, i int) rows {
	own, ghost := lv.da.OwnedBox(), lv.da.GhostBox()
	in := sl
	if depth > 0 {
		if ghost.Lo[0] < own.Lo[0] || ghost.Hi[0] > own.Hi[0] {
			return rows{}
		}
		if ghost.Lo[1] < own.Lo[1] {
			in.j0 = max(in.j0, own.Lo[1]+depth)
		}
		if ghost.Hi[1] > own.Hi[1] {
			in.j1 = min(in.j1, own.Hi[1]-depth)
		}
		if ghost.Lo[2] < own.Lo[2] {
			in.k0 = max(in.k0, own.Lo[2]+depth)
		}
		if ghost.Hi[2] > own.Hi[2] {
			in.k1 = min(in.k1, own.Hi[2]-depth)
		}
	}
	if sl.j0 > own.Lo[1] {
		in.j0 = max(in.j0, sl.j0+i)
	}
	if sl.j1 < own.Hi[1] {
		in.j1 = min(in.j1, sl.j1-i)
	}
	if sl.k0 > own.Lo[2] {
		in.k0 = max(in.k0, sl.k0+i)
	}
	if sl.k1 < own.Hi[2] {
		in.k1 = min(in.k1, sl.k1-i)
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
// reads outside it, or that an exchange after it still sends.  Where the
// solver borrows helpers, the level is cut into slabs (cut), one per worker,
// and the workers run the wavefront each over its own slab at once, as one
// task of the crew (bands.go); a face between two slabs takes the place of a
// ghost face whose depth grows at every stage.  After the wavefront every
// stage runs, in stage order, the rows of every slab it could not run inside
// it.
func (s *Solver) run(l int) {
	lv := s.levels[l]
	st := lv.wave.stages
	c := s.borrow(s.workers(l))
	n := 1
	if c != nil {
		n = c.n
	}
	slabs := s.cut(l, n)

	s.exchange(l, &st[0])
	if c == nil {
		s.wavefront(l, &slabs[0], &s.sum)
	} else {
		c.run(task{kind: taskWave, l: l})
		c.release()
	}
	if st[len(st)-1].op == opRestrict {
		s.cutCoarse(l, slabs)
	}

	for i := range st {
		e := &st[i]
		if i > 0 {
			s.exchange(l, e)
		}
		for b := range slabs {
			sl := &slabs[b]
			all := sl.own
			if e.op == opRestrict {
				all = sl.coarse
			}
			for _, r := range all.outside(sl.in[i]) {
				if !r.empty() {
					s.apply(l, e, r, &s.sum)
				}
			}
		}
		s.charge(l, e)
		s.closeSpans(l, e.close)
	}
}

// cut readies level l's wave for n slabs.  It cuts the level's planes, or its
// rows where it has one plane and n is more than 1, into n equal ranges; a
// pair of ranges is the region of a pair of slabs, and a last range left
// over is one slab's alone.
func (s *Solver) cut(l, n int) []slab {
	lv := s.levels[l]
	w := &lv.wave
	own := ownedRows(lv.da.OwnedBox())
	w.axis = 2
	if n > 1 && own.k1-own.k0 == 1 {
		w.axis = 1
	}
	for len(w.slabs) < n {
		w.slabs = append(w.slabs, slab{})
	}
	if len(w.meets) < (n+1)/2 {
		w.meets = make([]meet, (n+1)/2)
	}
	slabs := w.slabs[:n]
	olo, ohi := own.along(w.axis)
	for b := range slabs {
		sl := &slabs[b]
		sl.own = own
		lo, hi := sl.own.along(w.axis)
		*lo, _ = band(*olo, *ohi, b&^1, n)
		_, *hi = band(*olo, *ohi, min(b|1, n-1), n)
		sl.down = b%2 == 1
		sl.meet = &w.meets[b/2]
		if !sl.down {
			sl.meet.set(*lo, *hi)
		}
		s.inside(l, sl)
	}
	return slabs
}

// inside sets the rows of slab sl each stage of level l's wave runs inside
// the wavefront.  The restriction runs the coarse rows whose fine rows all
// lie in the rows its residual runs there.
func (s *Solver) inside(l int, sl *slab) {
	lv := s.levels[l]
	st := lv.wave.stages
	sl.in = sl.in[:0]
	depth := 0
	for i := range st {
		if i > 0 && (depth > 0 || st[i].gated) {
			depth++
		}
		in := lv.inner(sl.own, depth, i)
		if st[i].op == opRestrict {
			in = s.restrictInner(l, sl.in[i-1])
		}
		sl.in = append(sl.in, in)
	}
}

// cutCoarse gives every slab, in order, the coarse rows of level l+1 from
// where the slab before it ends to the first whose highest fine row lies at
// or past the slab's end.  So every coarse row is some slab's, and each
// slab's are those it restricted to inside the wavefront and some of the
// rest.
func (s *Solver) cutCoarse(l int, slabs []slab) {
	d := s.levels[l].wave.axis
	rest := ownedRows(s.levels[l+1].da.OwnedBox()) // the coarse rows no slab has taken yet
	for b := range slabs {
		sl := &slabs[b]
		sl.coarse = rest
		if b == len(slabs)-1 {
			break
		}
		_, end := sl.own.along(d)
		c0, c1 := sl.coarse.along(d)
		r0, r1 := rest.along(d)
		for *c1 = *c0; *c1 < *r1; *c1++ {
			if _, top := s.fineSpan(l, d, *c1); top >= *end {
				break
			}
		}
		*r0 = *c1
	}
}

// wavefront runs slab sl's part of level l's wave, its products into sum.  At
// step t stage i works on the plane t − 2i planes on from the slab's start,
// the bottom of its region or, sweeping down, the top, on the rows of
// sl.in[i].  Stage 0 claims its plane first; once the claim fails the slab
// has met the other slab of its region, and its own rows and the rows its
// stages run end there.  The restriction runs the coarse rows whose fine
// rows the residual before it ran inside the wavefront, each coarse plane
// once the last of its fine planes has its residual: its highest sweeping
// up, its lowest sweeping down, which the residual two planes ahead
// finished in an earlier step.  A stage-plane reads its own plane and the
// two beside it and writes its own, so no stage-plane of a step reads or
// writes a plane another one writes.
func (s *Solver) wavefront(l int, sl *slab, sum *Sum) {
	w := &s.levels[l].wave
	st, d := w.stages, w.axis
	lo, hi := sl.own.along(d)
	first, dir := *lo, 1
	if sl.down {
		first, dir = *hi-1, -1
	}
	last := len(st) - 1
	next := 0 // the restriction's next coarse plane, sweeping up, or one past it
	if st[last].op == opRestrict {
		c0, c1 := sl.in[last].along(d)
		next = *c0
		if sl.down {
			next = *c1
		}
	}
	met := false
	for t := 0; !met || t < *hi-*lo+2*len(st); t++ {
		if u := first + dir*t; !met && !sl.meet.claim(sl.down) {
			met = true
			if sl.down {
				*lo = u + 1
			} else {
				*hi = u
			}
			s.inside(l, sl)
		}
		for i := range st {
			e, in := &st[i], sl.in[i]
			p := first + dir*(t-2*i)
			r := in
			ilo, ihi := in.along(d)
			rlo, rhi := r.along(d)
			switch {
			case e.op != opRestrict:
				*rlo, *rhi = p, p+1
			case !sl.down:
				*rlo = next
				for ; next < *ihi; next++ {
					if _, top := s.fineSpan(l, d, next); top > p+1 {
						break
					}
				}
				*rhi = next
			default:
				*rhi = next
				for ; next > *ilo; next-- {
					if bottom, _ := s.fineSpan(l, d, next-1); bottom < p-1 {
						break
					}
				}
				*rlo = next
			}
			if *rlo >= *rhi || *rlo < *ilo || *rhi > *ihi {
				continue
			}
			s.apply(l, e, r, sum)
		}
	}
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
		s.stencil(lv, e.form, e.src.Array(), e.dst.Array(), b, r)
	case opUpdate:
		var x []float64 // nil: the zero guess
		if !e.zero {
			x = e.src.Array()
		}
		s.update(lv, x, e.aux.Array(), e.dst.Array(), r)
	case opInterp:
		s.interpolateAdd(l, e.dst, r)
	case opRestrict:
		s.restrictTo(l, e.src, e.dst, r)
	default:
		for k := r.k0; k < r.k1; k++ {
			lo := rowIndex(own, r.j0, k)
			src, dst := e.src.Array()[lo:lo+n], e.dst.Array()[lo:lo+n]
			if e.op == opCopy {
				copy(dst, src)
			} else {
				aypxCells(dst, src, e.scale)
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

// aypxCells runs y = a·y + x as Vec.AYPX writes it, in lanes where useLanes
// is set.
func aypxCells(y, x []float64, a float64) {
	x = x[:len(y)]
	if useLanes {
		aypxLanes(y, x, a)
		return
	}
	aypxCellsGo(y, x, a)
}

// aypxCellsGo is aypxCells's Go loop.
func aypxCellsGo(y, x []float64, a float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] = float64(a*y[i]) + x[i]
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
					{Key: "sweeps", Val: strconv.Itoa(w.sweeps)}}
			})
		default:
			s.span(kind, w.start[b], intAttr("level", l))
		}
	}
}
