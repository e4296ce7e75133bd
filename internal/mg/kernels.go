package mg

import (
	"nccd/internal/dmda"
	"nccd/internal/petsc"
)

// The three solver kernels.  Each runs exactly the floating-point
// operations, in exactly the order, of the per-cell loops kept as the
// oracle in reference_test.go, so residual histories are bitwise theirs,
// but takes no decision per cell.  Subexpressions are hoisted only when
// their operands are unchanged, sums are never re-associated, and every
// product that feeds an add carries an explicit float64 conversion so that
// an architecture that fuses multiply-add rounds as one that does not.

// stencilForm selects what stencil writes for every owned cell.
type stencilForm uint8

const (
	formApply    stencilForm = iota // y = A x
	formResidual                    // y = b - A x
	formJacobi                      // y = x + omega/diag (b - A x)
)

// stencilGeom is what the general per-cell form needs to know of a level.
type stencilGeom struct {
	dim int
	n   [3]int     // global extents
	inv [3]float64 // 1/h² per dimension
}

// rowSrc is one owned x-row as a stencil pass reads it.  Each of the four
// neighbour rows is the source vector's own row where this rank owns it and
// lwork's where it was received as a ghost row; beyond a domain face there is
// none and the level's row of zeros stands in, which the general form never
// reads and the unrolled loop may subtract (see faceCoef).
type rowSrc struct {
	out                int       // the first cell's index in the owned layout of x, y and b
	i, j, k            int       // the first cell's global coordinates
	cr, ym, yp, zm, zp []float64 // the row and its neighbour rows, from the first cell on
}

// faceCoef is what the cells with the same count of domain faces along x, y
// and z share: the coefficient of u per dimension, cd·inv[d] with cd 2 plus
// one for every domain face the cell lies on along d (see side), and the
// diagonal, their sum in side's order over the grid's dimensions.  A level
// holds one per count of faces along each axis (faceCoefs).  The stencil's
// row form takes the coefficients and ω/diag of a 3-D row's cells, inner and
// end, from it and update takes ω/diag of every cell, so outside the general form
// the diagonal is summed in one place, and the oracle holds the two to each
// other bit for bit.
//
// A 3-D row on a y or z domain face runs through the unrolled loop too, with
// the row of zeros for its absent neighbour row: inv[d]·(+0) is +0, and
// acc − (+0) is acc for every acc, −0 and NaN included, so subtracting it
// leaves the bits that skipping the subtraction leaves.  A 2-D row is not a
// 3-D row of zero inv[2] in the same way: its centre term would add 0·u, and
// acc + (+0) turns an acc of −0 into +0.
type faceCoef struct {
	cu   [3]float64
	diag float64
}

// faceCoefs is the table of a dim-dimensional level whose 1/h² per dimension
// is inv: entry [fx][fy][fz] is for fx, fy and fz domain faces along x, y and
// z (0, 1, or on a grid one cell thick 2).  Along a dimension the grid does
// not have the coefficient is 0 and the count selects nothing.
func faceCoefs(dim int, inv [3]float64) (t [3][3][3]faceCoef) {
	for fx := range t {
		for fy := range t[fx] {
			for fz := range t[fx][fy] {
				c, f := &t[fx][fy][fz], [3]int{fx, fy, fz}
				for d := 0; d < dim; d++ {
					c.cu[d] = float64(float64(2+f[d]) * inv[d])
					c.diag += c.cu[d]
				}
			}
		}
	}
	return t
}

// chargeStencil charges the virtual clock one stencil pass over the owned
// cells of lv.
func (s *Solver) chargeStencil(lv *level) {
	s.c.Compute(float64(lv.da.OwnedBox().Cells()) * float64(4*s.dim+3) * flopSec)
}

// faces counts the domain faces (0, 1, or on a grid one cell thick 2) that
// coordinate c of an extent of n lies on.
func faces(c, n int) int {
	f := 0
	if c == 0 {
		f++
	}
	if c == n-1 {
		f++
	}
	return f
}

// rowIndex is the index of row (j, k)'s first cell in the owned layout of a
// level whose owned box is own.
func rowIndex(own dmda.Box, j, k int) int {
	return ((k-own.Lo[2])*(own.Hi[1]-own.Lo[1]) + j - own.Lo[1]) * (own.Hi[0] - own.Lo[0])
}

// diagWeights is ω/diag of every face class of the table coef (faceCoef).
func diagWeights(coef *[3][3][3]faceCoef) (w [3][3][3]float64) {
	for fx := range w {
		for fy := range w[fx] {
			for fz := range w[fx][fy] {
				w[fx][fy][fz] = omega / coef[fx][fy][fz].diag
			}
		}
	}
	return w
}

// stencil evaluates one of the three forms for every cell of the owned rows rb
// of x, whose ghost cells the level's ghost update has already left in
// lv.lwork (b is unused by formApply), with the level's ω/diag (lv.w).  Owned
// cells are read from x itself and only ghost cells from lwork, so x and y
// must not be one array.  A 3-D level of rows of six cells or more runs in the
// row form: each row's inner cells as one unrolled loop over five row slices
// with the coefficients of the row's class (faceCoef), on a y or z domain face
// as anywhere else, and its two end cells one lap7 each with their own
// class's, +0 standing in for an x-neighbour beyond a domain face (DESIGN §18
// "Row classes").  Where the lane kernel runs (useLanes) and the rank owns
// its rows whole, both ends on x domain faces, the rows of a plane whose
// y-neighbours are both owned rows share their class and the row stride of
// every source, and run as one band (plane); each other row is classified,
// and where each of its sources lies resolved, a row at a time (byRow).
// Shorter rows and every row of a 1-D or 2-D grid take the general per-cell
// form.  The caller charges the clock.
func (s *Solver) stencil(lv *level, form stencilForm, x, y, b []float64, rb rows) {
	da := lv.da
	own, ghost := da.OwnedBox(), da.GhostBox()
	p := stencilPass{lv: lv, form: form, x: x, y: y, b: b, own: own, w: &lv.w}
	g := &p.g
	g.dim, g.inv = s.dim, lv.inv
	for d := 0; d < 3; d++ {
		g.n[d] = da.GlobalSize(d)
	}
	p.nx = own.Hi[0] - own.Lo[0]
	p.oz = p.nx * (own.Hi[1] - own.Lo[1])
	p.sy = ghost.Hi[0] - ghost.Lo[0]
	p.sz = p.sy * (ghost.Hi[1] - ghost.Lo[1])
	p.west, p.east = own.Lo[0] > 0, own.Hi[0] < g.n[0]
	p.fw, p.fe = faces(own.Lo[0], g.n[0]), faces(own.Hi[0]-1, g.n[0])
	p.rowForm = s.dim == 3 && p.nx >= 6
	planes := p.rowForm && useLanes && !p.west && !p.east
	for k := rb.k0; k < rb.k1; k++ {
		a, e := rb.j1, rb.j1 // the plane's rows with both y-neighbours owned
		if planes {
			a, e = max(rb.j0, own.Lo[1]+1), min(rb.j1, own.Hi[1]-1)
		}
		if a >= e {
			p.byRow(k, rb.j0, rb.j1)
			continue
		}
		p.byRow(k, rb.j0, a)
		p.plane(k, a, e)
		p.byRow(k, e, rb.j1)
	}
}

// stencilPass is what one stencil call derives once from its level: the
// forms' operands, the strides of the owned layout (nx a row, oz a plane) and
// of the ghosted one (sy and sz), whether the end cells' outer x-neighbours
// are ghosts and how many x domain faces each end cell lies on.
type stencilPass struct {
	lv             *level
	form           stencilForm
	x, y, b        []float64
	own            dmda.Box
	g              stencilGeom
	w              *[3][3][3]float64 // ω/diag per face class
	nx, oz, sy, sz int
	west, east     bool
	fw, fe         int
	rowForm        bool
}

// plane runs rows j0 to j1−1 of plane k, every one with both y-neighbours
// owned and both end cells on x domain faces, in the row form: one face
// class, fy = 0 and fz the plane's, and one row stride per source
// (planeRows): the owned layout's for the row itself and its y-neighbours,
// and for each z-neighbour row the owned layout's, the ghosted one's where it
// was received or 0 for the row of zeros beyond a domain face.  One
// planeCells call takes the rows, end cells and all.
func (p *stencilPass) plane(k, j0, j1 int) {
	lv, x, nx := p.lv, p.x, p.nx
	n2 := p.g.n[2]
	out := rowIndex(p.own, j0, k)
	row := lv.da.LocalIndex(p.own.Lo[0], j0, k, 0)
	zm, zms := neighbourRow(k > p.own.Lo[2], k > 0, x, out-p.oz, nx, lv.lwork, row-p.sz, p.sy, lv.zeroRow)
	zp, zps := neighbourRow(k+1 < p.own.Hi[2], k+1 < n2, x, out+p.oz, nx, lv.lwork, row+p.sz, p.sy, lv.zeroRow)
	fz := faces(k, n2)
	pr := planeRows{
		m: nx - 2, rows: j1 - j0, stride: [7]int{nx, nx, nx, nx, nx, zms, zps},
		cu: [2][3]float64{lv.coef[p.fw][0][fz].cu, lv.coef[p.fe][0][fz].cu},
		w:  [2]float64{p.w[p.fw][0][fz], p.w[p.fe][0][fz]},
	}
	var bo []float64
	if p.form != formApply {
		bo = p.b[out:]
	}
	planeCells(p.form, p.y[out:], bo, x[out:], x[out-nx:], x[out+nx:], zm, zp, &pr, &p.g.inv, &lv.coef[0][0][fz].cu, p.w[0][0][fz])
}

// byRow runs rows j0 to j1−1 of plane k a row at a time: in the row form each
// row classified and its neighbour rows resolved on their own, in the general
// per-cell form where the pass has no row form.
func (p *stencilPass) byRow(k, j0, j1 int) {
	if j0 >= j1 {
		return
	}
	lv, g, x, y, b, lw, zero, own, nx := p.lv, &p.g, p.x, p.y, p.b, p.lv.lwork, p.lv.zeroRow, p.own, p.nx
	r := rowSrc{i: own.Lo[0], k: k}
	out := rowIndex(own, j0, k)
	row := lv.da.LocalIndex(own.Lo[0], j0, k, 0)
	for j := j0; j < j1; j, out, row = j+1, out+nx, row+p.sy {
		cr := x[out:]
		r.out, r.j = out, j
		r.cr = cr
		r.ym, _ = neighbourRow(j > own.Lo[1], j > 0, x, out-nx, nx, lw, row-p.sy, p.sy, zero)
		r.yp, _ = neighbourRow(j+1 < own.Hi[1], j+1 < g.n[1], x, out+nx, nx, lw, row+p.sy, p.sy, zero)
		r.zm, _ = neighbourRow(k > own.Lo[2], k > 0, x, out-p.oz, nx, lw, row-p.sz, p.sy, zero)
		r.zp, _ = neighbourRow(k+1 < own.Hi[2], k+1 < g.n[2], x, out+p.oz, nx, lw, row+p.sz, p.sy, zero)

		if p.rowForm {
			var xw, xe float64 // +0 beyond a domain face
			if p.west {
				xw = lw[row-1]
			}
			if p.east {
				xe = lw[row+nx]
			}
			fy, fz := faces(j, g.n[1]), faces(k, g.n[2])
			e := nx - 1
			w := p.w
			endCell(p.form, y, b, out, cr[0], xw, cr[1], r.ym[0], r.yp[0], r.zm[0], r.zp[0], &g.inv, &lv.coef[p.fw][fy][fz], w[p.fw][fy][fz])
			interiorCells(p.form, y, b, out+1, nx-2, cr, r.ym[1:], r.yp[1:], r.zm[1:], r.zp[1:], &g.inv, &lv.coef[0][fy][fz].cu, w[0][fy][fz])
			endCell(p.form, y, b, out+e, cr[e], cr[e-1], xe, r.ym[e], r.yp[e], r.zm[e], r.zp[e], &g.inv, &lv.coef[p.fe][fy][fz], w[p.fe][fy][fz])
			continue
		}
		xw, xe := cr, cr // the end cells' outer x-neighbours
		if p.west {
			xw = lw[row-1:]
		}
		if p.east {
			xe = lw[row+nx:]
		}
		if nx == 1 {
			g.cells(p.form, y, b, &r, xw, xe, 0, 1)
			continue
		}
		g.cells(p.form, y, b, &r, xw, cr[1:], 0, 1)
		g.cells(p.form, y, b, &r, cr, cr[2:], 1, nx-2)
		g.cells(p.form, y, b, &r, cr[nx-2:], xe, nx-1, 1)
	}
}

// endCell writes the form of one end cell of a 3-D row, at index o, from its
// value u and its six sources through lap7, with its face class's coefficients
// c and ω/diag w.
func endCell(form stencilForm, y, b []float64, o int, u, xm, xp, ym, yp, zm, zp float64, inv *[3]float64, c *faceCoef, w float64) {
	acc := lap7(inv[0], inv[1], inv[2], c.cu[0], c.cu[1], c.cu[2], u, xm, xp, ym, yp, zm, zp)
	switch form {
	case formApply:
		y[o] = acc
	case formResidual:
		y[o] = b[o] - acc
	case formJacobi:
		y[o] = u + float64(w*(b[o]-acc))
	}
}

// update is a Jacobi sweep of x whose residual b − A x is already known: r is
// the level's stored residual for this x, or b itself where x is zero (every
// stencil term of a zero x is +0, and b − (+0) is b on every bit pattern).  It
// writes y = x + ω/diag·r for every cell of the owned rows rb, which is what
// the stencil's formJacobi writes bit for bit, since that form computes b − A x
// as the residual does and then exactly this.  A nil x is the zero guess,
// which update does not read: it writes ω/diag·r + 0, the bits +0 + ω/diag·r
// has (−0 becomes +0).  It evaluates no stencil and reads no ghost cell, and
// y may be r.  The caller charges the clock the stencil pass it stands in for.
func (s *Solver) update(lv *level, x, r, y []float64, rb rows) {
	own := lv.da.OwnedBox()
	var n [3]int
	for d := range n {
		n[d] = lv.da.GlobalSize(d)
	}
	w := &lv.w
	// Only a row's first and last cell can lie on an x domain face.
	nx := own.Hi[0] - own.Lo[0]
	fw, fe := faces(own.Lo[0], n[0]), faces(own.Hi[0]-1, n[0])
	for k := rb.k0; k < rb.k1; k++ {
		fz := faces(k, n[2])
		out := rowIndex(own, rb.j0, k)
		for j := rb.j0; j < rb.j1; j, out = j+1, out+nx {
			fy := faces(j, n[1])
			last := out + nx - 1
			updateRun(y[out:out+1], tail(x, out), r[out:], w[fw][fy][fz])
			if nx > 1 {
				updateRun(y[out+1:last], tail(x, out+1), r[out+1:], w[0][fy][fz])
				updateRun(y[last:last+1], tail(x, last), r[last:], w[fe][fy][fz])
			}
		}
	}
}

// tail is a[i:], nil where a is.
func tail(a []float64, i int) []float64 {
	if a == nil {
		return nil
	}
	return a[i:]
}

// updateRun writes y[i] = x[i] + w·r[i], the update of cells that share
// ω/diag, or w·r[i] + 0 where x is nil, the zero guess: a run of eight cells
// or more in lanes where useLanes is set.
func updateRun(y, x, r []float64, w float64) {
	r = r[:len(y)]
	if x != nil {
		x = x[:len(y)]
	}
	if useLanes && len(y) >= 8 {
		updateLanes(y, x, r, w)
		return
	}
	updateRunGo(y, x, r, w)
}

// updateRunGo is updateRun's Go loop.
func updateRunGo(y, x, r []float64, w float64) {
	r = r[:len(y)]
	if x == nil {
		for i := range y {
			y[i] = float64(w*r[i]) + 0
		}
		return
	}
	x = x[:len(y)]
	for i := range y {
		y[i] = x[i] + float64(w*r[i])
	}
}

// neighbourRow is a neighbour row of an owned row, from the cell beside that
// row's first on, and the stride from it to the same neighbour of the next
// row of the plane: x[xo:] and x's row stride xs where this rank owns the
// row, lw[lo:] and lw's row stride ls where it lies in the domain and so was
// received, and beyond a domain face zero and 0, the one row of zeros for
// every row.
func neighbourRow(owned, inDomain bool, x []float64, xo, xs int, lw []float64, lo, ls int, zero []float64) ([]float64, int) {
	switch {
	case owned:
		return x[xo:], xs
	case inDomain:
		return lw[lo:], ls
	}
	return zero, 0
}

// cells evaluates count consecutive cells of row r, from its cell c0 on, the
// general way: any dimension count, and homogeneous Dirichlet at whichever
// physical domain faces a cell touches (see side).  xm and xp are the cells'
// x-neighbours, from cell c0's on: the row itself one cell to either side,
// but for an end cell's received ghost.
func (g *stencilGeom) cells(form stencilForm, y, b []float64, r *rowSrc, xm, xp []float64, c0, count int) {
	for c := 0; c < count; c++ {
		at := c0 + c
		u := r.cr[at]
		acc, diag := g.side(0, r.i+at, 0, 0, u, xm[c], xp[c])
		if g.dim > 1 {
			acc, diag = g.side(1, r.j, acc, diag, u, r.ym[at], r.yp[at])
		}
		if g.dim > 2 {
			acc, diag = g.side(2, r.k, acc, diag, u, r.zm[at], r.zp[at])
		}
		oi := r.out + at
		switch form {
		case formApply:
			y[oi] = acc
		case formResidual:
			y[oi] = b[oi] - acc
		case formJacobi:
			y[oi] = u + float64(omega/diag*(b[oi]-acc))
		}
	}
}

// side adds dimension d's share of (A x) and of the diagonal for a cell at
// coordinate coord along d, with value u and neighbours lo and hi.  At a
// physical domain face the neighbour is not read: there the ghost cell
// mirrors with opposite sign (u_ghost = -u), which adds 1 to the diagonal
// coefficient of boundary cells.  Discretizing the boundary at the same
// physical location on every level is what lets the coarse-grid correction
// work near the walls.
func (g *stencilGeom) side(d, coord int, acc, diag, u, lo, hi float64) (float64, float64) {
	cd := 2.0
	if coord > 0 {
		acc -= float64(g.inv[d] * lo)
	} else {
		cd++
	}
	if coord < g.n[d]-1 {
		acc -= float64(g.inv[d] * hi)
	} else {
		cd++
	}
	acc += float64(cd * g.inv[d] * u)
	diag += float64(cd * g.inv[d])
	return acc, diag
}

// interiorCells evaluates the m cells y[o:o+m] of a 3-D row, all of which
// have both x-neighbours inside the domain.  cr is the cells' own row from the
// first cell's west neighbour on; ym, yp, zm and zp are the four neighbouring
// rows from the first cell on, each wherever it lies (see rowSrc).  cu and w
// are the row's faceCoef coefficients and ω/diag.  Where the CPU runs the lane
// kernel (useLanes) and m is at least four, the lane kernel takes the row,
// four cells a step, its last step four cells before the end; it writes the
// bits interiorCellsGo writes (DESIGN §18 "Cross-cell lanes").  Fewer than
// four cells, or no lane kernel, run interiorCellsGo.
func interiorCells(form stencilForm, y, b []float64, o, m int, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64) {
	if !useLanes || m < 4 {
		interiorCellsGo(form, y, b, o, m, cr, ym, yp, zm, zp, inv, cu, w)
		return
	}
	var bm []float64
	if form != formApply {
		bm = b[o:][:m]
	}
	interiorLanes(form, y[o:][:m], bm, cr[:m+2], ym[:m], yp[:m], zm[:m], zp[:m], inv, cu, w)
}

// interiorCellsGo is interiorCells one cell at a time, in Go: every row where
// there is no lane kernel, and a row of fewer than four cells where there is.
func interiorCellsGo(form stencilForm, y, b []float64, o, m int, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64) {
	xm, u, xp := cr[:m], cr[1:m+1], cr[2:m+2]
	ym, yp, zm, zp = ym[:m], yp[:m], zm[:m], zp[:m]
	y = y[o:][:m]
	i0, i1, i2 := inv[0], inv[1], inv[2]
	t0, t1, t2 := cu[0], cu[1], cu[2]
	switch form {
	case formApply:
		for i := range y {
			y[i] = lap7(i0, i1, i2, t0, t1, t2, u[i], xm[i], xp[i], ym[i], yp[i], zm[i], zp[i])
		}
	case formResidual:
		b = b[o:][:m]
		for i := range y {
			y[i] = b[i] - lap7(i0, i1, i2, t0, t1, t2, u[i], xm[i], xp[i], ym[i], yp[i], zm[i], zp[i])
		}
	case formJacobi:
		b = b[o:][:m]
		for i := range y {
			acc := lap7(i0, i1, i2, t0, t1, t2, u[i], xm[i], xp[i], ym[i], yp[i], zm[i], zp[i])
			y[i] = u[i] + float64(w*(b[i]-acc))
		}
	}
}

// planeRows is what planeCells takes of a band of 3-D rows besides its
// sources: rows rows of m inner cells and two end cells each, row r of each
// source starting stride[i]·r values after its first, i counting y, b, cr,
// ym, yp, zm and zp.  In the stencil's bands every stride is the owned
// layout's row but a z-neighbour's, which is also lwork's, or 0 for the row
// of zeros (stencilPass.plane).  Both end cells of every row lie on x domain
// faces, and cu and w are the west and the east one's class coefficients
// and ω/diag.  planeLanes reads the fields at fixed offsets
// (interior_amd64.s).
type planeRows struct {
	m, rows int
	stride  [7]int
	cu      [2][3]float64
	w       [2]float64
}

// planeCells runs the row form on pr.rows rows of a 3-D plane in one
// planeLanes call: the inner cells of each, at least four, as interiorCells
// does with the coefficients cu and ω/diag w, and its end cells as endCell
// does with +0 for their outer x-neighbours.  Every source is sliced from
// the first row's first cell.  Only a CPU that runs the lane kernel
// (useLanes) may call it.
func planeCells(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, pr *planeRows, inv, cu *[3]float64, w float64) {
	// Every source sliced to end with its last row: the kernel checks no bound.
	n := pr.m + 2
	span := func(a []float64, i int) []float64 { return a[:(pr.rows-1)*pr.stride[i]+n] }
	if form != formApply {
		b = span(b, 1)
	}
	planeLanes(form, span(y, 0), b, span(cr, 2), span(ym, 3), span(yp, 4), span(zm, 5), span(zp, 6), pr, inv, cu, w)
}

// lap7 is (A x) of one cell with all seven sources, in the general form's
// order: per dimension the lower neighbour, the upper neighbour, then the
// centre.
func lap7(i0, i1, i2, t0, t1, t2, u, xm, xp, ym, yp, zm, zp float64) float64 {
	acc := 0.0
	acc -= float64(i0 * xm)
	acc -= float64(i0 * xp)
	acc += float64(t0 * u)
	acc -= float64(i1 * ym)
	acc -= float64(i1 * yp)
	acc += float64(t1 * u)
	acc -= float64(i2 * zm)
	acc -= float64(i2 * zp)
	acc += float64(t2 * u)
	return acc
}

// interpWeights returns, for fine cell index i along a split dimension, the
// lower coarse neighbor and the weights of the (lo, lo+1) pair under
// cell-centered linear interpolation.  At domain boundaries the missing
// neighbor is the homogeneous-Dirichlet face (value 0, half a coarse cell
// away), so the surviving weight becomes 0.5 — keeping interpolation
// consistent with the operator's boundary discretization.  For unsplit
// dimensions the cell maps to itself with full weight.
func interpWeights(i int, split bool, coarseN int) (lo int, wLo, wHi float64) {
	if !split {
		return i, 1, 0
	}
	c := i / 2
	if i%2 == 0 {
		lo, wLo, wHi = c-1, 0.25, 0.75
	} else {
		lo, wLo, wHi = c, 0.75, 0.25
	}
	if lo < 0 {
		return lo, 0, 0.5 // interpolate between the face (0) and coarse cell 0
	}
	if lo+1 >= coarseN {
		return lo, 0.5, 0 // interpolate between the last cell and the face
	}
	return lo, wLo, wHi
}

// interpTerm is, for one owned fine index along one dimension, the pair of
// coarse cells it interpolates between, lower first: their patch offsets
// (index times the dimension's patch stride) and weights.  A zero weight
// marks a neighbour beyond a domain face, which contributes nothing and
// may lie outside the patch.
type interpTerm struct {
	off [2]int
	w   [2]float64
}

// restrictTerm is the adjoint for one owned coarse index along one
// dimension: the up to four fine indices that interpolate from it, in
// ascending order, as patch offsets and as offsets in the fine owned layout
// (index times the dimension's stride in either; -1 in own where this rank
// does not own the index, whose cells are then the patch's), and their
// weights.
type restrictTerm struct {
	n        int
	off, own [4]int
	w        [4]float64
}

// transferTables hold everything restrictTo and interpolateAdd would
// otherwise derive per cell: one table per dimension (x first), indexed by
// owned coarse and by owned fine index respectively.  The x runs are the
// ranges of the x tables that the unrolled loops serve: entries with every
// weight present and adjacent patch cells.  The restriction's run is narrowed
// further to what restrictRun takes for granted: all four columns owned by
// this rank, one set of weights throughout, each entry's first column two
// beyond the entry's before, and at least four entries (else it is empty).
// restrictEnds is whether the first and the last entry are what restrictEnds
// takes for granted: two different cells, each on an x domain face, with
// three adjacent columns all owned by this rank.  interpLane is the part of
// the interpolation's run that interpLanes takes for granted: it starts on a
// pair of fine cells that share their lower coarse cell, each pair's one
// beyond the pair's before, every pair weighted as the first, and it is a
// multiple of four long (else empty).  interpLaneW holds those weights as a
// step's four lanes see them: the lower coarse cell's, then the upper's.
// interpEnds is whether the first and the last entry are what interpEnds takes
// for granted: two different cells, each on an x domain face and so with one
// weight.
type transferTables struct {
	restrict     [3][]restrictTerm
	restrictXRun [2]int
	restrictEnds bool
	interp       [3][]interpTerm
	interpXRun   [2]int
	interpLane   [2]int
	interpLaneW  [2][4]float64
	interpEnds   bool
}

// newTransferTables builds the tables of the transfers between fine and
// coarse from interpWeights, the single source of the weights.
func (s *Solver) newTransferTables(fine, coarse *level) *transferTables {
	t := &transferTables{}
	cOwn, fOwn := coarse.da.OwnedBox(), fine.da.OwnedBox()
	rBox, iBox := fine.restrictBox, fine.interpBox
	rStride, oStride, iStride := 1, 1, 1
	for d := 0; d < 3; d++ {
		split := d < s.dim
		nf, nc := fine.da.GlobalSize(d), coarse.da.GlobalSize(d)

		// Coarse cell ci gathers the fine cells of [2ci-1, 2ci+3) inside
		// the domain that interpolate from it, each with the weight it
		// gives ci (an unsplit dimension's one cell maps to itself).
		for ci := cOwn.Lo[d]; ci < cOwn.Hi[d]; ci++ {
			var e restrictTerm
			for fi := 2*ci - 1; fi < 2*ci+3; fi++ {
				if fi < 0 || fi >= nf {
					continue
				}
				lo, wLo, wHi := interpWeights(fi, split, nc)
				var w float64
				switch {
				case lo == ci:
					w = wLo
				case lo+1 == ci:
					w = wHi
				}
				if w != 0 {
					e.off[e.n], e.own[e.n], e.w[e.n] = (fi-rBox.Lo[d])*rStride, -1, w
					if fi >= fOwn.Lo[d] && fi < fOwn.Hi[d] {
						e.own[e.n] = (fi - fOwn.Lo[d]) * oStride
					}
					e.n++
				}
			}
			t.restrict[d] = append(t.restrict[d], e)
		}
		rStride *= rBox.Hi[d] - rBox.Lo[d]
		oStride *= fOwn.Hi[d] - fOwn.Lo[d]

		for fi := fOwn.Lo[d]; fi < fOwn.Hi[d]; fi++ {
			lo, wLo, wHi := interpWeights(fi, split, nc)
			off := (lo - iBox.Lo[d]) * iStride
			t.interp[d] = append(t.interp[d], interpTerm{[2]int{off, off + iStride}, [2]float64{wLo, wHi}})
		}
		iStride *= iBox.Hi[d] - iBox.Lo[d]
	}
	rx := t.restrict[0]
	t.restrictXRun = firstRun(len(rx), func(i int) bool {
		e := &rx[i]
		return e.n == 4 && e.off[1] == e.off[0]+1 && e.off[2] == e.off[0]+2 && e.off[3] == e.off[0]+3 &&
			e.own[0] >= 0 && e.own[3] >= 0
	})
	run := &t.restrictXRun
	for i := run[0] + 1; i < run[1]; i++ {
		if rx[i].w != rx[run[0]].w || rx[i].off[0] != rx[i-1].off[0]+2 {
			run[1] = i
		}
	}
	if run[1]-run[0] < 4 {
		run[1] = run[0]
	}
	end := func(e *restrictTerm) bool {
		return e.n == 3 && e.own[0] >= 0 && e.own[1] == e.own[0]+1 && e.own[2] == e.own[0]+2
	}
	t.restrictEnds = len(rx) >= 2 && end(&rx[0]) && end(&rx[len(rx)-1])
	t.interpXRun = firstRun(len(t.interp[0]), func(i int) bool {
		e := &t.interp[0][i]
		return e.w[0] != 0 && e.w[1] != 0 && e.off[1] == e.off[0]+1
	})
	t.setInterpLane()
	ix := t.interp[0]
	one := func(e *interpTerm) bool { return (e.w[0] == 0) != (e.w[1] == 0) }
	t.interpEnds = len(ix) >= 2 && one(&ix[0]) && one(&ix[len(ix)-1])
	return t
}

// setInterpLane finds interpLane and its weights in the interpolation's x
// run.
func (t *transferTables) setInterpLane() {
	ix := t.interp[0]
	lo, hi := t.interpXRun[0], t.interpXRun[1]
	if lo+1 < hi && ix[lo+1].off[0] != ix[lo].off[0] {
		lo++
	}
	n := 0
	for lo+n < hi && ix[lo+n].off[0] == ix[lo].off[0]+n/2 && ix[lo+n].w == ix[lo+n%2].w {
		n++
	}
	n &^= 3
	t.interpLane = [2]int{lo, lo + n}
	for j := 0; j < 4 && n > 0; j++ {
		t.interpLaneW[0][j], t.interpLaneW[1][j] = ix[lo+j%2].w[0], ix[lo+j%2].w[1]
	}
}

// firstRun returns the first maximal range [lo, hi) of indices below n
// that all satisfy ok (empty, at n, when none does).
func firstRun(n int, ok func(int) bool) [2]int {
	lo := 0
	for lo < n && !ok(lo) {
		lo++
	}
	hi := lo
	for hi < n && ok(hi) {
		hi++
	}
	return [2]int{lo, hi}
}

// restrictScatter receives into finePatch the cells of the restriction's patch
// box that other ranks own, from their rf: the restriction's exchange,
// charged as the whole patch scatter (Scatter.BeginRemoteArrays).
func (s *Solver) restrictScatter(l int, rf *petsc.Vec) {
	fine := s.levels[l]
	fa, patch := rf.Array(), fine.finePatch
	if patch == nil {
		patch = fa // the patch box is the owned box: the layouts are one and nothing lands in it
	}
	fine.restrictSc.BeginRemoteArrays(fa, patch)
	fine.restrictSc.End()
}

// chargeRestrict charges the virtual clock the restriction's arithmetic.
func (s *Solver) chargeRestrict(l int) {
	cOwn := s.levels[l+1].da.OwnedBox()
	s.c.Compute(float64(cOwn.Cells()) * float64(int(4)<<uint(s.dim)) * flopSec)
}

// restrictTo restricts fine-level values r_f (level l) into the owned coarse
// rows rb of the next coarser level's vector out using the scaled adjoint of
// the linear interpolation, R = Pᵀ/2^dim — full weighting with
// Dirichlet-consistent boundary treatment.  The fine cells this rank owns are
// read from rf itself and only the other ranks' from finePatch, which
// restrictScatter filled wherever rb reads one.  The caller charges the clock.
func (s *Solver) restrictTo(l int, rf, out *petsc.Vec, rb rows) {
	fine := s.levels[l]
	fa, patch := rf.Array(), fine.finePatch
	if patch == nil {
		patch = fa
	}
	scale := 1.0
	for d := 0; d < s.dim; d++ {
		scale /= 2
	}
	t := fine.transfer
	cOwn := s.levels[l+1].da.OwnedBox()
	tx, oa := t.restrict[0], out.Array()
	runLo, runHi := t.restrictXRun[0], t.restrictXRun[1]
	lo, hi, from := 0, len(tx), runLo // restrictCell takes the cells of [lo, runLo) and [runHi, hi)
	if t.restrictEnds {
		lo, hi, from = 1, len(tx)-1, 0
	}
	if runLo == runHi {
		runLo, runHi = hi, hi
	}

	// Per coarse row: the fine rows it gathers from, z-major as the sum
	// runs, and the product of their z and y weights.  pat is a fine row in
	// the patch and own the same row in rf where this rank owns it, both
	// formed only where restrictCell has cells to gather.  row is the one of
	// the two that holds the row's owned columns, from column entry from's
	// first on (fo in rf's layout, fp in the patch's): the first cell's where
	// restrictEnds holds, the run's otherwise.  src is row from the run's
	// first column on, d columns further, wx the row's weight times the run's
	// four x weights and we times the end cells' three.  The weights change
	// only with the z and y weights of the row's class, so they are formed
	// again only when those change: zw and yw are the ones they were formed
	// for.
	var pat, own, row, src [16][]float64
	var wzy [16]float64
	var wx [16][4]float64
	var we [16][2][3]float64
	var zw, yw [4]float64
	formed := false
	cells := lo < runLo || runHi < hi
	rowed := t.restrictEnds || runLo < runHi
	var fo, fp, d int
	if rowed {
		fo, fp = tx[from].own[0], tx[from].off[0]
	}
	if runLo < runHi {
		d = tx[runLo].own[0] - fo
	}
	for k := rb.k0; k < rb.k1; k++ {
		ez := &t.restrict[2][k-cOwn.Lo[2]]
		idx := rowIndex(cOwn, rb.j0, k)
		for j := rb.j0; j < rb.j1; j, idx = j+1, idx+len(tx) {
			ey := &t.restrict[1][j-cOwn.Lo[1]]
			nr := 0
			for a := 0; a < ez.n; a++ {
				for b := 0; b < ey.n; b++ {
					po, oo := ez.off[a]+ey.off[b], -1 // the row's offsets in the patch and, where owned, in rf
					if ez.own[a] >= 0 && ey.own[b] >= 0 {
						oo = ez.own[a] + ey.own[b]
					}
					if cells {
						pat[nr], own[nr] = patch[po:], nil
						if oo >= 0 {
							own[nr] = fa[oo:]
						}
					}
					if rowed {
						if oo >= 0 {
							row[nr] = fa[oo+fo:]
						} else {
							row[nr] = patch[po+fp:]
						}
					}
					nr++
				}
			}
			if !formed || ez.w != zw || ey.w != yw {
				formed, zw, yw = true, ez.w, ey.w
				t.restrictWeights(ez, ey, &wzy, &wx, &we)
			}
			if t.restrictEnds {
				a, b := &tx[0], &tx[len(tx)-1]
				s0, s1 := restrictEnds(row[:nr], we[:nr], b.own[0]-a.own[0])
				oa[idx], oa[idx+len(tx)-1] = s0*scale, s1*scale
			}
			for i := lo; i < runLo; i++ {
				oa[idx+i] = restrictCell(pat[:nr], own[:nr], wzy[:nr], &tx[i]) * scale
			}
			if runLo < runHi {
				for r := 0; r < nr; r++ {
					src[r] = row[r][d:]
				}
				gatherRun(oa[idx+runLo:idx+runHi], src[:nr], wx[:nr], scale)
			}
			for i := runHi; i < hi; i++ {
				oa[idx+i] = restrictCell(pat[:nr], own[:nr], wzy[:nr], &tx[i]) * scale
			}
		}
	}
}

// restrictWeights forms the weights of a coarse row whose z and y entries are
// ez and ey: wzy, the products of their weights, z-major as restrictTo lists
// the fine rows, and from those wx, the run's four x weights times each, and
// we, the end cells' three times each, where the tables have a run and end
// cells.
func (t *transferTables) restrictWeights(ez, ey *restrictTerm, wzy *[16]float64, wx *[16][4]float64, we *[16][2][3]float64) {
	tx := t.restrict[0]
	nr := 0
	for a := 0; a < ez.n; a++ {
		for b := 0; b < ey.n; b++ {
			wzy[nr] = float64(ez.w[a] * ey.w[b])
			nr++
		}
	}
	if t.restrictEnds {
		a, b := &tx[0], &tx[len(tx)-1]
		for r := 0; r < nr; r++ {
			for c := range we[r][0] {
				we[r][0][c], we[r][1][c] = float64(wzy[r]*a.w[c]), float64(wzy[r]*b.w[c])
			}
		}
	}
	if run := t.restrictXRun; run[0] < run[1] {
		e := &tx[run[0]]
		for r := 0; r < nr; r++ {
			for c, w := range e.w {
				wx[r][c] = float64(wzy[r] * w)
			}
		}
	}
}

// restrictCell gathers one coarse cell with any number of x candidates, each
// fine cell from own where this rank owns both its row and its column and
// from pat where it was received.
func restrictCell(pat, own [][]float64, wzy []float64, ex *restrictTerm) float64 {
	sum := 0.0
	for r, p := range pat {
		o := own[r]
		for c := 0; c < ex.n; c++ {
			v := p[ex.off[c]]
			if o != nil && ex.own[c] >= 0 {
				v = o[ex.own[c]]
			}
			sum += float64(wzy[r] * ex.w[c] * v)
		}
	}
	return sum
}

// restrictEnds gathers a coarse row's first and last cell, each on an x domain
// face and each from three adjacent columns this rank owns, which restrictCell
// would gather one candidate at a time: columns 0 to 2 and last to last+2 of
// every fine row, rows resolved as the run's are.  w holds the products of the
// row weights and the two cells' x weights.  One loop over the rows carries
// both sums, each receiving its terms in restrictCell's order, so that two
// chains of dependent adds are in flight and not one.
func restrictEnds(rows [][]float64, w [][2][3]float64, last int) (first, end float64) {
	w = w[:len(rows)]
	for r, row := range rows {
		p, q := row[:3], row[last:][:3]
		a, b := &w[r][0], &w[r][1]
		first += float64(a[0] * p[0])
		end += float64(b[0] * q[0])
		first += float64(a[1] * p[1])
		end += float64(b[1] * q[1])
		first += float64(a[2] * p[2])
		end += float64(b[2] * q[2])
	}
	return first, end
}

// gatherRun gathers the coarse cells out of an x run, as restrictRun does.
// Where the CPU runs the lane kernel (useLanes) and the run has at least
// sixteen cells, restrictLanes takes it whole, sixteen cells a step; the two
// write the same bits (DESIGN §18 "Cross-cell lanes").
func gatherRun(out []float64, src [][]float64, wx [][4]float64, scale float64) {
	if n := len(out); useLanes && n >= 16 {
		for r, row := range src {
			src[r] = row[:2*n+2] // every column the run reads: the kernel checks no bound
		}
		restrictLanes(out, src, wx[:len(src)], scale)
		return
	}
	restrictRun(out, src, wx, scale)
}

// restrictRun gathers the coarse cells out of an x run, at least four, whose
// fine rows are src from the first cell's first column on: cell i reads
// columns 2i to 2i+3 of every row.  It takes four cells at a time and carries
// their four sums through one loop over the rows, so that four chains of
// dependent adds are in flight and not one; each sum receives its own cell's
// terms in restrictCell's order, rows then columns, and none is re-associated.
// The last group starts four cells before the end and may store again what the
// group before it stored.  It is the whole run where there is no lane kernel
// and a run of fewer than sixteen cells where there is (gatherRun).
func restrictRun(out []float64, src [][]float64, wx [][4]float64, scale float64) {
	n := len(out)
	wx = wx[:len(src)]
	for g := 0; g < n; g += 4 {
		if g > n-4 {
			g = n - 4
		}
		var s0, s1, s2, s3 float64
		for r, row := range src {
			p := row[2*g:][:10]
			w := &wx[r]
			w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
			s0 += float64(w0 * p[0])
			s1 += float64(w0 * p[2])
			s2 += float64(w0 * p[4])
			s3 += float64(w0 * p[6])
			s0 += float64(w1 * p[1])
			s1 += float64(w1 * p[3])
			s2 += float64(w1 * p[5])
			s3 += float64(w1 * p[7])
			s0 += float64(w2 * p[2])
			s1 += float64(w2 * p[4])
			s2 += float64(w2 * p[6])
			s3 += float64(w2 * p[8])
			s0 += float64(w3 * p[3])
			s1 += float64(w3 * p[5])
			s2 += float64(w3 * p[7])
			s3 += float64(w3 * p[9])
		}
		o := out[g:][:4]
		o[0], o[1], o[2], o[3] = s0*scale, s1*scale, s2*scale, s3*scale
	}
}

// chargeInterp charges the virtual clock the interpolation's arithmetic.
func (s *Solver) chargeInterp(l int) {
	fOwn := s.levels[l].da.OwnedBox()
	s.c.Compute(float64(fOwn.Cells()) * float64(int(3)<<uint(s.dim)) * flopSec)
}

// interpolateAdd interpolates the coarse correction linearly and adds it into
// the owned rows rb of the fine-level vector x (level l).  It reads the
// correction from coarsePatch, which the interpolation's patch scatter has
// filled.  The caller charges the clock.
func (s *Solver) interpolateAdd(l int, x *petsc.Vec, rb rows) {
	fine := s.levels[l]
	t := fine.transfer
	fOwn := fine.da.OwnedBox()
	tx, patch, xa := t.interp[0], fine.coarsePatch, x.Array()

	runLo, runHi := t.interpXRun[0], t.interpXRun[1]
	lo, hi := 0, len(tx) // interpCell takes the cells of [lo, runLo) and [runHi, hi)
	if t.interpEnds {
		lo, hi = 1, len(tx)-1
	}
	if runLo > hi { // no run
		runLo, runHi = hi, hi
	}

	// Per fine row: the coarse rows with a weight, z-major as the sum
	// runs, and the product of their z and y weights.
	var rowBuf [4]int
	var wzyBuf [4]float64
	for k := rb.k0; k < rb.k1; k++ {
		ez := &t.interp[2][k-fOwn.Lo[2]]
		idx := rowIndex(fOwn, rb.j0, k)
		for j := rb.j0; j < rb.j1; j, idx = j+1, idx+len(tx) {
			ey := &t.interp[1][j-fOwn.Lo[1]]
			nr := 0
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if ez.w[a] != 0 && ey.w[b] != 0 {
						rowBuf[nr], wzyBuf[nr] = ez.off[a]+ey.off[b], float64(ez.w[a]*ey.w[b])
						nr++
					}
				}
			}
			// All four rows present means a 3-D row off the y and z domain
			// faces, whose x run interpRun takes; a face row's, or any row's of
			// a 1-D or 2-D grid, takes interpCells.  interpEnds takes the end
			// cells where they are on x domain faces, interpCell the rest.
			bases, wzy := rowBuf[:nr], wzyBuf[:nr]
			if t.interpEnds {
				first, last := interpEnds(patch, bases, wzy, &tx[0], &tx[len(tx)-1])
				xa[idx] += first
				xa[idx+len(tx)-1] += last
			}
			for i := lo; i < runLo; i++ {
				xa[idx+i] += interpCell(patch, bases, wzy, &tx[i])
			}
			if nr == 4 {
				interpRun(xa[idx:idx+len(tx)], t, patch, &rowBuf, &wzyBuf)
			} else {
				interpCells(xa[idx+runLo:idx+runHi], tx[runLo:runHi], patch, bases, wzy)
			}
			for i := runHi; i < hi; i++ {
				xa[idx+i] += interpCell(patch, bases, wzy, &tx[i])
			}
		}
	}
}

// interpCell interpolates one fine cell from whichever weights it has.
func interpCell(patch []float64, rows []int, wzy []float64, ex *interpTerm) float64 {
	v := 0.0
	for r, base := range rows {
		for c := 0; c < 2; c++ {
			if ex.w[c] != 0 {
				v += float64(wzy[r] * ex.w[c] * patch[base+ex.off[c]])
			}
		}
	}
	return v
}

// interpEnds interpolates a fine row's first and last cell, each on an x
// domain face and so weighted to one coarse cell of each coarse row, which
// interpCell would take one term at a time.  One loop over the rows carries
// both sums, each in interpCell's order, so that two chains of dependent adds
// are in flight and not one.
func interpEnds(patch []float64, bases []int, wzy []float64, a, b *interpTerm) (first, last float64) {
	ca, cb := 0, 0
	if a.w[0] == 0 {
		ca = 1
	}
	if b.w[0] == 0 {
		cb = 1
	}
	oa, wa, ob, wb := a.off[ca], a.w[ca], b.off[cb], b.w[cb]
	wzy = wzy[:len(bases)]
	for r, base := range bases {
		first += float64(wzy[r] * wa * patch[base+oa])
		last += float64(wzy[r] * wb * patch[base+ob])
	}
	return first, last
}

// interpCells adds to xa the interpolant of consecutive fine cells that have
// both x weights, from the coarse rows at bases with weights wzy, in
// interpCell's order: the face rows' x run, and every row's of a 1-D or 2-D
// grid.
func interpCells(xa []float64, tx []interpTerm, patch []float64, bases []int, wzy []float64) {
	tx, wzy = tx[:len(xa)], wzy[:len(bases)]
	for i := range xa {
		e := &tx[i]
		c, lo, hi := e.off[0], e.w[0], e.w[1]
		v := 0.0
		for r, base := range bases {
			p := patch[base+c:][:2]
			v += float64(wzy[r] * lo * p[0])
			v += float64(wzy[r] * hi * p[1])
		}
		xa[i] += v
	}
}

// interpRun adds to xa, one fine x-row with four coarse rows, the interpolant
// of the cells of the row's x run.  Where the CPU runs the lane kernel
// (useLanes), it hands the cells of t.interpLane to interpLanes, four a step,
// and the rest to interpCells8; the two write the same bits (DESIGN §18
// "Cross-cell lanes").  A step loads four coarse cells and uses three, so on
// the patch's last row the last step may lack the fourth, and then it is left
// to interpCells8 too.
func interpRun(xa []float64, t *transferTables, patch []float64, rows *[4]int, wzy *[4]float64) {
	tx, lo, hi := t.interp[0], t.interpXRun[0], t.interpXRun[1]
	if a, b := t.interpLane[0], t.interpLane[1]; useLanes && a < b {
		c := tx[a].off[0]
		if rows[3]+c+(b-a)/2+2 > len(patch) {
			b -= 4
		}
		if a < b {
			n := (b-a)/2 + 2 // the coarse cells the steps load from each row
			interpCells8(xa[lo:a], tx[lo:a], patch, rows, wzy)
			interpLanes(xa[a:b], patch[rows[0]+c:][:n], patch[rows[1]+c:][:n], patch[rows[2]+c:][:n], patch[rows[3]+c:][:n], wzy, &t.interpLaneW)
			lo = b
		}
	}
	interpCells8(xa[lo:hi], tx[lo:hi], patch, rows, wzy)
}

// interpCells8 adds to xa the interpolant of consecutive fine cells that
// have all eight weights: four coarse rows, two adjacent cells in each.  It is
// the whole run where there is no lane kernel, and the cells of the run
// outside interpLane where there is.
func interpCells8(xa []float64, tx []interpTerm, patch []float64, rows *[4]int, wzy *[4]float64) {
	p0, p1, p2, p3 := patch[rows[0]:], patch[rows[1]:], patch[rows[2]:], patch[rows[3]:]
	w0, w1, w2, w3 := wzy[0], wzy[1], wzy[2], wzy[3]
	tx = tx[:len(xa)]
	for i := range xa {
		e := &tx[i]
		c, lo, hi := e.off[0], e.w[0], e.w[1]
		v := 0.0
		v += float64(w0 * lo * p0[c])
		v += float64(w0 * hi * p0[c+1])
		v += float64(w1 * lo * p1[c])
		v += float64(w1 * hi * p1[c+1])
		v += float64(w2 * lo * p2[c])
		v += float64(w2 * hi * p2[c+1])
		v += float64(w3 * lo * p3[c])
		v += float64(w3 * hi * p3[c+1])
		xa[i] += v
	}
}
