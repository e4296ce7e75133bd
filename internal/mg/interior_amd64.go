//go:build amd64 && !purego

package mg

// useLanes is whether the lane kernels run: interiorCells hands a row of four
// cells or more to interiorLanes, planeCells a plane's band of such rows to
// planeLanes, interpRun its interpLane cells to interpLanes, gatherRun a
// run of sixteen cells or more to restrictLanes, Sum.chunk the first
// len &^ 7 terms of a chunk to maxLanes and foldLanes, axpyCells and
// aypxCells every run to axpyLanes and aypxLanes, and updateRun a run of
// eight cells or more to updateLanes.  It is set where the CPU has AVX2 and
// the OS saves the YMM registers.
var useLanes = cpuHasAVX2()

// cpuHasAVX2 reports whether CPUID's AVX, AVX2 and OSXSAVE bits and XCR0's
// XMM and YMM state bits are all set.
func cpuHasAVX2() bool

// interiorLanes is interiorCells on all len(y) cells, at least four, four a
// step in the lanes of one YMM register: y[i] from cr[i], cr[i+1] and cr[i+2]
// along x and ym[i] … zp[i], and b[i] but in formApply (b may then be nil).
// Where len(y) is not a multiple of four the last step starts four cells
// before the end and stores again up to three cells with the bits the step
// before it stored.  It reads no length but y's: the caller slices cr to at
// least len(y)+2 values and every other source to at least len(y).
//
//go:noescape
func interiorLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64)

// planeLanes is the row form on pr.rows rows of a 3-D plane, in lanes: on
// each row in turn its two end cells, both on x domain faces, one scalar lane
// each as endCell takes them, and its pr.m inner cells, at least four, as
// interiorLanes takes them.  Every source is sliced from the first row's
// first cell, and row r of y, b, cr, ym, yp, zm and zp starts pr.stride[0]
// … pr.stride[6] times r values after that.  It reads no length at all:
// the caller slices every source to end with its last row (planeCells).
//
//go:noescape
func planeLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, pr *planeRows, inv, cu *[3]float64, w float64)

// interpLanes is interpCells8 on len(xa) &^ 3 cells of interpLane, four a
// step in the lanes of one YMM register (transfer_amd64.s): cell i reads
// coarse cells i/2 and i/2+1 of each row p0 … p3, weighted by its row's wzy
// times its lane's wx, lower cell's first.  It reads no length but xa's: the
// caller slices every row to at least len(xa)/2+2 values.
//
//go:noescape
func interpLanes(xa, p0, p1, p2, p3 []float64, wzy *[4]float64, wx *[2][4]float64)

// restrictLanes is restrictRun on a run of at least sixteen cells, sixteen a
// step in four YMM accumulators (transfer_amd64.s); the last step starts
// sixteen cells before the end and may store again what the step before it
// stored.  It reads no length but out's and src's: the caller passes at least
// one row, slices every row of src to at least 2·len(out)+2 values and wx to
// len(src) entries.
//
//go:noescape
func restrictLanes(out []float64, src [][]float64, wx [][4]float64, scale float64)

// maxLanes is the largest |a[i]·b[i]| of len(a) terms, a multiple of eight
// and at least eight, eight a step in two YMM registers (sum_amd64.s).  Unlike
// maxAbsProducts it keeps an infinite product, and it may lose a NaN one; the
// anchor refuses the first and the folds catch the second.  It reads no
// length but a's.
//
//go:noescape
func maxLanes(a, b []float64) float64

// foldLanes is foldGo on len(a) terms, a multiple of eight and at least
// eight, each of eight lanes with accumulators of its own (sum_amd64.s): out
// holds the three folds' changes, exact, and the OR of the bits of every
// third-fold error.  It reads no length but a's.
//
//go:noescape
func foldLanes(a, b []float64, sig *[3]float64, out *[4]float64)

// axpyLanes, aypxLanes and updateLanes are axpyCellsGo, aypxCellsGo and
// updateRunGo on len(y) cells, eight a step in two YMM registers and then one
// a step (vector_amd64.s): each cell one multiply, of the vector's value by
// the scale, and one add with the product first, as the compiled loops have
// them.  They read no length but y's: the caller slices every source to at
// least len(y) values.  updateLanes takes a nil x as updateRun does, the zero
// guess, and then adds +0.
//
//go:noescape
func axpyLanes(y, x []float64, a float64)

//go:noescape
func aypxLanes(y, x []float64, a float64)

//go:noescape
func updateLanes(y, x, r []float64, w float64)
