//go:build !amd64 || purego

package mg

// useLanes is false where no lane kernel is built: interiorCells runs
// interiorCellsGo throughout, interpRun interpCells8, gatherRun restrictRun,
// Sum.chunk maxAbsProducts and foldGo, and axpyCells, aypxCells and updateRun
// axpyCellsGo, aypxCellsGo and updateRunGo.  It is a variable in every build
// so that the kernel benchmarks can run the Go loops on a build that has the
// kernels.
var useLanes = false

// interiorLanes is interiorCellsGo on len(y) cells; interiorCells does not
// call it while useLanes is false.
func interiorLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64) {
	interiorCellsGo(form, y, b, 0, len(y), cr, ym, yp, zm, zp, inv, cu, w)
}

// planeLanes, interpLanes and restrictLanes are not called while useLanes is
// false.
func planeLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, pr *planeRows, inv, cu *[3]float64, w float64) {
	panic("mg: planeLanes without a lane kernel")
}

func interpLanes(xa, p0, p1, p2, p3 []float64, wzy *[4]float64, wx *[2][4]float64) {
	panic("mg: interpLanes without a lane kernel")
}

func restrictLanes(out []float64, src [][]float64, wx [][4]float64, scale float64) {
	panic("mg: restrictLanes without a lane kernel")
}

// maxLanes and foldLanes are not called while useLanes is false.
func maxLanes(a, b []float64) float64 {
	panic("mg: maxLanes without a lane kernel")
}

func foldLanes(a, b []float64, sig *[3]float64, out *[4]float64) {
	panic("mg: foldLanes without a lane kernel")
}

// axpyLanes, aypxLanes and updateLanes are not called while useLanes is
// false.
func axpyLanes(y, x []float64, a float64) {
	panic("mg: axpyLanes without a lane kernel")
}

func aypxLanes(y, x []float64, a float64) {
	panic("mg: aypxLanes without a lane kernel")
}

func updateLanes(y, x, r []float64, w float64) {
	panic("mg: updateLanes without a lane kernel")
}
