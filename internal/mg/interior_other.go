//go:build !amd64 || purego

package mg

// useLanes is false where no lane kernel is built: interiorCells runs
// interiorCellsGo throughout.  It is a variable in every build so that
// BenchmarkStencil can run the Go loop on a build that has the kernel.
var useLanes = false

// interiorLanes is interiorCellsGo on len(y) &^ 3 cells; interiorCells does
// not call it while useLanes is false.
func interiorLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64) {
	interiorCellsGo(form, y, b, 0, len(y)&^3, cr, ym, yp, zm, zp, inv, cu, w)
}
