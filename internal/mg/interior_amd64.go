//go:build amd64 && !purego

package mg

// useLanes is whether interiorCells hands its 4-aligned body to
// interiorLanes: the CPU has AVX2 and the OS saves the YMM registers.
var useLanes = cpuHasAVX2()

// cpuHasAVX2 reports whether CPUID's AVX, AVX2 and OSXSAVE bits and XCR0's
// XMM and YMM state bits are all set.
func cpuHasAVX2() bool

// interiorLanes is interiorCells on len(y) &^ 3 cells, four a step in the
// lanes of one YMM register: y[i] for i below that, from cr[i], cr[i+1] and
// cr[i+2] along x and ym[i] … zp[i], and b[i] but in formApply (b may then be
// nil).  It reads no length but y's: the caller slices cr to at least
// len(y)+2 values and every other source to at least len(y).
//
//go:noescape
func interiorLanes(form stencilForm, y, b, cr, ym, yp, zm, zp []float64, inv, cu *[3]float64, w float64)
