package mg

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// The NaNs of laneSpecials: three payloads, the last signalling.  Where an
// add, subtract or multiply meets two NaNs x86 returns its first source's
// payload, so a lane that swapped the operands of any of them would leave a
// different NaN than the scalar loop leaves.
var (
	nanA = math.Float64frombits(0x7ff8000000000a0a)
	nanB = math.Float64frombits(0xfff80000000b0b0b)
	nanC = math.Float64frombits(0x7ff00000000c0c0c)
)

// noLanes is why the lane tests skip where useLanes is false.
const noLanes = "no lane kernel: not an amd64 build with AVX2 (purego, another GOARCH, or a CPU without it)"

// laneSpecials are the values whose bits a lane could get wrong where the
// scalar loop does not, the ones above among ordinary values.
var laneSpecials = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, nanA, nanB, nanC,
	1, -0.75, 3.0e-300, -2.5e300, 1.0 / 3,
}

// alignedRun returns lead+n+trail values whose element lead starts off
// elements past a 32-byte boundary.
func alignedRun(lead, n, trail, off int) []float64 {
	total := lead + n + trail
	buf := make([]float64, total+lead+8)
	k := lead
	for uintptr(unsafe.Pointer(&buf[k]))%32 != 0 {
		k++
	}
	at := k + off - lead
	return buf[at : at+total : at+total]
}

// checkLanes runs interiorCells, which hands m cells to the lane kernel where m
// is at least four (its last step overlapping the one before where m is not a
// multiple of four) and to the Go loop otherwise, and interiorCellsGo alone on
// the same m cells in every form, and compares every
// bit of y, two guard cells either side included.  Source s of y, b, cr, ym,
// yp, zm and zp starts off[s] elements past a 32-byte boundary (y and b at
// their first cell, cr at the first cell's west neighbour) and holds val(s, i)
// at its i-th value; coef is inv, cu, then ω/diag.
func checkLanes(m int, off [7]int, val func(s, i int) float64, coef [7]float64) error {
	const guard = 2
	lens := [7]int{m, m, m + 2, m, m, m, m}
	var src [7][]float64
	for s := range src {
		lead := 0
		if s < 2 {
			lead = guard
		}
		src[s] = alignedRun(lead, lens[s], lead, off[s])
		for i := range src[s][lead : lead+lens[s]] {
			src[s][lead+i] = val(s, i)
		}
	}
	b, cr, ym, yp, zm, zp := src[1], src[2], src[3], src[4], src[5], src[6]
	inv, cu := [3]float64{coef[0], coef[1], coef[2]}, [3]float64{coef[3], coef[4], coef[5]}
	for _, form := range []stencilForm{formApply, formResidual, formJacobi} {
		got, want := src[0], append([]float64(nil), src[0]...)
		for i := range got {
			got[i], want[i] = nanC, nanC
		}
		interiorCells(form, got, b, guard, m, cr, ym, yp, zm, zp, &inv, &cu, coef[6])
		interiorCellsGo(form, want, b, guard, m, cr, ym, yp, zm, zp, &inv, &cu, coef[6])
		if err := bitsDiffer(fmt.Sprintf("form %d, m %d, offsets %v: y (cell i at value i+%d)", form, m, off, guard), got, want); err != nil {
			return err
		}
	}
	return nil
}

// TestInteriorLanesBitwise holds the lane kernel to the Go loop, bit for bit,
// in every form, for 0 to 19 cells (every tail length, the lane kernel's
// first cell in every lane), with every source starting 0 to 3 elements off a
// 32-byte boundary.  Cells take laneSpecials values but for two planted in
// every five.  Cell 1 (mod 5) has nanB as its west neighbour and ym, nanA as
// u and nanC as b: the accumulator is nanB when the product t0·nanA meets it,
// nanA when the product of nanB and i1 does, and b − acc and the Jacobi
// update each meet two NaNs.  Cell 3 has nanB as its west neighbour and +0 as
// u, which, under coefficients with one of t0, t1, t2 infinite, makes that
// centre product the only NaN to meet the accumulator's nanB: the one add
// whose order a NaN u hides behind the next centre add.  So every operand
// order the lanes share with the scalar loop shows in y.
func TestInteriorLanesBitwise(t *testing.T) {
	if !useLanes {
		t.Skip(noLanes)
	}
	inf := math.Inf(1)
	coefs := [][7]float64{
		{9216, 9216, 9216, 2 * 9216, 3 * 9216, 2 * 9216, omega / (7 * 9216)},
		{math.MaxFloat64, math.SmallestNonzeroFloat64, inf, 1.0 / 3, math.Copysign(0, -1), -7.5e-310, -2},
		{1, 1, 1, inf, 1, 1, 0.5},
		{1, 1, 1, 1, inf, 1, 0.5},
		{1, 1, 1, 1, 1, inf, 0.5},
	}
	for m := 0; m < 20; m++ {
		for rot := 0; rot < 4; rot++ {
			for step := 0; step < 4; step++ {
				var off [7]int
				for s := range off {
					off[s] = (rot + step*s) % 4
				}
				seed := uint64(m<<4 | rot<<2 | step)
				val := func(s, i int) float64 {
					switch {
					case s == 2 && (i%5 == 1 || i%5 == 3): // the west neighbour of cells 1 and 3 (mod 5)
						return nanB
					case s == 2 && i%5 == 2: // u of cell 1
						return nanA
					case s == 2 && i%5 == 4: // u of cell 3
						return 0
					case s == 3 && i%5 == 1: // ym of cell 1
						return nanB
					case s == 1 && i%5 == 1: // b of cell 1
						return nanC
					}
					return laneSpecials[splitmix64(seed<<8^uint64(s<<6|i))%uint64(len(laneSpecials))]
				}
				for _, c := range coefs {
					if err := checkLanes(m, off, val, c); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// FuzzInteriorLanes holds the lane kernel to the Go loop on up to 64 cells
// in every form: off gives source s its offset from a 32-byte boundary in
// bits 2s and 2s+1, and each byte of seed, read cyclically, picks a
// laneSpecials value or seeds arbitrary bits for one input value and for the
// seven coefficients, which are never NaN (a NaN coefficient becomes 1).
func FuzzInteriorLanes(f *testing.F) {
	f.Add(uint8(19), uint16(0), []byte{0, 9, 8, 10, 4, 6})
	f.Add(uint8(8), uint16(0x1b1b), []byte{1, 2, 3, 200, 12, 255})
	f.Add(uint8(61), uint16(0x3fff), []byte{8})
	f.Fuzz(func(t *testing.T, m uint8, off uint16, seed []byte) {
		if !useLanes {
			t.Skip(noLanes)
		}
		if len(seed) == 0 || m > 64 {
			t.Skip()
		}
		pick := func(k int) float64 {
			c := seed[k%len(seed)]
			if int(c) < len(laneSpecials) {
				return laneSpecials[c]
			}
			return math.Float64frombits(splitmix64(uint64(c)<<32 ^ uint64(k)))
		}
		var offs [7]int
		for s := range offs {
			offs[s] = int(off>>(2*s)) & 3
		}
		var coef [7]float64
		for j := range coef {
			if coef[j] = pick(7*66 + j); math.IsNaN(coef[j]) {
				coef[j] = 1
			}
		}
		if err := checkLanes(int(m), offs, func(s, i int) float64 { return pick(s*66 + i) }, coef); err != nil {
			t.Fatal(err)
		}
	})
}

// checkPlane runs planeCells on rows rows of m inner cells, at least four,
// and two end cells in every form, and the row form's Go code on the same
// rows one at a time, endCell on the end cells with +0 outside them and
// interiorCellsGo on the inner ones, and compares every bit of y: the guard
// cells before the first row, between the rows and after the last included.
// Every source starts at a row's first cell; source s of y, b, cr, ym, yp,
// zm and zp advances stride[s] values a row (0 reads one row for every row,
// as the row of zeros is read) and starts off[s] elements past a 32-byte
// boundary; val(s, r, i) is value i of its row r, later rows overwriting
// earlier ones where rows overlap.  y's stride must be at least m+2.  coef
// is inv, the inner cu, the inner ω/diag, the west end's cu and ω/diag, then
// the east end's.
func checkPlane(m, rows int, stride, off [7]int, val func(s, r, i int) float64, coef [15]float64) error {
	const guard = 2
	var src [7][]float64
	var lead [7]int
	for s := range src {
		if s < 2 {
			lead[s] = guard
		}
		src[s] = alignedRun(lead[s], (rows-1)*stride[s]+m+2, lead[s], off[s])
		for r := 0; r < rows; r++ {
			for i := 0; i < m+2; i++ {
				src[s][lead[s]+r*stride[s]+i] = val(s, r, i)
			}
		}
	}
	at := func(s, r int) []float64 { return src[s][lead[s]+r*stride[s]:] }
	pr := planeRows{m: m, rows: rows, stride: stride}
	pr.cu = [2][3]float64{{coef[7], coef[8], coef[9]}, {coef[11], coef[12], coef[13]}}
	pr.w = [2]float64{coef[10], coef[14]}
	inv, cu := [3]float64{coef[0], coef[1], coef[2]}, [3]float64{coef[3], coef[4], coef[5]}
	cw, ce := faceCoef{cu: pr.cu[0]}, faceCoef{cu: pr.cu[1]}
	for _, form := range []stencilForm{formApply, formResidual, formJacobi} {
		got, want := src[0], append([]float64(nil), src[0]...)
		for i := range got {
			got[i], want[i] = nanC, nanC
		}
		var b []float64
		if form != formApply {
			b = at(1, 0)
		}
		planeCells(form, got[guard:], b, at(2, 0), at(3, 0), at(4, 0), at(5, 0), at(6, 0), &pr, &inv, &cu, coef[6])
		for r := 0; r < rows; r++ {
			y, br, cr := want[guard+r*stride[0]:], at(1, r), at(2, r)
			ym, yp, zm, zp := at(3, r), at(4, r), at(5, r), at(6, r)
			e := m + 1
			endCell(form, y, br, 0, cr[0], 0, cr[1], ym[0], yp[0], zm[0], zp[0], &inv, &cw, pr.w[0])
			endCell(form, y, br, e, cr[e], cr[e-1], 0, ym[e], yp[e], zm[e], zp[e], &inv, &ce, pr.w[1])
			interiorCellsGo(form, y, br, 1, m, cr, ym[1:], yp[1:], zm[1:], zp[1:], &inv, &cu, coef[6])
		}
		what := fmt.Sprintf("form %d, %d rows of %d inner cells, strides %v, offsets %v: y (row r's cell i at value %d+r·%d+i)", form, rows, m, stride, off, guard, stride[0])
		if err := bitsDiffer(what, got, want); err != nil {
			return err
		}
	}
	return nil
}

// planeLaneCoefs are the inner cells' coefficients TestPlaneLanesBitwise
// runs every input under, TestInteriorLanesBitwise's: inv, cu, then ω/diag of
// a 96³ level, extremes, and each centre coefficient infinite in turn.
var planeLaneCoefs = [][7]float64{
	{9216, 9216, 9216, 2 * 9216, 3 * 9216, 2 * 9216, omega / (7 * 9216)},
	{math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), 1.0 / 3, math.Copysign(0, -1), -7.5e-310, -2},
	{1, 1, 1, math.Inf(1), 1, 1, 0.5},
	{1, 1, 1, 1, math.Inf(1), 1, 0.5},
	{1, 1, 1, 1, 1, math.Inf(1), 0.5},
}

// planeCoefs extends the coefficients c of planeLaneCoefs to checkPlane's:
// the west end cell's cu is the inner one's rotated by one and its ω/diag
// twice the inner one's, the east's rotated by two and a quarter.
func planeCoefs(c [7]float64) (out [15]float64) {
	copy(out[:], c[:])
	for d := 0; d < 3; d++ {
		out[7+d], out[11+d] = c[3+(d+1)%3], c[3+(d+2)%3]
	}
	out[10], out[14] = 2*c[6], c[6]/4
	return out
}

// TestPlaneLanesBitwise holds the plane entry, planeCells, to the row form's
// Go code a row at a time, bit for bit, in every form: one row and many,
// rows of 4 to 13 inner cells and of 16 and 17 (four cells and every tail
// length), each source 0 to 3 elements off a 32-byte boundary, and every z-
// and y-neighbour source at an owned stride, at a longer ghost stride, or at
// stride 0 as the row of zeros is read.  On even rows the values are
// TestInteriorLanesBitwise's planted NaNs and +0 around the inner cells, so
// every operand order shows in y there; elsewhere laneSpecials fill one cell
// of four and ordinary values the rest, so that on odd rows, where nothing
// is planted, a row read from the wrong place shows too.
func TestPlaneLanesBitwise(t *testing.T) {
	if !useLanes {
		t.Skip(noLanes)
	}
	ms := []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17}
	for _, m := range ms {
		for _, rows := range []int{1, 2, 3, 5} {
			owned, ghost := m+2, m+7 // the owned layout's row and a wider ghosted one
			for kinds := 0; kinds < 81; kinds++ {
				// ym, yp, zm and zp each owned, ghost or the zero row.
				stride := [7]int{owned, owned, owned}
				for s, k := 3, kinds; s < 7; s, k = s+1, k/3 {
					stride[s] = [3]int{owned, ghost, 0}[k%3]
				}
				var off [7]int
				for s := range off {
					off[s] = (kinds + m*s) % 4
				}
				seed := uint64(m<<12 | rows<<8 | kinds)
				val := func(s, r, i int) float64 {
					c := i - 1 // the inner cell at value i of every source but cr
					switch {
					case r%2 == 1: // no planted value: every inner cell has a NaN x-neighbour on the other rows
					case s == 2 && (i%5 == 1 || i%5 == 3): // the west neighbour of inner cells 1 and 3 (mod 5)
						return nanB
					case s == 2 && i%5 == 2: // u of inner cell 1
						return nanA
					case s == 2 && i%5 == 4: // u of inner cell 3
						return 0
					case s == 3 && c%5 == 1: // ym of inner cell 1
						return nanB
					case s == 1 && c%5 == 1: // b of inner cell 1
						return nanC
					}
					h := splitmix64(seed<<16 ^ uint64(s<<12|r<<8|i))
					if h%4 == 0 {
						return laneSpecials[h/4%uint64(len(laneSpecials))]
					}
					return float64(h>>11)/(1<<52) - 1
				}
				for _, c := range planeLaneCoefs {
					if err := checkPlane(m, rows, stride, off, val, planeCoefs(c)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// FuzzPlaneLanes holds the plane entry to the row form's Go code a row at a
// time on up to 8 rows of 4 to 64 inner cells in every form: bits 2s and
// 2s+1 of kinds give ym, yp, zm and zp an owned stride (0, 3), a ghost
// stride wider by extra%16+1 (1) or stride 0 (2); off gives source s its offset from a 32-byte boundary in
// bits 2s and 2s+1, and seed picks the values and the coefficients, of both
// end classes too, as in FuzzInteriorLanes.
func FuzzPlaneLanes(f *testing.F) {
	f.Add(uint8(19), uint8(3), uint16(0x133), uint8(4), uint16(0), []byte{0, 9, 8, 10, 4, 6})
	f.Add(uint8(4), uint8(1), uint16(0x154), uint8(0), uint16(0x1b1b), []byte{1, 2, 3, 200, 12, 255})
	f.Add(uint8(61), uint8(8), uint16(0x49), uint8(9), uint16(0x3fff), []byte{8})
	f.Fuzz(func(t *testing.T, m, rows uint8, kinds uint16, extra uint8, off uint16, seed []byte) {
		if !useLanes {
			t.Skip(noLanes)
		}
		if len(seed) == 0 || m < 4 || m > 64 || rows == 0 || rows > 8 {
			t.Skip()
		}
		pick := func(k int) float64 {
			c := seed[k%len(seed)]
			if int(c) < len(laneSpecials) {
				return laneSpecials[c]
			}
			return math.Float64frombits(splitmix64(uint64(c)<<32 ^ uint64(k)))
		}
		owned := int(m) + 2
		stride := [7]int{owned, owned, owned}
		for s := 3; s < 7; s++ {
			switch kinds >> (2 * (s - 3)) & 3 {
			case 1:
				stride[s] = owned + int(extra%16) + 1
			case 2:
				stride[s] = 0
			default:
				stride[s] = owned
			}
		}
		var offs [7]int
		for s := range offs {
			offs[s] = int(off>>(2*s)) & 3
		}
		var coef [15]float64
		for j := range coef {
			if coef[j] = pick(7*66 + j); math.IsNaN(coef[j]) {
				coef[j] = 1
			}
		}
		val := func(s, r, i int) float64 { return pick(s*66 + r*7 + i) }
		if err := checkPlane(int(m), int(rows), stride, offs, val, coef); err != nil {
			t.Fatal(err)
		}
	})
}
