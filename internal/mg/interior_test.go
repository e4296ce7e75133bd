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
