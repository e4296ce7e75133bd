package mg

import (
	"fmt"
	"math"
	"testing"
)

// vectorKernel is a level-0 vector pass in both forms: lanes runs the lane
// kernel, goLoop the Go loop, on y from the sources x and r (r is read by the
// update alone, and a nil x is the update's zero guess).
type vectorKernel struct {
	name          string
	lanes, goLoop func(y, x, r []float64, a float64)
}

var vectorKernels = []vectorKernel{
	{"axpy",
		func(y, x, _ []float64, a float64) { axpyLanes(y, x, a) },
		func(y, x, _ []float64, a float64) { axpyCellsGo(y, x, a) }},
	{"aypx",
		func(y, x, _ []float64, a float64) { aypxLanes(y, x, a) },
		func(y, x, _ []float64, a float64) { aypxCellsGo(y, x, a) }},
	{"update", updateLanes, updateRunGo},
}

// vectorScales are the scales TestVectorLanesBitwise runs every input under:
// each sign of zero, one, an ordinary value, ω/diag of a 96³ level, a
// subnormal, the largest finite value and infinity.
var vectorScales = []float64{
	0, math.Copysign(0, -1), 1, -1, -0.75, omega / (7 * 9216),
	math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

// checkVectorLanes runs kernel k's lanes and its Go loop on n cells, y with
// two guard cells either side, and compares every bit of y, the guards
// included (laneBitsDiffer).  Source s of y, x and r starts off[s] elements
// past a 32-byte boundary and holds val(s, i) at its i-th value.  The update
// runs from x, from the zero guess (a nil x) and, as a sweep from a known
// state does, with y the residual r it reads.
func checkVectorLanes(k vectorKernel, n int, off [3]int, val func(s, i int) float64, a float64, payloads bool) error {
	const guard = 2
	var src [3][]float64
	for s := range src {
		lead := 0
		if s == 0 {
			lead = guard
		}
		src[s] = alignedRun(lead, n, lead, off[s])
		for i := range src[s] {
			src[s][i] = nanC
		}
		for i := 0; i < n; i++ {
			src[s][lead+i] = val(s, i)
		}
	}
	type form struct {
		name          string
		zero, inPlace bool
	}
	forms := []form{{}}
	if k.name == "update" {
		forms = append(forms, form{" zero guess", true, false}, form{" y = r", false, true})
	}
	for _, f := range forms {
		got, want := append([]float64(nil), src[0]...), append([]float64(nil), src[0]...)
		x, gr, wr := src[1], src[2], src[2]
		if f.zero {
			x = nil
		}
		if f.inPlace {
			copy(got[guard:guard+n], gr)
			copy(want[guard:guard+n], wr)
			gr, wr = got[guard:], want[guard:]
		}
		k.lanes(got[guard:guard+n], x, gr, a)
		k.goLoop(want[guard:guard+n], x, wr, a)
		what := fmt.Sprintf("%s%s, %d cells, offsets %v, scale %v: y (cell i at value i+%d)", k.name, f.name, n, off, a, guard)
		if err := laneBitsDiffer(what, got, want, payloads); err != nil {
			return err
		}
	}
	return nil
}

// TestVectorLanesBitwise holds the three vector lane kernels to their Go
// loops, bit for bit: axpyLanes to axpyCellsGo, aypxLanes to aypxCellsGo and
// updateLanes to updateRunGo, from x, from the zero guess and in place, on
// 0 to 40 cells (every tail length of the eight-cell step, and runs of no
// whole step), with every source starting 0 to 3 elements off a 32-byte
// boundary, under scales of each sign, zero, subnormal and infinite.  Values
// are NaNs of three payloads two in five, laneSpecials otherwise, so that
// where a lane's add took its operands in the other order than the compiled
// loop's, a NaN product meets a NaN of another payload and leaves that one.
// Under the race detector it holds a NaN to any NaN (laneBitsDiffer); CI runs
// it without.
func TestVectorLanesBitwise(t *testing.T) {
	if !useLanes {
		t.Skip(noLanes)
	}
	for _, k := range vectorKernels {
		for n := 0; n <= 40; n++ {
			for rot := 0; rot < 4; rot++ {
				for step := 0; step < 4; step++ {
					var off [3]int
					for s := range off {
						off[s] = (rot + step*s) % 4
					}
					seed := uint64(n<<4 | rot<<2 | step)
					val := func(s, i int) float64 { return transferValue(splitmix64(seed<<8 ^ uint64(s<<6|i))) }
					for _, a := range vectorScales {
						if err := checkVectorLanes(k, n, off, val, a, !raceBuild); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// FuzzVectorLanes holds the three vector lane kernels to their Go loops on up
// to 255 cells: off gives source s its offset from a 32-byte boundary in bits
// 2s and 2s+1, and each byte of seed, read cyclically, picks a laneSpecials
// value or seeds arbitrary bits for one input value and for the scale, which
// is never NaN (a NaN scale becomes 1).  Fuzzing instruments the Go loops, so
// it holds a NaN to any NaN (laneBitsDiffer) and leaves payloads to
// TestVectorLanesBitwise.
func FuzzVectorLanes(f *testing.F) {
	f.Add(uint8(40), uint8(0), []byte{0, 9, 8, 10, 4, 6})
	f.Add(uint8(13), uint8(0x1b), []byte{1, 2, 3, 200, 12, 255})
	f.Add(uint8(255), uint8(0x3f), []byte{8})
	f.Fuzz(func(t *testing.T, n, off uint8, seed []byte) {
		if !useLanes {
			t.Skip(noLanes)
		}
		if len(seed) == 0 {
			t.Skip()
		}
		pick := func(k int) float64 {
			c := seed[k%len(seed)]
			if int(c) < len(laneSpecials) {
				return laneSpecials[c]
			}
			return math.Float64frombits(splitmix64(uint64(c)<<32 ^ uint64(k)))
		}
		var offs [3]int
		for s := range offs {
			offs[s] = int(off>>(2*s)) & 3
		}
		a := pick(3 * 256)
		if math.IsNaN(a) {
			a = 1
		}
		for _, k := range vectorKernels {
			if err := checkVectorLanes(k, int(n), offs, func(s, i int) float64 { return pick(s*256 + i) }, a, false); err != nil {
				t.Fatal(err)
			}
		}
	})
}
