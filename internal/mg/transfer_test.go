package mg

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// raceBuild is whether the race detector instruments this build (race_test.go).
var raceBuild bool

// laneBitsDiffer is bitsDiffer where payloads is set, and otherwise holds a
// NaN to any NaN.  The lane kernels leave the payloads the Go loops leave as
// the compiler builds them by default.  Which operand of a commutative add the
// compiler takes first is its choice, and the race detector's and the
// fuzzer's instrumentation change it for some of restrictRun's adds, so there
// the Go loop is no witness of payloads.
func laneBitsDiffer(what string, got, want []float64, payloads bool) error {
	if !payloads {
		got, want = slices.Clone(got), slices.Clone(want)
		for _, a := range [][]float64{got, want} {
			for i, v := range a {
				if math.IsNaN(v) {
					a[i] = math.NaN()
				}
			}
		}
	}
	return bitsDiffer(what, got, want)
}

// transferValue draws an input value of the transfer lane tests from h: two
// in five one of the three NaNs of laneSpecials, so that the sums meet NaNs
// of two payloads often, and otherwise any laneSpecials value.
func transferValue(h uint64) float64 {
	if h%5 < 2 {
		return []float64{nanA, nanB, nanC}[h/5%3]
	}
	return laneSpecials[h/5%uint64(len(laneSpecials))]
}

// checkInterpLanes runs interpRun, which hands the cells of interpLane to the
// lane kernel and the rest of the x run to the Go loop, and interpCells8 alone
// on the same fine row of m cells, and compares the row, two guard cells
// either side included (laneBitsDiffer).  The x run is cells pre to m; fine cell i
// is global index f0+i, so it starts on a pair that shares its lower coarse
// cell where f0 is odd and one cell later where it is even.  Source s (0 the
// fine row, 1 to 4 the coarse rows) starts off[s] elements past a 32-byte
// boundary and holds val(s, i) at its i-th value, and the last coarse row ends
// where the patch and its capacity do, so that a step loading past it panics.
// wp are the x weights of an odd and an even fine index, lower coarse cell's
// first.
func checkInterpLanes(m, pre, f0 int, off [5]int, val func(s, i int) float64, wzy [4]float64, wp [2][2]float64, payloads bool) error {
	const guard = 2
	lower := func(i int) int { return (f0+i-1)/2 - (f0-1)/2 }
	var t transferTables
	tx := make([]interpTerm, m)
	for i := range tx {
		c := lower(i)
		tx[i] = interpTerm{[2]int{c, c + 1}, wp[(f0+i+1)%2]}
	}
	t.interp[0], t.interpXRun = tx, [2]int{min(pre, m), m}
	t.setInterpLane()

	// The coarse rows, each four-aligned in one patch buffer plus its offset.
	cells := 1
	if m > 0 {
		cells = lower(m-1) + 2
	}
	stride := (cells + 7) &^ 3
	buf := alignedRun(0, 4*stride+4, 0, 0)
	var rows [4]int
	for r := range rows {
		rows[r] = r*stride + off[1+r]
		for i := 0; i < cells; i++ {
			buf[rows[r]+i] = val(1+r, i)
		}
	}
	patch := buf[: rows[3]+cells : rows[3]+cells]

	got := alignedRun(guard, m, guard, off[0])
	for i := range got {
		got[i] = val(0, i)
	}
	want := append([]float64(nil), got...)
	interpRun(got[guard:guard+m], &t, patch, &rows, &wzy)
	lo := t.interpXRun[0]
	interpCells8(want[guard+lo:guard+m], tx[lo:], patch, &rows, &wzy)
	return laneBitsDiffer(fmt.Sprintf("interpolation, m %d, run from %d, f0 %d, offsets %v, lanes %v: xa (cell i at value i+%d)",
		m, pre, f0, off, t.interpLane, guard), got, want, payloads)
}

// checkRestrictLanes runs gatherRun, which hands a run of sixteen cells or
// more to the lane kernel and a shorter one to the Go loop, and restrictRun
// alone on the same n coarse cells gathered from nr fine rows, and compares
// out, two guard cells either side included (laneBitsDiffer).  out starts off[0]
// elements past a 32-byte boundary and fine row r off[1+r], holding val(s, i)
// at its i-th value (s 0 for out, 1+r for row r).
func checkRestrictLanes(n, nr int, off [17]int, val func(s, i int) float64, wx [][4]float64, scale float64, payloads bool) error {
	const guard = 2
	src := make([][]float64, nr)
	for r := range src {
		src[r] = alignedRun(0, 2*n+2, 0, off[1+r])
		for i := range src[r] {
			src[r][i] = val(1+r, i)
		}
	}
	got := alignedRun(guard, n, guard, off[0])
	for i := range got {
		got[i] = val(0, i)
	}
	want := append([]float64(nil), got...)
	gatherRun(got[guard:guard+n], append([][]float64(nil), src...), wx[:nr], scale)
	restrictRun(want[guard:guard+n], src, wx[:nr], scale)
	return laneBitsDiffer(fmt.Sprintf("restriction, %d cells, %d rows, offsets %v: out (cell i at value i+%d)", n, nr, off[:1+nr], guard), got, want, payloads)
}

// transferWeights are the weight sets of TestTransferLanesBitwise: a level's
// own (wzy products of 0.25, 0.5, 0.75 and 1; x weights 0.75/0.25), and
// extremes that turn finite values into infinities, zeros and subnormals, and
// an infinite weight times a zero value into the default NaN.  No set holds
// both an infinity and a zero, so no weight, nor the product of two that
// interpLanes forms, is NaN: a level's weights never are, and where one
// operand of a multiply is not NaN its order cannot show (the compiled
// restrictRun itself multiplies in both orders).
var transferWeights = [][4]float64{
	{0.5625, 0.1875, 0.1875, 0.0625},
	{math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), -0.75},
	{-2.5e300, 3.0e-300, math.Copysign(0, -1), 1.0 / 3},
}

// TestTransferLanesBitwise holds both transfer lane kernels to their Go loops,
// bit for bit: interpLanes to interpCells8 on fine rows of 0 to 40 cells,
// every phase of the run against the pairs of fine cells, and restrictLanes to
// restrictRun on runs of 4, 15, 16, 17, 31, 32 and 46 cells (the 4-wide Go
// loop, one step and a restart that overlaps it) from 1, 4, 9, 12 and 16 fine
// rows, with every source starting 0 to 3 elements off a 32-byte boundary.
// Values are NaNs of three payloads two in five, laneSpecials otherwise, so
// that where the lanes' operand order differs from the compiled loop's in any
// add, two NaNs meet there and leave the other payload.  Under the race
// detector it holds a NaN to any NaN (laneBitsDiffer); CI runs it without.
func TestTransferLanesBitwise(t *testing.T) {
	if !useLanes {
		t.Skip(noLanes)
	}
	for m := 0; m <= 40; m++ {
		for rot := 0; rot < 4; rot++ {
			for step := 0; step < 4; step++ {
				var off [5]int
				for s := range off {
					off[s] = (rot + step*s) % 4
				}
				seed := uint64(m<<4 | rot<<2 | step)
				val := func(s, i int) float64 { return transferValue(splitmix64(seed<<8 ^ uint64(s<<6|i))) }
				for k, w := range transferWeights {
					wp := [2][2]float64{{0.75, 0.25}, {0.25, 0.75}}
					if k > 0 {
						wp = [2][2]float64{{w[1], w[2]}, {w[3], w[0]}}
					}
					for pre := 0; pre < 2; pre++ {
						for f0 := 1; f0 <= 2; f0++ {
							if err := checkInterpLanes(m, pre, f0, off, val, w, wp, !raceBuild); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
	for _, n := range []int{4, 15, 16, 17, 31, 32, 46} {
		for _, nr := range []int{1, 4, 9, 12, 16} {
			for rot := 0; rot < 4; rot++ {
				var off [17]int
				for s := range off {
					off[s] = (rot + s + s/4) % 4
				}
				seed := uint64(n<<8 | nr<<2 | rot)
				val := func(s, i int) float64 { return transferValue(splitmix64(seed<<12 ^ uint64(s<<7|i))) }
				for k := range transferWeights {
					wx := make([][4]float64, nr)
					for r := range wx {
						for c := range wx[r] {
							wx[r][c] = transferWeights[k][(r+c)%4]
						}
					}
					if err := checkRestrictLanes(n, nr, off, val, wx, 0.125, !raceBuild); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// FuzzTransferLanes holds both transfer lane kernels to their Go loops: an
// interpolation row of m mod 64 cells, run and phase from bits 6 and 7 of m,
// and a restriction run of 4 + m mod 60 cells from 1 + rows mod 16 fine rows.
// off gives source s its offset from a 32-byte boundary in bits 2s and 2s+1
// (out or xa is source 0), and each byte of seed, read cyclically, picks a
// laneSpecials value or seeds arbitrary bits for one input value and for the
// weights and scale.  A NaN weight becomes 1, and an infinite interpolation
// weight ±MaxFloat64, so that no product of two of them is NaN either (see
// transferWeights).  Fuzzing instruments the Go loops, so it holds a NaN to any
// NaN (laneBitsDiffer) and leaves payloads to TestTransferLanesBitwise.
func FuzzTransferLanes(f *testing.F) {
	f.Add(uint8(40), uint8(15), uint64(0), []byte{0, 9, 8, 10, 4, 6})
	f.Add(uint8(0x80|13), uint8(11), uint64(0x1b1b1b1b1b), []byte{1, 2, 3, 200, 12, 255})
	f.Add(uint8(0xc0|42), uint8(3), uint64(0x3ffffffff), []byte{8})
	f.Fuzz(func(t *testing.T, m, rows uint8, off uint64, seed []byte) {
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
		weight := func(k int) float64 {
			if w := pick(k); !math.IsNaN(w) {
				return w
			}
			return 1
		}
		var offs [17]int
		for s := range offs {
			offs[s] = int(off>>(2*s)) & 3
		}
		val := func(s, i int) float64 { return pick(s*100 + i) }

		finite := func(k int) float64 {
			if w := weight(k); !math.IsInf(w, 0) {
				return w
			}
			return math.Copysign(math.MaxFloat64, pick(k))
		}
		var wzy [4]float64
		var wp [2][2]float64
		for j := range wzy {
			wzy[j], wp[j/2][j%2] = finite(2000+j), finite(2010+j)
		}
		if err := checkInterpLanes(int(m%64), int(m>>6&1), 1+int(m>>7), [5]int(offs[:5]), val, wzy, wp, false); err != nil {
			t.Fatal(err)
		}

		nr := 1 + int(rows%16)
		wx := make([][4]float64, nr)
		for r := range wx {
			for c := range wx[r] {
				wx[r][c] = weight(2100 + 4*r + c)
			}
		}
		if err := checkRestrictLanes(4+int(m%60), nr, offs, val, wx, weight(2200), false); err != nil {
			t.Fatal(err)
		}
	})
}
