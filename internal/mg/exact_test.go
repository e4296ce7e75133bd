package mg

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// FuzzExactCoarseSolve draws a one-level grid from its arguments, 1-3
// dimensions of 1-20 cells each (one extent byte a dimension), on one or two
// ranks (every level on every rank, so that two ranks gather the level), and a
// right-hand side of two bytes a cell, a signed 16-bit count of 1/256 (zero
// past the bytes given).  The exact coarse solve under conjugate gradients
// must leave a backward error ‖b − A x‖∞ of at most 1e-12·‖A‖∞·‖x‖∞, A applied
// through applyLevel, ‖A‖∞ = 4·Σ_d inv[d] (every row of T_d sums to 4 in
// absolute value).  The coarse conjugate gradients it replaced stopped at a
// relative residual of 1e-10.
func FuzzExactCoarseSolve(f *testing.F) {
	f.Add([]byte{11, 11, 11}, uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0}, uint8(1), []byte{})
	f.Add([]byte{19, 0, 6}, uint8(2), []byte{0xff, 0x7f, 0, 0x80, 0, 0, 9})
	f.Add([]byte{2, 19}, uint8(2), []byte{9, 9, 200, 3})
	f.Add([]byte{19, 19, 19}, uint8(1), []byte{0xff, 0x7f})
	f.Fuzz(func(t *testing.T, ext []byte, np uint8, rhs []byte) {
		if len(ext) < 1 || len(ext) > 3 || np < 1 || np > 2 {
			t.Skip()
		}
		k := kernelShape{np: int(np), levels: 1, minCells: 1, mode: petsc.ScatterHandTuned, cfg: mpi.Optimized()}
		for _, e := range ext {
			k.n = append(k.n, int(e)%20+1)
		}
		if !k.feasible() {
			t.Skip()
		}
		runWorld(t, k.np, k.cfg, func(c *mpi.Comm) error {
			s := k.solver(c)
			b, x, ax := s.CreateVec(), s.CreateVec(), s.CreateVec()
			lo, _ := b.Range()
			ba := b.Array()
			for i := range ba {
				if g := 2 * (lo + i); g+1 < len(rhs) {
					ba[i] = float64(int16(binary.LittleEndian.Uint16(rhs[g:]))) / 256
				}
			}
			s.coarseSolve(0, b, x)
			s.applyLevel(0, x, ax)
			res, xn := 0.0, 0.0
			for i, v := range x.Array() {
				res = max(res, math.Abs(ba[i]-ax.Array()[i]))
				xn = max(xn, math.Abs(v))
			}
			res, xn = c.AllreduceScalar(res, mpi.OpMax), c.AllreduceScalar(xn, mpi.OpMax)
			norm := 0.0
			for d := range s.dim {
				norm += 4 * s.levels[0].inv[d]
			}
			if !(res <= 1e-12*norm*xn) {
				return fmt.Errorf("%v: ‖b − A x‖∞ = %g, bound 1e-12·‖A‖∞·‖x‖∞ = %g", k.n, res, 1e-12*norm*xn)
			}
			return nil
		})
	})
}
