package dmda

import (
	"testing"

	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// readThroughView fills g's local array from a replicated natural-order
// array through the rank's file view — what a checkpoint restore's sieve
// read does with the file's bytes.
func readThroughView(da *DA, nat []float64, g *petsc.Vec) {
	src, dst := floatbytes.Bytes(nat), floatbytes.Bytes(g.Array())
	local := 0
	for _, seg := range da.NaturalSegments() {
		local += copy(dst[local:], src[seg.Off:seg.Off+seg.Len])
	}
}

// TestGatherScatterNatural: gathering a distributed vector yields the same
// replicated natural-order array on every rank and under every
// decomposition, and reading it back through the file view of a second DA
// reproduces the distributed values — NaturalSegments and GatherNatural
// agree on where every owned value lives.
func TestGatherScatterNatural(t *testing.T) {
	n := []int{12, 10, 6}
	fill := func(da *DA, g *petsc.Vec) {
		own := da.OwnedBox()
		ga := g.Array()
		idx := 0
		for k := own.Lo[2]; k < own.Hi[2]; k++ {
			for j := own.Lo[1]; j < own.Hi[1]; j++ {
				for i := own.Lo[0]; i < own.Hi[0]; i++ {
					for f := 0; f < da.Dof(); f++ {
						ga[idx] = float64(((k*100+j)*100+i)*10 + f)
						idx++
					}
				}
			}
		}
	}
	for _, ranks := range []int{1, 4, 6} {
		w := mpi.NewWorld(simnet.Uniform(ranks, simnet.IBDDR()), mpi.Optimized())
		err := w.Run(func(c *mpi.Comm) error {
			da := New(c, n, 2, StencilStar, 1, petsc.ScatterDatatype)
			g := da.CreateGlobalVec()
			fill(da, g)
			nat := da.GatherNatural(g)

			// The natural array must be decomposition-independent: check
			// against the formula directly.
			for k := 0; k < n[2]; k++ {
				for j := 0; j < n[1]; j++ {
					for i := 0; i < n[0]; i++ {
						for f := 0; f < 2; f++ {
							want := float64(((k*100+j)*100+i)*10 + f)
							if got := nat[da.naturalIndex(i, j, k)+f]; got != want {
								t.Errorf("ranks=%d nat[%d,%d,%d,%d] = %v, want %v", ranks, i, j, k, f, got, want)
								return nil
							}
						}
					}
				}
			}

			// Round-trip through a second DA's file view, as recovery does.
			sub := New(c, n, 2, StencilStar, 1, petsc.ScatterDatatype)
			g2 := sub.CreateGlobalVec()
			readThroughView(sub, nat, g2)
			if nat2 := sub.GatherNatural(g2); len(nat2) != len(nat) {
				t.Errorf("round-trip length mismatch")
			} else {
				for i := range nat {
					if nat[i] != nat2[i] {
						t.Errorf("round-trip differs at %d", i)
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

// TestGatherNaturalAgglomerated: with the decomposition limited to a rank
// subset, idle ranks contribute zero volume and still receive the full
// replicated array.
func TestGatherNaturalAgglomerated(t *testing.T) {
	w := mpi.NewWorld(simnet.Uniform(6, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		da := NewLimited(c, []int{8, 8}, 1, StencilStar, 1, petsc.ScatterDatatype, 2)
		g := da.CreateGlobalVec()
		ga := g.Array()
		for i := range ga {
			ga[i] = float64(c.Rank()*1000 + i)
		}
		nat := da.GatherNatural(g)
		if len(nat) != 64 {
			t.Errorf("natural length %d", len(nat))
		}
		back := da.CreateGlobalVec()
		readThroughView(da, nat, back)
		for i, v := range back.Array() {
			if v != ga[i] {
				t.Errorf("rank %d: value %d lost in round-trip", c.Rank(), i)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
