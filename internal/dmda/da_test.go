package dmda

import (
	"fmt"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

func runWorld(t *testing.T, n int, cfg mpi.Config, f func(c *mpi.Comm) error) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
	if err := w.Run(f); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFactorGrid(t *testing.T) {
	cases := []struct {
		size, dim int
		n         [3]int
		wantProd  int
	}{
		{1, 3, [3]int{10, 10, 10}, 1},
		{8, 3, [3]int{10, 10, 10}, 8},
		{12, 3, [3]int{100, 100, 100}, 12},
		{7, 2, [3]int{50, 50, 1}, 7},
		{6, 1, [3]int{60, 1, 1}, 6},
		{128, 3, [3]int{100, 100, 100}, 128},
	}
	for _, c := range cases {
		p := FactorGrid(c.size, c.dim, c.n)
		if p[0]*p[1]*p[2] != c.wantProd {
			t.Errorf("FactorGrid(%d,%d,%v) = %v, product %d", c.size, c.dim, c.n, p, p[0]*p[1]*p[2])
		}
		for d := 0; d < 3; d++ {
			if p[d] > c.n[d] {
				t.Errorf("FactorGrid(%d,%d,%v) = %v oversplits dim %d", c.size, c.dim, c.n, p, d)
			}
		}
	}
	// A cube on 8 ranks should be split 2x2x2.
	if p := FactorGrid(8, 3, [3]int{64, 64, 64}); p != [3]int{2, 2, 2} {
		t.Errorf("cube factorization = %v, want 2x2x2", p)
	}
}

func TestFactorGridInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FactorGrid(64, 1, [3]int{10, 1, 1}) // 64 ranks cannot split 10 cells
}

func TestBoxOps(t *testing.T) {
	a := Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{4, 3, 2}}
	if a.Cells() != 24 || a.Empty() {
		t.Fatalf("box cells = %d", a.Cells())
	}
	b := Box{Lo: [3]int{2, 1, 0}, Hi: [3]int{6, 5, 2}}
	iv := a.Intersect(b)
	if iv.Cells() != 2*2*2 {
		t.Fatalf("intersection cells = %d", iv.Cells())
	}
	empty := a.Intersect(Box{Lo: [3]int{9, 9, 9}, Hi: [3]int{10, 10, 10}})
	if !empty.Empty() || empty.Cells() != 0 {
		t.Fatal("disjoint boxes should intersect empty")
	}
}

func TestDAPartitionCoversDomain(t *testing.T) {
	for _, np := range []int{1, 2, 4, 6} {
		runWorld(t, np, mpi.Optimized(), func(c *mpi.Comm) error {
			da := New(c, []int{13, 9, 7}, 2, StencilStar, 1, petsc.ScatterHandTuned)
			// Sum of owned cells over ranks must equal the grid volume.
			total := c.AllreduceScalar(float64(da.OwnedCount()), mpi.OpSum)
			if int(total) != 13*9*7*2 {
				return fmt.Errorf("np=%d: owned total %v", np, total)
			}
			g := da.CreateGlobalVec()
			if g.GlobalSize() != 13*9*7*2 {
				return fmt.Errorf("global vec size %d", g.GlobalSize())
			}
			return nil
		})
	}
}

// fillGlobal writes a recognizable value for each (i,j,k,f) into the global
// vector: v = ((i*1000 + j)*1000 + k)*10 + f.
func cellValue(i, j, k, f int) float64 {
	return float64(((i*1000+j)*1000+k)*10 + f)
}

func fillGlobal(da *DA, g *petsc.Vec) {
	a := g.Array()
	own := da.OwnedBox()
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				for f := 0; f < da.Dof(); f++ {
					a[da.OwnedIndex(i, j, k, f)] = cellValue(i, j, k, f)
				}
			}
		}
	}
}

// checkGhosts verifies that after GlobalToLocal every point of the ghosted
// region that the stencil guarantees holds its global value.
func checkGhosts(da *DA, l []float64) error {
	own, ghost := da.OwnedBox(), da.GhostBox()
	for k := ghost.Lo[2]; k < ghost.Hi[2]; k++ {
		for j := ghost.Lo[1]; j < ghost.Hi[1]; j++ {
			for i := ghost.Lo[0]; i < ghost.Hi[0]; i++ {
				// Star stencils leave corner/edge ghost regions (offset in
				// more than one dimension) undefined.
				out := 0
				if i < own.Lo[0] || i >= own.Hi[0] {
					out++
				}
				if j < own.Lo[1] || j >= own.Hi[1] {
					out++
				}
				if k < own.Lo[2] || k >= own.Hi[2] {
					out++
				}
				if da.Stencil() == StencilStar && out > 1 {
					continue
				}
				for f := 0; f < da.Dof(); f++ {
					got := l[da.LocalIndex(i, j, k, f)]
					if got != cellValue(i, j, k, f) {
						return fmt.Errorf("ghost (%d,%d,%d,%d) = %v, want %v",
							i, j, k, f, got, cellValue(i, j, k, f))
					}
				}
			}
		}
	}
	return nil
}

func TestGlobalToLocalAllStencilsModesDims(t *testing.T) {
	type tc struct {
		name    string
		np      int
		n       []int
		dof     int
		stencil StencilType
		width   int
		mode    petsc.ScatterMode
	}
	var cases []tc
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		for _, st := range []StencilType{StencilStar, StencilBox} {
			cases = append(cases,
				tc{fmt.Sprintf("1d-%v-%v", st, mode), 4, []int{23}, 1, st, 2, mode},
				tc{fmt.Sprintf("2d-%v-%v", st, mode), 6, []int{17, 11}, 2, st, 1, mode},
				tc{fmt.Sprintf("3d-%v-%v", st, mode), 8, []int{9, 8, 7}, 1, st, 1, mode},
				tc{fmt.Sprintf("3d-w2-%v-%v", st, mode), 4, []int{12, 10, 8}, 3, st, 2, mode},
			)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, cfg := range []mpi.Config{mpi.Baseline(), mpi.Optimized()} {
				runWorld(t, c.np, cfg, func(comm *mpi.Comm) error {
					da := New(comm, c.n, c.dof, c.stencil, c.width, c.mode)
					g := da.CreateGlobalVec()
					fillGlobal(da, g)
					l := da.CreateLocalArray()
					da.GlobalToLocal(g, l)
					return checkGhosts(da, l)
				})
			}
		})
	}
}

func TestGhostUpdateRepeats(t *testing.T) {
	// The ghost scatter must be reusable with changing data.
	runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
		da := New(c, []int{16, 16}, 1, StencilStar, 1, petsc.ScatterDatatype)
		g := da.CreateGlobalVec()
		l := da.CreateLocalArray()
		for round := 1; round <= 3; round++ {
			g.SetFromFunc(func(i int) float64 { return float64(i * round) })
			da.GlobalToLocal(g, l)
		}
		return nil
	})
}

func TestSingleRankDA(t *testing.T) {
	runWorld(t, 1, mpi.Baseline(), func(c *mpi.Comm) error {
		da := New(c, []int{5, 5, 5}, 1, StencilBox, 1, petsc.ScatterHandTuned)
		if da.GhostCount() != da.OwnedCount() {
			return fmt.Errorf("single rank should have no ghosts")
		}
		g := da.CreateGlobalVec()
		fillGlobal(da, g)
		l := da.CreateLocalArray()
		da.GlobalToLocal(g, l)
		return checkGhosts(da, l)
	})
}

func TestDAValidation(t *testing.T) {
	runWorld(t, 2, mpi.Baseline(), func(c *mpi.Comm) error {
		mustPanic := func(name string, f func()) error {
			defer func() { recover() }()
			f()
			return fmt.Errorf("%s: expected panic", name)
		}
		for name, f := range map[string]func(){
			"bad dim":   func() { New(c, []int{1, 2, 3, 4}, 1, StencilStar, 1, petsc.ScatterHandTuned) },
			"bad dof":   func() { New(c, []int{8}, 0, StencilStar, 1, petsc.ScatterHandTuned) },
			"bad width": func() { New(c, []int{8}, 1, StencilStar, -1, petsc.ScatterHandTuned) },
			"bad size":  func() { New(c, []int{0}, 1, StencilStar, 1, petsc.ScatterHandTuned) },
		} {
			if err := mustPanic(name, f); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestPatchScatter(t *testing.T) {
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
			da := New(c, []int{12, 12}, 1, StencilStar, 1, mode)
			g := da.CreateGlobalVec()
			fillGlobal(da, g)

			// Every rank requests a patch around its owned box, expanded by
			// 3 cells (more than the stencil width, crossing multiple
			// owners), deliberately unclamped to exercise clamping.
			own := da.OwnedBox()
			want := Box{
				Lo: [3]int{own.Lo[0] - 3, own.Lo[1] - 3, 0},
				Hi: [3]int{own.Hi[0] + 3, own.Hi[1] + 3, 1},
			}
			sc, got := da.NewPatchScatter(want)
			patch := make([]float64, got.Cells()*da.Dof())
			sc.DoArrays(g.Array(), patch)

			idx := 0
			for k := got.Lo[2]; k < got.Hi[2]; k++ {
				for j := got.Lo[1]; j < got.Hi[1]; j++ {
					for i := got.Lo[0]; i < got.Hi[0]; i++ {
						if patch[idx] != cellValue(i, j, k, 0) {
							return fmt.Errorf("patch (%d,%d,%d) = %v, want %v",
								i, j, k, patch[idx], cellValue(i, j, k, 0))
						}
						idx++
					}
				}
			}
			return nil
		})
	}
}

func TestPatchScatterDisjointRequests(t *testing.T) {
	// Rank 0 requests the far corner, others request nothing.
	runWorld(t, 3, mpi.Optimized(), func(c *mpi.Comm) error {
		da := New(c, []int{9}, 1, StencilStar, 1, petsc.ScatterHandTuned)
		g := da.CreateGlobalVec()
		fillGlobal(da, g)
		var want Box
		if c.Rank() == 0 {
			want = Box{Lo: [3]int{7, 0, 0}, Hi: [3]int{9, 1, 1}}
		} else {
			want = Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{0, 1, 1}}
		}
		sc, got := da.NewPatchScatter(want)
		patch := make([]float64, got.Cells())
		sc.DoArrays(g.Array(), patch)
		if c.Rank() == 0 {
			if patch[0] != cellValue(7, 0, 0, 0) || patch[1] != cellValue(8, 0, 0, 0) {
				return fmt.Errorf("corner patch = %v", patch)
			}
		}
		return nil
	})
}

func TestStencilStrings(t *testing.T) {
	if StencilStar.String() != "star" || StencilBox.String() != "box" {
		t.Fatal("bad stencil strings")
	}
}

func TestBoxStencilMovesMoreData(t *testing.T) {
	// Paper Figure 3: box stencils communicate corners too, so they move
	// strictly more bytes than star stencils on a 2-D decomposition.
	vol := func(st StencilType) int64 {
		w := runWorld(t, 4, mpi.Optimized(), func(c *mpi.Comm) error {
			da := New(c, []int{16, 16}, 1, st, 1, petsc.ScatterHandTuned)
			g := da.CreateGlobalVec()
			l := da.CreateLocalArray()
			da.GlobalToLocal(g, l)
			return nil
		})
		return w.TotalStats().BytesSent
	}
	star := vol(StencilStar)
	box := vol(StencilBox)
	if box <= star {
		t.Fatalf("box stencil moved %d bytes, star %d — box must move more", box, star)
	}
}
