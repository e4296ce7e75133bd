package mg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

func TestAgglomeratedSolveMatchesFull(t *testing.T) {
	// Agglomeration changes only where coarse cells live, never the math:
	// solutions and cycle counts must match the unagglomerated hierarchy.
	var sums []float64
	var cycles []int
	for _, minCells := range []int{1, 512} {
		var sum float64
		var cyc int
		runWorld(t, 8, mpi.Optimized(), func(c *mpi.Comm) error {
			s := NewAgglomerated(c, []int{16, 16, 16}, 3, petsc.ScatterDatatype, minCells)
			if got := s.DA(2).Active(); minCells == 1 && got != 8 {
				return fmt.Errorf("distributed coarsest active ranks = %d, want 8", got)
			}
			if minCells > 1 {
				// 4^3 = 64 coarsest cells with 512 min cells per rank ->
				// a single active rank on the coarsest level.
				if got := s.DA(2).Active(); got != 1 {
					return fmt.Errorf("coarsest active ranks = %d, want 1", got)
				}
				if s.DA(0).Active() != 8 {
					return fmt.Errorf("finest should stay fully distributed")
				}
			}
			b := s.CreateVec()
			setManufactured(s, b)
			x := s.CreateVec()
			cycles, _ := s.Solve(b, x, 1e-9, 60)
			total := x.Sum()
			if c.Rank() == 0 {
				cyc, sum = cycles, total
			}
			return nil
		})
		sums = append(sums, sum)
		cycles = append(cycles, cyc)
	}
	if math.Abs(sums[1]-sums[0]) > 1e-9*math.Abs(sums[0]) {
		t.Fatalf("agglomerated solution differs: %v vs %v", sums[1], sums[0])
	}
	if cycles[1] != cycles[0] {
		t.Fatalf("agglomerated cycle count differs: %d vs %d", cycles[1], cycles[0])
	}
}

func TestAgglomerationReducesCoarseMessages(t *testing.T) {
	// With many ranks and a small coarsest grid, agglomeration must cut
	// the message count (fewer neighbor exchanges on coarse levels).
	msgs := func(minCells int) int64 {
		w := runWorld(t, 16, mpi.Optimized(), func(c *mpi.Comm) error {
			s := NewAgglomerated(c, []int{16, 16}, 3, petsc.ScatterHandTuned, minCells)
			b := s.CreateVec()
			setManufactured(s, b)
			x := s.CreateVec()
			s.vcycle(0, fromNothing, b, x, endNone)
			return nil
		})
		return w.TotalStats().MsgsSent
	}
	full := msgs(1)
	agg := msgs(64)
	if agg >= full {
		t.Fatalf("agglomeration did not reduce messages: %d vs %d", agg, full)
	}
}

// benchArms are the two arms the benchmark spine times: the compiled datatype
// path and PETSc's hand-tuned default.
var benchArms = []struct {
	cfg  mpi.Config
	mode petsc.ScatterMode
}{
	{mpi.Compiled(), petsc.ScatterDatatype},
	{mpi.Baseline(), petsc.ScatterHandTuned},
}

// rankCountShapes are the problems the rank-count tests solve at every
// feasible rank count.
var rankCountShapes = []struct {
	n      []int
	levels int
}{
	{[]int{16, 16, 16}, 2},
	{[]int{16, 16, 16}, 3},
	{[]int{24, 24, 24}, 3},
	{[]int{32, 32}, 3},
	{[]int{64}, 3},
}

// forEachRankCount runs solve on every rankCountShapes entry, two
// hierarchies, rank counts 1, 2, 3, 4, 6 and 8 where feasible and both
// arms, each on a fresh world, and holds what rank 0 returns to the one-rank
// solve's, bit for bit.  The hierarchies are New's, whose coarsest level here
// lives on one rank, and every level on every rank (minCellsPerRank 1).
// b = A x* is itself the same bits under every decomposition.
func forEachRankCount(t *testing.T, solve func(s *Solver, b, x *petsc.Vec) [][]float64) {
	for _, sh := range rankCountShapes {
		var want [][]float64
		for _, minCells := range []int{0, 1} {
			for _, np := range []int{1, 2, 3, 4, 6, 8} {
				for _, a := range benchArms {
					k := kernelShape{n: sh.n, np: np, levels: sh.levels, minCells: minCells, mode: a.mode, cfg: a.cfg}
					if !k.feasible() || np == 1 && minCells == 1 {
						continue
					}
					var got [][]float64
					runWorld(t, np, a.cfg, func(c *mpi.Comm) error {
						s := k.solver(c)
						b, x := s.CreateVec(), s.CreateVec()
						setManufactured(s, b)
						if out := solve(s, b, x); c.Rank() == 0 {
							got = out
						}
						return nil
					})
					if want == nil {
						want = got
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%v: %d results, one rank has %d", k, len(got), len(want))
					}
					for i := range want {
						if err := bitsDiffer(fmt.Sprintf("result %d", i), got[i], want[i]); err != nil {
							t.Fatalf("%v: %v", k, err)
						}
					}
				}
			}
		}
	}
}

// TestSolutionIndependentOfRankCount: a V-cycle's only sums are the coarse
// conjugate gradients' inner products, which are order-free, so x in natural
// order after each of four V-cycles is the one-rank solve's bit for bit, at
// every feasible rank count, on both hierarchies and in both arms.
func TestSolutionIndependentOfRankCount(t *testing.T) {
	forEachRankCount(t, func(s *Solver, b, x *petsc.Vec) (out [][]float64) {
		for range 4 {
			s.vcycle(0, fromNothing, b, x, endNone)
			out = append(out, s.DA(0).GatherNatural(x))
		}
		return out
	})
}

// TestSolveIndependentOfRankCount: Solve takes every inner product of its
// conjugate gradients, the coarse solve's included, through the order-free
// Sum, so its History and x in natural order are the one-rank solve's bit for
// bit, at every feasible rank count, on both hierarchies and in both arms.
func TestSolveIndependentOfRankCount(t *testing.T) {
	forEachRankCount(t, func(s *Solver, b, x *petsc.Vec) [][]float64 {
		s.Solve(b, x, 1e-10, 12)
		return [][]float64{append([]float64(nil), s.History...), s.DA(0).GatherNatural(x)}
	})
}

// TestGatheredCoarseSolveSendsNothing: on the default hierarchy the coarsest
// level's conjugate gradients run on rank 0 with no message from any rank, and
// every other rank returns at once, its clock unmoved.  The same call on the
// fully distributed hierarchy (minCellsPerRank 1) sends.
func TestGatheredCoarseSolveSendsNothing(t *testing.T) {
	for _, np := range []int{2, 4} {
		for _, a := range benchArms {
			for _, minCells := range []int{0, 1} {
				sent := make([]int64, np)
				moved := make([]bool, np)
				runWorld(t, np, a.cfg, func(c *mpi.Comm) error {
					s := NewAgglomerated(c, []int{16, 16, 16}, 2, a.mode, minCells)
					l := s.Levels() - 1
					b, x := s.DA(l).CreateGlobalVec(), s.DA(l).CreateGlobalVec()
					fillSeeded(b, 3)
					msgs, clock := c.Stats().MsgsSent, c.Clock()
					s.coarseSolve(l, b, x)
					sent[c.Rank()] = c.Stats().MsgsSent - msgs
					moved[c.Rank()] = c.Clock() != clock
					return nil
				})
				total := int64(0)
				for r := range np {
					total += sent[r]
				}
				name := fmt.Sprintf("np %d, %v, minCellsPerRank %d", np, a.mode, minCells)
				switch {
				case minCells == 1 && total == 0:
					t.Errorf("%s: the distributed coarse solve sent nothing", name)
				case minCells == 0 && total != 0:
					t.Errorf("%s: the gathered coarse solve sent %v messages by rank", name, sent)
				case minCells == 0 && !moved[0]:
					t.Errorf("%s: rank 0 did not solve", name)
				case minCells == 0 && slices.Contains(moved[1:], true):
					t.Errorf("%s: a rank without coarse cells advanced its clock: %v", name, moved)
				}
			}
		}
	}
}
