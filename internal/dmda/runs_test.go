package dmda

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// appendBoxIndices appends the flat within-frame indices of every value of
// region (canonical cell order, dof inner) to dst, where frame is the box the
// flat indexing is relative to: the per-cell enumeration the plans were once
// built from, kept as the oracle of appendBoxRuns.
func appendBoxIndices(dst []int, frame, region Box, dof int) []int {
	for k := region.Lo[2]; k < region.Hi[2]; k++ {
		for j := region.Lo[1]; j < region.Hi[1]; j++ {
			for i := region.Lo[0]; i < region.Hi[0]; i++ {
				base := boxIndex(frame, dof, i, j, k, 0)
				for f := 0; f < dof; f++ {
					dst = append(dst, base+f)
				}
			}
		}
	}
	return dst
}

// listPlan is a plan as per-peer index lists, indexed by peer (nil where
// nothing moves).
type listPlan struct{ sends, recvs [][]int }

// ghostListsOracle is the ghost plan enumerated cell by cell, regions and
// peers in the order ghostPlan visits them.
func ghostListsOracle(da *DA, size int) listPlan {
	p := listPlan{sends: make([][]int, size), recvs: make([][]int, size)}
	for _, region := range da.ghostRegionsOf(da.own, da.ghost) {
		for q := 0; q < size; q++ {
			if ov := region.Intersect(da.ownedBoxOfRank(q)); !ov.Empty() {
				p.recvs[q] = appendBoxIndices(p.recvs[q], da.ghost, ov, da.dof)
			}
		}
	}
	for r := 0; r < size; r++ {
		rOwn := da.ownedBoxOfRank(r)
		for _, region := range da.ghostRegionsOf(rOwn, da.ghostBoxOf(rOwn)) {
			if ov := region.Intersect(da.own); !ov.Empty() {
				p.sends[r] = appendBoxIndices(p.sends[r], da.own, ov, da.dof)
			}
		}
	}
	return p
}

// patchListsOracle is the patch plan enumerated cell by cell.
func patchListsOracle(da *DA, want Box, wants []Box) listPlan {
	p := listPlan{sends: make([][]int, len(wants)), recvs: make([][]int, len(wants))}
	for q := range wants {
		if ov := want.Intersect(da.ownedBoxOfRank(q)); !ov.Empty() {
			p.recvs[q] = appendBoxIndices(nil, want, ov, da.dof)
		}
		if ov := wants[q].Intersect(da.own); !ov.Empty() {
			p.sends[q] = appendBoxIndices(nil, da.own, ov, da.dof)
		}
	}
	return p
}

// petscPlan is the oracle as NewScatterFromPlan takes it.
func (p listPlan) petscPlan() petsc.Plan {
	var out petsc.Plan
	for q := range p.sends {
		if len(p.sends[q]) > 0 {
			out.Sends = append(out.Sends, petsc.PeerIndices{Peer: q, Local: p.sends[q]})
		}
		if len(p.recvs[q]) > 0 {
			out.Recvs = append(out.Recvs, petsc.PeerIndices{Peer: q, Local: p.recvs[q]})
		}
	}
	return out
}

// indexedTypeOracle is the datatype the datatype arm built from an index
// list: consecutive indices merged into one block, then canonicalized.
func indexedTypeOracle(idx []int) *datatype.Type {
	var blockLens, displs []int
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		blockLens = append(blockLens, j-i)
		displs = append(displs, idx[i])
		i = j
	}
	return datatype.Canonicalize(datatype.Indexed(blockLens, displs, datatype.Double))
}

// expand lists the elements of runs in order.
func expand(runs []petsc.Run) []int {
	var idx []int
	for _, r := range runs {
		for i := r.Start; i < r.Start+r.Len; i++ {
			idx = append(idx, i)
		}
	}
	return idx
}

// compareSide checks one side of a run plan against the oracle's lists: the
// same peers in rank order, every peer's runs expanding to its list element
// for element, as few runs as the list has maximal runs, and the datatype arm's
// type of the runs carrying the signature of the type built from the list.
func compareSide(what string, got []petsc.PeerRuns, want [][]int) error {
	k := 0
	for q, list := range want {
		if len(list) == 0 {
			continue
		}
		if k == len(got) || got[k].Peer != q {
			return fmt.Errorf("%s: peer %d has %d values in the oracle and is not next in the plan %v", what, q, len(list), got)
		}
		runs := got[k].Runs
		k++
		if e := expand(runs); !slices.Equal(e, list) {
			return fmt.Errorf("%s to/from %d: runs %v expand to %v, oracle lists %v", what, q, runs, e, list)
		}
		oracle := indexedTypeOracle(list)
		if len(runs) != oracle.Blocks() {
			return fmt.Errorf("%s to/from %d: %d runs where the list has %d", what, q, len(runs), oracle.Blocks())
		}
		if s, w := petsc.RunsType(runs).Signature(), oracle.Signature(); s != w {
			return fmt.Errorf("%s to/from %d: type signature %x, the list's %x", what, q, s, w)
		}
	}
	if k != len(got) {
		return fmt.Errorf("%s: the plan has peers %v beyond the oracle's", what, got[k:])
	}
	return nil
}

func comparePlan(what string, got petsc.RunPlan, want listPlan) error {
	if err := compareSide(what+" sends", got.Sends, want.sends); err != nil {
		return err
	}
	return compareSide(what+" recvs", got.Recvs, want.recvs)
}

// FuzzScatterRuns holds the run plans of both DA scatters, ghost and patch,
// to the per-cell lists they replaced, on every rank of random 1–3-D grids:
// dof 1–3, star and box stencils, width 0–2, 1–8 ranks, a decomposition
// limited to fewer ranks, and random (overlapping, empty, out-of-domain)
// patch requests.
func FuzzScatterRuns(f *testing.F) {
	f.Add([]byte{2, 5, 5, 5, 1, 1, 1, 7, 0})                      // 3-D box, dof 2, 2x2x2 ranks
	f.Add([]byte{1, 8, 6, 0, 0, 2, 3, 0})                         // 2-D star, width 2, 4 ranks
	f.Add([]byte{0, 8, 2, 1, 1, 4, 3})                            // 1-D, dof 3, 5 ranks limited to 3
	f.Add([]byte{2, 3, 2, 1, 0, 1, 0, 5, 2, 0, 9, 1, 7, 3, 3, 8}) // small 3-D, patches out of the domain
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(mod int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % mod
		}
		dim := 1 + next(3)
		n := make([]int, dim)
		ext := [3]int{1, 1, 1}
		for d := range n {
			n[d] = 1 + next(9)
			ext[d] = n[d]
		}
		dof := 1 + next(3)
		st := StencilType(next(2))
		width := next(3)
		np := 1 + next(8)
		maxRanks := next(np + 1)
		active := np
		if maxRanks > 0 {
			active = maxRanks
		}
		if !GridFeasible(active, dim, ext) {
			return
		}
		das := make([]*DA, np)
		wants := make([]Box, np)
		for r := range das {
			das[r] = newLayout(n, dof, st, width, np, r, maxRanks)
			for d := 0; d < 3; d++ {
				wants[r].Lo[d] = next(ext[d]+4) - 2
				wants[r].Hi[d] = wants[r].Lo[d] + next(ext[d]+4)
			}
			wants[r] = das[r].clamp(wants[r])
		}
		desc := fmt.Sprintf("n=%v dof=%d %v width=%d np=%d maxRanks=%d", n, dof, st, width, np, maxRanks)
		for r, da := range das {
			if err := comparePlan("ghost", da.ghostPlan(np), ghostListsOracle(da, np)); err != nil {
				t.Fatalf("%s, rank %d: %v", desc, r, err)
			}
			if err := comparePlan("patch", da.patchPlan(wants[r], wants), patchListsOracle(da, wants[r], wants)); err != nil {
				t.Fatalf("%s, rank %d, patch %v: %v", desc, r, wants[r], err)
			}
		}
	})
}

// TestReverseAddOnKeptForm runs Reverse() and DoArraysMode(Add) on what each
// arm keeps of a run-built scatter — the datatype arm its specs, the
// hand-tuned arm its one-run peers as runs and its multi-run peers as lists —
// over the ghost and a patch scatter of a 2x2x2 grid of ranks, box stencil,
// dof 2: x faces, y faces and edges are multi-run, z faces and corners one
// run on the owned side.  With integer values the result must be exactly
// what the oracle's lists add up to; with arbitrary ones it must equal, bit
// for bit, the same scatters built from the oracle's lists.
func TestReverseAddOnKeptForm(t *testing.T) {
	const np = 8
	n := []int{6, 5, 4}
	for _, mode := range []petsc.ScatterMode{petsc.ScatterHandTuned, petsc.ScatterDatatype} {
		runWorld(t, np, mpi.Compiled(), func(c *mpi.Comm) error {
			da := New(c, n, 2, StencilBox, 1, mode)
			me := c.Rank()
			var one, multi int
			for _, p := range da.ghostPlan(np).Sends {
				if len(p.Runs) == 1 {
					one++
				} else {
					multi++
				}
			}
			if one == 0 || multi == 0 {
				return fmt.Errorf("rank %d sends to %d one-run and %d multi-run peers; the test needs both", me, one, multi)
			}
			want := da.own
			for d := 0; d < 3; d++ {
				want.Lo[d]--
				want.Hi[d] += 2
			}
			patch, want := da.NewPatchScatter(want)

			// Every rank's lists, for the exact sum.
			wants := make([]Box, np)
			layouts := make([]*DA, np)
			for r := range layouts {
				layouts[r] = newLayout(n, 2, StencilBox, 1, np, r, 0)
				w := layouts[r].own
				for d := 0; d < 3; d++ {
					w.Lo[d]--
					w.Hi[d] += 2
				}
				wants[r] = layouts[r].clamp(w)
			}
			for _, sc := range []struct {
				name   string
				fwd    *petsc.Scatter
				lists  func(r int) listPlan
				yLocal func(r int) int
			}{
				{"ghost", da.GhostScatter(), func(r int) listPlan { return ghostListsOracle(layouts[r], np) },
					func(r int) int { return layouts[r].GhostCount() }},
				{"patch", patch, func(r int) listPlan { return patchListsOracle(layouts[r], wants[r], wants) },
					func(r int) int { return wants[r].Cells() * 2 }},
			} {
				mine := sc.lists(me)
				fromLists := petsc.NewScatterFromPlan(c, da.OwnedCount(), sc.yLocal(me), mine.petscPlan(), mode)
				rev, revLists := sc.fwd.Reverse(), fromLists.Reverse()

				// Integer values: the sum is exact in any order.
				value := func(r, i int) float64 { return float64(1000*r + i) }
				src := make([]float64, sc.yLocal(me))
				for i := range src {
					src[i] = value(me, i)
				}
				got := make([]float64, da.OwnedCount())
				exact := make([]float64, len(got))
				for i := range got {
					got[i], exact[i] = float64(-i), float64(-i)
				}
				for q := 0; q < np; q++ {
					from := sc.lists(q).recvs[me]
					for k, li := range mine.sends[q] {
						exact[li] += value(q, from[k])
					}
				}
				rev.DoArraysMode(src, got, petsc.Add)
				if !slices.Equal(got, exact) {
					return fmt.Errorf("%v %s: reverse Add gave %v, the lists add up to %v", mode, sc.name, got, exact)
				}

				// Arbitrary values: equal to the list-built scatter's bits.
				rng := rand.New(rand.NewSource(int64(me)))
				for i := range src {
					src[i] = rng.NormFloat64()
				}
				y1 := make([]float64, da.OwnedCount())
				for i := range y1 {
					y1[i] = rng.NormFloat64()
				}
				y2 := append([]float64(nil), y1...)
				rev.DoArraysMode(src, y1, petsc.Add)
				revLists.DoArraysMode(src, y2, petsc.Add)
				for i := range y1 {
					if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
						return fmt.Errorf("%v %s: y[%d] = %x from runs, %x from lists", mode, sc.name, i,
							math.Float64bits(y1[i]), math.Float64bits(y2[i]))
					}
				}
			}
			return nil
		})
	}
}
