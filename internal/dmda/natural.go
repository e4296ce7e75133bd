package dmda

import (
	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// NaturalCount returns the length of a natural-order global array: every
// grid point in canonical (z, y, x-fastest) order with dof interlaced,
// independent of the decomposition.
func (da *DA) NaturalCount() int {
	return da.n[0] * da.n[1] * da.n[2] * da.dof
}

// naturalIndex returns the natural-order index of cell (i,j,k) component 0.
func (da *DA) naturalIndex(i, j, k int) int {
	return ((k*da.n[1]+j)*da.n[0] + i) * da.dof
}

// NaturalType returns the derived datatype describing this rank's owned box
// as a subarray of the natural-order global array (float64 elements): the
// rank's *file view* for collective checkpoint I/O.  The type's byte
// offsets index the natural array serialized at 8 bytes per value, and its
// flatten order equals the owned box's canonical packed order — exactly the
// layout of the global vector's local array — so the local array IS the
// view's contribution buffer.  Returns nil for a rank with no owned cells
// (inactive on an agglomerated level).
func (da *DA) NaturalType() *datatype.Type {
	b := da.own
	if b.Empty() || da.dof == 0 {
		return nil
	}
	sizes := []int{da.n[2], da.n[1], da.n[0] * da.dof}
	subs := []int{b.Hi[2] - b.Lo[2], b.Hi[1] - b.Lo[1], (b.Hi[0] - b.Lo[0]) * da.dof}
	starts := []int{b.Lo[2], b.Lo[1], b.Lo[0] * da.dof}
	return datatype.Subarray(sizes, subs, starts, datatype.Double)
}

// NaturalSegments returns the flattened byte segments of NaturalType:
// this rank's pieces of the natural-order file domain, ascending and
// coalesced.  Empty for an inactive rank.
func (da *DA) NaturalSegments() []datatype.Segment {
	t := da.NaturalType()
	if t == nil {
		return nil
	}
	return datatype.Flatten(t, 1)
}

// NaturalBytes returns the natural-order file-domain size in bytes.
func (da *DA) NaturalBytes() int64 { return int64(da.NaturalCount()) * 8 }

// GatherNatural gathers the distributed vector g into a replicated
// natural-order array on every rank.  Built on Allgatherv — with
// agglomerated levels some ranks contribute zero values, so the call rides
// the nonuniform-volume path the paper studies.  O(global) memory on every
// rank: it is the decomposition-independent oracle tests compare
// distributed state against (checkpoints go through NaturalSegments and
// never replicate).  Collective.
func (da *DA) GatherNatural(g *petsc.Vec) []float64 {
	out := make([]float64, da.NaturalCount())
	da.NewNaturalGather(da.c).Gather(g, out)
	return out
}

// NaturalGather is GatherNatural over a communicator of its own, with the
// counts and the receive buffer kept, so that a repeated gather allocates
// nothing beyond what its Allgatherv does.
type NaturalGather struct {
	da     *DA
	c      *mpi.Comm
	counts []int     // the bytes each rank of c contributes
	packed []float64 // every contribution, in rank order
}

// NewNaturalGather returns the gather of da's vectors over c, whose rank r
// owns what rank r of da's communicator owns: that communicator itself, or
// one of its first ranks that holds every active one (the coarse solve's
// sub-communicator).  It communicates nothing.
func (da *DA) NewNaturalGather(c *mpi.Comm) *NaturalGather {
	if c.Size() < da.active {
		panic("dmda: natural gather over fewer ranks than own cells")
	}
	ng := &NaturalGather{da: da, c: c, counts: make([]int, c.Size()), packed: make([]float64, da.NaturalCount())}
	for r := range ng.counts {
		ng.counts[r] = da.ownedBoxOfRank(r).Cells() * da.dof * 8
	}
	return ng
}

// Gather writes the distributed vector g in natural order into out, at least
// NaturalCount long, on every rank of the gather's communicator.  Collective
// over it.
func (ng *NaturalGather) Gather(g *petsc.Vec, out []float64) {
	da := ng.da
	if g.LocalSize() != da.OwnedCount() {
		panic("dmda: global vector does not match DA layout")
	}
	ng.c.Allgatherv(floatbytes.Bytes(g.Array()), ng.counts, floatbytes.Bytes(ng.packed))

	// Place every rank's rows (canonical box order) into natural order.
	off := 0
	for r := range ng.counts {
		b := da.ownedBoxOfRank(r)
		rowN := (b.Hi[0] - b.Lo[0]) * da.dof
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				off += copy(out[da.naturalIndex(b.Lo[0], j, k):], ng.packed[off:off+rowN])
			}
		}
	}
}
