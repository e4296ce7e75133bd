package dmda

import (
	"encoding/binary"

	"nccd/internal/petsc"
)

// NewPatchScatter builds a scatter that fills, on every rank, a local patch
// array covering the rank's requested cell box from the DA's global
// vectors.  Each rank passes its own desired box (it may differ per rank
// and may overlap other ranks' boxes); the box is clamped to the domain and
// returned.  The patch array layout is canonical (z, y, x-fastest, dof
// interlaced) within the clamped box.
//
// Multigrid uses this for inter-level transfer: a fine rank requests the
// coarse-cell box its interpolation stencil reads, regardless of how the
// coarse grid is decomposed.  Unlike the ghost scatter, the requested boxes
// are not deducible from the decomposition, so creation performs one small
// Allgather of box coordinates.  Collective.
func (da *DA) NewPatchScatter(want Box) (*petsc.Scatter, Box) {
	want = da.clamp(want)
	size := da.c.Size()

	// Exchange all ranks' requested boxes.
	all := make([]byte, boxBytes*size)
	da.c.Allgather(encodeBox(want), all)
	wants := make([]Box, size)
	for r := range wants {
		wants[r] = decodeBox(all[r*boxBytes : (r+1)*boxBytes])
	}

	plan := da.patchPlan(want, wants)
	return petsc.NewScatterFromRuns(da.c, da.OwnedCount(), want.Cells()*da.dof, plan, da.mode), want
}

// clamp clamps a box to the domain; a dimension it misses is left empty.
func (da *DA) clamp(want Box) Box {
	for d := 0; d < 3; d++ {
		want.Lo[d] = max(0, want.Lo[d])
		want.Hi[d] = min(da.n[d], want.Hi[d])
		if want.Hi[d] < want.Lo[d] {
			want.Hi[d] = want.Lo[d]
		}
	}
	return want
}

// patchPlan constructs the plan that fills this rank's patch want from its
// owners and sends its owned cells inside every rank r's wants[r].
func (da *DA) patchPlan(want Box, wants []Box) petsc.RunPlan {
	// Receives: my patch cells from each owner.
	recvFrom := make([][]petsc.Run, len(wants))
	for q := range recvFrom {
		if ov := want.Intersect(da.ownedBoxOfRank(q)); !ov.Empty() {
			recvFrom[q] = appendBoxRuns(nil, want, ov, da.dof)
		}
	}

	// Sends: my owned cells inside each rank's requested box.
	sendTo := make([][]petsc.Run, len(wants))
	for r, rwant := range wants {
		if ov := rwant.Intersect(da.own); !ov.Empty() {
			sendTo[r] = appendBoxRuns(nil, da.own, ov, da.dof)
		}
	}
	return petsc.RunPlan{Sends: peersOf(sendTo), Recvs: peersOf(recvFrom)}
}

// boxBytes is the size of an encoded Box: six little-endian int64s.
const boxBytes = 48

func encodeBox(b Box) []byte {
	out := make([]byte, boxBytes)
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(out[d*8:], uint64(int64(b.Lo[d])))
		binary.LittleEndian.PutUint64(out[24+d*8:], uint64(int64(b.Hi[d])))
	}
	return out
}

func decodeBox(in []byte) Box {
	var b Box
	for d := 0; d < 3; d++ {
		b.Lo[d] = int(int64(binary.LittleEndian.Uint64(in[d*8:])))
		b.Hi[d] = int(int64(binary.LittleEndian.Uint64(in[24+d*8:])))
	}
	return b
}
