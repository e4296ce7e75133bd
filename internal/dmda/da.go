// Package dmda reimplements the slice of PETSc's DMDA (distributed
// structured arrays) the paper's application workloads use: regular 1-D,
// 2-D and 3-D grids decomposed over a process grid, with star- or box-type
// stencil ghost regions (paper Figure 3), interlaced degrees of freedom,
// and Global↔Local ghost-point communication built on petsc.Scatter — so
// every ghost update exercises whichever communication backend (hand-tuned
// or MPI datatypes + collectives) the experiment selects.
package dmda

import (
	"fmt"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

// StencilType selects the ghost-region shape, per the paper's Figure 3.
type StencilType uint8

const (
	// StencilStar communicates only face neighbors (2*dim of them); the
	// volume exchanged differs per dimension when subdomains are not
	// cubic.
	StencilStar StencilType = iota
	// StencilBox also communicates edge and corner neighbors, with much
	// smaller volumes than faces — the paper's canonical example of
	// nonuniform communication volumes.
	StencilBox
)

func (s StencilType) String() string {
	if s == StencilStar {
		return "star"
	}
	return "box"
}

// Box is a half-open cell region [Lo, Hi) per dimension.  Unused dimensions
// are [0, 1).
type Box struct {
	Lo, Hi [3]int
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool {
	for d := 0; d < 3; d++ {
		if b.Hi[d] <= b.Lo[d] {
			return true
		}
	}
	return false
}

// Cells returns the number of grid cells in the box.
func (b Box) Cells() int {
	n := 1
	for d := 0; d < 3; d++ {
		if b.Hi[d] <= b.Lo[d] {
			return 0
		}
		n *= b.Hi[d] - b.Lo[d]
	}
	return n
}

// Intersect returns the intersection of two boxes.
func (b Box) Intersect(o Box) Box {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(b.Lo[d], o.Lo[d])
		r.Hi[d] = min(b.Hi[d], o.Hi[d])
	}
	return r
}

// DA is a distributed regular grid.  All metadata (process grid, ownership
// ranges of every rank) is computed deterministically from the global sizes,
// so communication plans are built without setup messages.
type DA struct {
	c       *mpi.Comm
	dim     int
	n       [3]int // global grid size per dim (1 for unused dims)
	dof     int
	stencil StencilType
	width   int
	mode    petsc.ScatterMode

	active int    // ranks participating in the decomposition (others own nothing)
	p      [3]int // process grid over the active ranks

	own   Box // owned cell region
	ghost Box // owned region widened by the stencil (clamped to the domain)

	g2l *petsc.Scatter // global vec -> ghosted local array
}

// New creates a DA over the world of c.  n lists the global grid size per
// dimension (len(n) = 1, 2 or 3), dof the interlaced degrees of freedom per
// grid point, and width the stencil width.  mode selects the communication
// backend for all of the DA's scatters.  Ghost regions are truncated at the
// domain edge.  Collective.
func New(c *mpi.Comm, n []int, dof int, stencil StencilType, width int, mode petsc.ScatterMode) *DA {
	return NewLimited(c, n, dof, stencil, width, mode, 0)
}

// NewLimited is New with the decomposition restricted to the first maxRanks
// ranks (0 means all).  The remaining ranks own no cells but still
// participate in every collective operation — this is how multigrid
// agglomerates coarse levels onto fewer ranks when subdomains become too
// small to be worth the communication.
func NewLimited(c *mpi.Comm, n []int, dof int, stencil StencilType, width int,
	mode petsc.ScatterMode, maxRanks int) *DA {
	da := newLayout(n, dof, stencil, width, c.Size(), c.Rank(), maxRanks)
	da.c, da.mode = c, mode
	da.g2l = petsc.NewScatterFromRuns(c, da.OwnedCount(), da.GhostCount(), da.ghostPlan(c.Size()), mode)
	return da
}

// newLayout validates a DA's shape and computes what one rank of size ranks
// owns and sees; it communicates nothing.
func newLayout(n []int, dof int, stencil StencilType, width, size, rank, maxRanks int) *DA {
	dim := len(n)
	if dim < 1 || dim > 3 {
		panic(fmt.Sprintf("dmda: dimension %d out of range", dim))
	}
	if dof < 1 {
		panic("dmda: dof must be at least 1")
	}
	if width < 0 {
		panic("dmda: negative stencil width")
	}
	da := &DA{dim: dim, dof: dof, stencil: stencil, width: width}
	for d := 0; d < 3; d++ {
		da.n[d] = 1
		da.p[d] = 1
	}
	for d := 0; d < dim; d++ {
		if n[d] < 1 {
			panic("dmda: grid dimension must be positive")
		}
		da.n[d] = n[d]
	}
	da.active = size
	if maxRanks > 0 && maxRanks < da.active {
		da.active = maxRanks
	}
	da.p = FactorGrid(da.active, dim, da.n)

	da.own = da.ownedBoxOfRank(rank)
	da.ghost = da.ghostBoxOf(da.own)
	return da
}

// ownedBoxOfRank returns a rank's owned region; ranks beyond the active
// decomposition own nothing.
func (da *DA) ownedBoxOfRank(rank int) Box {
	if rank >= da.active {
		return Box{}
	}
	return da.ownedBoxOf(da.coordOf(rank))
}

// Active returns the number of ranks holding cells.
func (da *DA) Active() int { return da.active }

// ownedBoxOf returns the owned region of the process at the given grid
// coordinates.
func (da *DA) ownedBoxOf(coord [3]int) Box {
	var b Box
	for d := 0; d < 3; d++ {
		lo, hi := petsc.OwnershipRange(da.n[d], da.p[d], coord[d])
		b.Lo[d], b.Hi[d] = lo, hi
	}
	return b
}

// ghostBoxOf widens a box by the stencil width, clamped to the domain.
func (da *DA) ghostBoxOf(own Box) Box {
	if own.Empty() {
		return own // inactive ranks have no ghost region either
	}
	g := own
	for d := 0; d < da.dim; d++ {
		g.Lo[d] = max(0, own.Lo[d]-da.width)
		g.Hi[d] = min(da.n[d], own.Hi[d]+da.width)
	}
	return g
}

// coordOf returns the process-grid coordinates of a rank.
func (da *DA) coordOf(rank int) [3]int {
	return [3]int{
		rank % da.p[0],
		(rank / da.p[0]) % da.p[1],
		rank / (da.p[0] * da.p[1]),
	}
}

// Comm returns the communicator.
func (da *DA) Comm() *mpi.Comm { return da.c }

// GlobalSize returns the global grid size of dimension d.
func (da *DA) GlobalSize(d int) int { return da.n[d] }

// Dof returns the degrees of freedom per grid point.
func (da *DA) Dof() int { return da.dof }

// Stencil returns the stencil type.
func (da *DA) Stencil() StencilType { return da.stencil }

// OwnedBox returns this rank's owned cell region.
func (da *DA) OwnedBox() Box { return da.own }

// GhostBox returns this rank's ghosted cell region.
func (da *DA) GhostBox() Box { return da.ghost }

// OwnedCount returns the number of owned values (cells times dof).
func (da *DA) OwnedCount() int { return da.own.Cells() * da.dof }

// GhostCount returns the length of a ghosted local array.
func (da *DA) GhostCount() int { return da.ghost.Cells() * da.dof }

// localSizes returns every rank's owned value count.
func (da *DA) localSizes() []int {
	sizes := make([]int, da.c.Size())
	for r := range sizes {
		sizes[r] = da.ownedBoxOfRank(r).Cells() * da.dof
	}
	return sizes
}

// CreateGlobalVec returns a zeroed distributed vector over the grid, one
// contiguous block per rank, cells in canonical (z, y, x-fastest) order with
// dof interlaced.
func (da *DA) CreateGlobalVec() *petsc.Vec {
	return petsc.NewVecWithSizes(da.c, da.localSizes())
}

// CreateLocalArray returns a zeroed ghosted local array.
func (da *DA) CreateLocalArray() []float64 {
	return make([]float64, da.GhostCount())
}

// boxIndex returns the flat index of cell (i,j,k), dof component f, within
// box b (canonical order).
func boxIndex(b Box, dof, i, j, k, f int) int {
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	cell := ((k-b.Lo[2])*ny+(j-b.Lo[1]))*nx + (i - b.Lo[0])
	return cell*dof + f
}

// LocalIndex returns the index of grid point (i,j,k) component f in a
// ghosted local array.  For dim<3 pass 0 for the unused coordinates.
func (da *DA) LocalIndex(i, j, k, f int) int {
	return boxIndex(da.ghost, da.dof, i, j, k, f)
}

// OwnedIndex returns the index of owned grid point (i,j,k) component f in
// the local part of a global vector.
func (da *DA) OwnedIndex(i, j, k, f int) int {
	return boxIndex(da.own, da.dof, i, j, k, f)
}

// appendBoxRuns appends the values of region to dst as runs of flat
// within-frame indices (canonical cell order, dof inner), one per x-row,
// merged with the run before where they are contiguous; frame is the box the
// flat indexing is relative to.  It costs O(rows), not O(cells).
func appendBoxRuns(dst []petsc.Run, frame, region Box, dof int) []petsc.Run {
	n := (region.Hi[0] - region.Lo[0]) * dof
	for k := region.Lo[2]; k < region.Hi[2]; k++ {
		for j := region.Lo[1]; j < region.Hi[1]; j++ {
			dst = petsc.AppendRun(dst, petsc.Run{Start: boxIndex(frame, dof, region.Lo[0], j, k, 0), Len: n})
		}
	}
	return dst
}

// ghostRegionsOf enumerates the ghost regions a rank with the given owned
// box needs, in a canonical deterministic order, including the interior
// (offset 0,0,0) region — the scatter also moves the owned data into the
// ghosted array.  For star stencils only face slabs (exactly one nonzero
// offset) and the interior are included; for box stencils all 3^dim
// regions.
func (da *DA) ghostRegionsOf(own, ghost Box) []Box {
	var regions []Box
	lim := func(d int) (int, int) {
		if d < da.dim {
			return -1, 1
		}
		return 0, 0
	}
	zlo, zhi := lim(2)
	ylo, yhi := lim(1)
	xlo, xhi := lim(0)
	for oz := zlo; oz <= zhi; oz++ {
		for oy := ylo; oy <= yhi; oy++ {
			for ox := xlo; ox <= xhi; ox++ {
				nz := abs(ox) + abs(oy) + abs(oz)
				if da.stencil == StencilStar && nz > 1 {
					continue
				}
				var r Box
				for d, o := range [3]int{ox, oy, oz} {
					switch o {
					case -1:
						r.Lo[d], r.Hi[d] = ghost.Lo[d], own.Lo[d]
					case 0:
						r.Lo[d], r.Hi[d] = own.Lo[d], own.Hi[d]
					case 1:
						r.Lo[d], r.Hi[d] = own.Hi[d], ghost.Hi[d]
					}
				}
				if !r.Empty() {
					regions = append(regions, r)
				}
			}
		}
	}
	return regions
}

// ghostPlan constructs the GlobalToLocal communication plan over a world of
// size ranks.  Both sides of every pairwise transfer enumerate regions and
// rows in the same canonical order, so the plan needs no setup
// communication.
func (da *DA) ghostPlan(size int) petsc.RunPlan {
	recvFrom := make([][]petsc.Run, size)
	for _, region := range da.ghostRegionsOf(da.own, da.ghost) {
		for q := range recvFrom {
			if ov := region.Intersect(da.ownedBoxOfRank(q)); !ov.Empty() {
				recvFrom[q] = appendBoxRuns(recvFrom[q], da.ghost, ov, da.dof)
			}
		}
	}

	sendTo := make([][]petsc.Run, size)
	for r := range sendTo {
		rOwn := da.ownedBoxOfRank(r)
		for _, region := range da.ghostRegionsOf(rOwn, da.ghostBoxOf(rOwn)) {
			// Within r's region enumeration my contribution must appear
			// exactly where r expects it; intersection preserves the
			// canonical cell order.
			if ov := region.Intersect(da.own); !ov.Empty() {
				sendTo[r] = appendBoxRuns(sendTo[r], da.own, ov, da.dof)
			}
		}
	}
	return petsc.RunPlan{Sends: peersOf(sendTo), Recvs: peersOf(recvFrom)}
}

// peersOf lists the peers with runs, in rank order.
func peersOf(byPeer [][]petsc.Run) []petsc.PeerRuns {
	var peers []petsc.PeerRuns
	for p, runs := range byPeer {
		if len(runs) > 0 {
			peers = append(peers, petsc.PeerRuns{Peer: p, Runs: runs})
		}
	}
	return peers
}

// checkLayout panics unless g is a global vector and l a ghosted local array
// of this DA.
func (da *DA) checkLayout(g *petsc.Vec, l []float64) {
	if g.LocalSize() != da.OwnedCount() {
		panic("dmda: global vector does not match DA layout")
	}
	if len(l) != da.GhostCount() {
		panic("dmda: local array does not match DA ghost layout")
	}
}

// GlobalToLocal fills the ghosted local array l (length GhostCount) from
// the global vector g, communicating ghost points from neighbor ranks.
// Collective.
func (da *DA) GlobalToLocal(g *petsc.Vec, l []float64) {
	da.checkLayout(g, l)
	da.g2l.BeginArrays(g.Array(), l)
	da.g2l.End()
}

// GlobalToLocalBegin starts the ghost exchange without waiting for remote
// ghost points to arrive; pair with GlobalToLocalEnd.  Interior stencil work
// that needs no ghost data can overlap the communication.
func (da *DA) GlobalToLocalBegin(g *petsc.Vec, l []float64) {
	da.checkLayout(g, l)
	da.g2l.BeginArrays(g.Array(), l)
}

// GlobalToLocalEnd completes the exchange started by GlobalToLocalBegin.
func (da *DA) GlobalToLocalEnd() { da.g2l.End() }

// GhostUpdate fills the ghost cells of the ghosted local array l from the
// neighbour ranks' owned cells of g and leaves l's owned region as it was:
// PETSc's VecGhostUpdate, where the local form's owned part is the global
// vector's own storage.  The caller reads owned cells from g and only ghost
// cells from l (LocalIndex addresses them as in any ghosted array).  It is
// GlobalToLocal over the same plan without the copy of the owned box, which
// the virtual clock, pricing the paper's DMGlobalToLocal, still charges.  On a
// rank whose ghost box is its owned box nothing is received and l may be nil.
// The plan's own-rank part is exactly the owned region: every ghost cell is
// another rank's.  Collective.
func (da *DA) GhostUpdate(g *petsc.Vec, l []float64) {
	if l == nil && da.ghost == da.own {
		l = g.Array() // the layouts are one and nothing lands in it
	}
	da.checkLayout(g, l)
	da.g2l.BeginRemoteArrays(g.Array(), l)
	da.g2l.End()
}

// GhostScatter exposes the GlobalToLocal scatter (for instrumentation).
func (da *DA) GhostScatter() *petsc.Scatter { return da.g2l }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
