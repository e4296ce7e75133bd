package petsc

import (
	"fmt"
	"sort"

	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
)

// ScatterMode selects the communication backend of a Scatter.
type ScatterMode uint8

const (
	// ScatterHandTuned is PETSc's default: explicit pack loops and
	// individual nonblocking sends/receives.  It exists because, as the
	// paper explains, derived-datatype and collective performance in
	// stock MPI implementations was too poor to rely on.
	ScatterHandTuned ScatterMode = iota
	// ScatterDatatype uses MPI derived datatypes and MPI_Alltoallw.
	// Whether this behaves like the paper's baseline (MVAPICH2-0.9.5) or
	// optimized (MVAPICH2-New) MPI depends entirely on the mpi.World
	// configuration the vectors live on.
	ScatterDatatype
)

func (m ScatterMode) String() string {
	switch m {
	case ScatterHandTuned:
		return "hand-tuned"
	case ScatterDatatype:
		return "datatype"
	}
	return "unknown"
}

// PeerIndices lists the local element indices exchanged with one peer, in
// transfer order.
type PeerIndices struct {
	Peer  int
	Local []int
}

// Plan is the communication plan of a scatter: for each peer, which local
// elements of the source vector are sent and where incoming elements land
// in the destination vector.  The order of Sends[i→j].Local on the sender
// must correspond pairwise to Recvs[j←i].Local on the receiver.  Entries
// with Peer equal to the local rank describe the local part, which moves
// without a message; its two lists must be equally long.
type Plan struct {
	Sends []PeerIndices
	Recvs []PeerIndices
}

// Scatter moves elements of one parallel vector into another according to a
// prebuilt plan, PETSc VecScatter-style.  Build once, Do many times.
type Scatter struct {
	c    *mpi.Comm
	mode ScatterMode

	xLocal, yLocal int
	plan           Plan

	// The local part: x[selfSrc[k]] lands in y[selfDst[k]].  The hand-tuned
	// path applies it itself — selfRuns is what its unpack is charged for, and
	// selfCopy says both lists are one run, so one copy does it; the datatype
	// path leaves it to the Exchange's local copy.
	selfSrc, selfDst []int
	selfRuns         int
	selfCopy         bool

	// hand-tuned path: reusable staging buffers per peer, plus the number
	// of contiguous index runs per list — PETSc's pack loops memcpy whole
	// runs, so the per-run (not per-element) overhead is what gets
	// charged.
	sendBufs [][]float64
	recvBufs [][]float64
	sendRuns []int
	recvRuns []int

	// datatype path: per-rank send specs, and the persistent Alltoallw built
	// once over them and the receive specs; Begin is its Start, End its Wait.
	sendSpecs []mpi.TypeSpec
	exch      *mpi.Exchange

	// inFlight is set between a Begin and its End.
	inFlight bool

	// hand-tuned Begin/End state: receives posted by Begin and completed by
	// End, plus the destination array the deferred unpack writes into.  The
	// slices are reused across iterations so a steady-state Begin/End pair
	// allocates nothing.
	pending    []*mpi.Request
	pendingIdx []int
	pendingDst []float64

	// accumulate path (scatter_mode.go): one staging buffer per remote peer
	// with data, built on the first Add.
	stages []stage
}

// NewScatter builds a scatter from global index sets: element x[ix[k]]
// moves to y[iy[k]].  ix and iy must have equal length and be identical on
// every rank (the plan is derived locally from the replicated sets, the way
// the paper's vector-scatter benchmark sets up its mapping).  Collective.
func NewScatter(x *Vec, ix *IS, y *Vec, iy *IS, mode ScatterMode) *Scatter {
	if ix.Len() != iy.Len() {
		panic(fmt.Sprintf("petsc: scatter index sets differ in length: %d vs %d", ix.Len(), iy.Len()))
	}
	ix.Validate(x.GlobalSize())
	iy.Validate(y.GlobalSize())
	c := x.Comm()
	size, me := c.Size(), c.Rank()

	sendTo := map[int][]int{}
	recvFrom := map[int][]int{}
	for k := 0; k < ix.Len(); k++ {
		s, d := ix.At(k), iy.At(k)
		so := Owner(x.GlobalSize(), size, s)
		do := Owner(y.GlobalSize(), size, d)
		if so == me {
			sendTo[do] = append(sendTo[do], s-x.lo)
		}
		if do == me {
			recvFrom[so] = append(recvFrom[so], d-y.lo)
		}
	}
	plan := Plan{Sends: sortedPeers(sendTo), Recvs: sortedPeers(recvFrom)}
	return NewScatterFromPlan(c, x.LocalSize(), y.LocalSize(), plan, mode)
}

func sortedPeers(m map[int][]int) []PeerIndices {
	out := make([]PeerIndices, 0, len(m))
	for p, idx := range m {
		out = append(out, PeerIndices{Peer: p, Local: idx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// NewScatterFromPlan builds a scatter from an explicit per-rank plan.
// xLocal and yLocal are the local sizes of the source and destination
// vectors the scatter will be used with.  Higher layers (e.g. distributed
// arrays, which know their ghost topology) use this directly and skip the
// replicated-index-set analysis.
func NewScatterFromPlan(c *mpi.Comm, xLocal, yLocal int, plan Plan, mode ScatterMode) *Scatter {
	for _, s := range plan.Sends {
		checkLocal(s, xLocal, "send")
	}
	for _, r := range plan.Recvs {
		checkLocal(r, yLocal, "recv")
	}
	sc := &Scatter{c: c, mode: mode, xLocal: xLocal, yLocal: yLocal, plan: plan,
		selfSrc: localOf(plan.Sends, c.Rank()), selfDst: localOf(plan.Recvs, c.Rank())}
	if len(sc.selfSrc) != len(sc.selfDst) {
		panic(fmt.Sprintf("petsc: scatter plan sends %d elements to its own rank but receives %d from it",
			len(sc.selfSrc), len(sc.selfDst)))
	}
	switch mode {
	case ScatterHandTuned:
		sc.selfRuns = countRuns(sc.selfDst)
		sc.selfCopy = sc.selfRuns == 1 && countRuns(sc.selfSrc) == 1
		sc.sendBufs = make([][]float64, len(plan.Sends))
		sc.sendRuns = make([]int, len(plan.Sends))
		for i, s := range plan.Sends {
			if s.Peer != c.Rank() {
				sc.sendBufs[i] = make([]float64, len(s.Local))
			}
			sc.sendRuns[i] = countRuns(s.Local)
		}
		sc.recvBufs = make([][]float64, len(plan.Recvs))
		sc.recvRuns = make([]int, len(plan.Recvs))
		for i, r := range plan.Recvs {
			if r.Peer != c.Rank() {
				sc.recvBufs[i] = make([]float64, len(r.Local))
			}
			sc.recvRuns[i] = countRuns(r.Local)
		}
	case ScatterDatatype:
		sc.sendSpecs = specsFor(c.Size(), plan.Sends)
		// Under the compiled-plan engine this compiles every peer's pack and
		// unpack plan now — the VecScatter analogue of dataloop commit-time
		// optimization — and no Begin/End looks one up again.
		sc.exch = c.AlltoallwInit(sc.sendSpecs, specsFor(c.Size(), plan.Recvs))
	default:
		panic("petsc: unknown scatter mode")
	}
	return sc
}

// localOf returns the index list peers holds for rank me, nil if none.
func localOf(peers []PeerIndices, me int) []int {
	for _, p := range peers {
		if p.Peer == me {
			return p.Local
		}
	}
	return nil
}

func checkLocal(p PeerIndices, n int, what string) {
	for _, i := range p.Local {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("petsc: scatter %s index %d out of local range [0,%d)", what, i, n))
		}
	}
}

// specsFor converts per-peer index lists into MPI indexed datatypes,
// coalescing runs of consecutive indices into blocks the way a dataloop
// optimizer would.  Each type is normalized to its canonical form up
// front, so an indexed layout that is secretly a vector (or contiguous)
// shares the cheaper representation's plan-cache entry from the first
// send.
func specsFor(size int, peers []PeerIndices) []mpi.TypeSpec {
	specs := make([]mpi.TypeSpec, size)
	for _, p := range peers {
		if len(p.Local) == 0 {
			continue
		}
		specs[p.Peer] = mpi.TypeSpec{Type: datatype.Canonicalize(indexedType(p.Local)), Count: 1}
	}
	return specs
}

// countRuns returns the number of maximal consecutive-index runs in idx.
func countRuns(idx []int) int {
	runs := 0
	for i := 0; i < len(idx); i++ {
		if i == 0 || idx[i] != idx[i-1]+1 {
			runs++
		}
	}
	return runs
}

// indexedType builds the derived datatype selecting the given element
// indices of a float64 array, in order, merging consecutive runs.
func indexedType(idx []int) *datatype.Type {
	var blockLens, displs []int
	i := 0
	for i < len(idx) {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		blockLens = append(blockLens, j-i)
		displs = append(displs, idx[i])
		i = j
	}
	return datatype.Indexed(blockLens, displs, datatype.Double)
}

// tag used for hand-tuned scatter traffic.
const scatterTag = 0x5ca7

// Do executes the scatter, moving x elements into y per the plan.  x and y
// must have the local sizes the scatter was built for.  Equivalent to Begin
// immediately followed by End.
func (s *Scatter) Do(x, y *Vec) {
	s.Begin(x, y)
	s.End()
}

// DoArrays is Do on raw local arrays, for callers that manage storage
// themselves (e.g. distributed-array local vectors with ghost regions).
func (s *Scatter) DoArrays(x, y []float64) {
	s.BeginArrays(x, y)
	s.End()
}

// Begin starts the scatter, PETSc VecScatterBegin-style: receives are
// posted, sends are packed and launched, and the local part is applied, but
// remote data has not necessarily landed in y yet.  The caller may overlap
// independent computation before calling End.  Exactly one scatter may be in
// flight per Scatter object.  x and y must not overlap, in either mode: the
// rule MPI sets for MPI_Alltoallw's buffers.
func (s *Scatter) Begin(x, y *Vec) {
	if x.LocalSize() != s.xLocal || y.LocalSize() != s.yLocal {
		panic("petsc: scatter applied to vectors with mismatched layout")
	}
	s.BeginArrays(x.a, y.a)
}

// BeginArrays is Begin on raw local arrays.  A typed communication error
// raised on the way (a peer failed, the communicator was revoked) leaves
// nothing in flight, so an mpi.Guard-ed caller that begins again meets the
// same typed error, not the double-Begin panic.
func (s *Scatter) BeginArrays(x, y []float64) { s.begin(x, y, true) }

// BeginRemoteArrays is BeginArrays for a caller that reads the local part
// where it lies in x (a ghost update whose owned cells are the vector's own):
// the local part is checked and charged on the virtual clock as BeginArrays'
// is and none of it is moved, so y receives the other ranks' elements only
// and keeps what it held everywhere else.  Only in the local part may x and y
// overlap.  End completes it as it does any Begin.
func (s *Scatter) BeginRemoteArrays(x, y []float64) { s.begin(x, y, false) }

func (s *Scatter) begin(x, y []float64, moveLocal bool) {
	if len(x) != s.xLocal || len(y) != s.yLocal {
		panic("petsc: scatter applied to arrays with mismatched length")
	}
	if s.inFlight {
		panic("petsc: scatter Begin with a scatter already in flight")
	}
	switch s.mode {
	case ScatterHandTuned:
		s.beginHandTuned(x, y, moveLocal)
	case ScatterDatatype:
		if moveLocal {
			s.exch.Start(floatbytes.Bytes(x), floatbytes.Bytes(y))
		} else {
			s.exch.StartRemote(floatbytes.Bytes(x), floatbytes.Bytes(y))
		}
	}
	s.inFlight = true
}

// End completes the scatter started by the matching Begin: outstanding
// receives are waited on and unpacked into the destination passed to Begin.
func (s *Scatter) End() {
	if !s.inFlight {
		panic("petsc: scatter End without matching Begin")
	}
	s.inFlight = false
	switch s.mode {
	case ScatterHandTuned:
		s.endHandTuned()
	case ScatterDatatype:
		s.exch.Wait()
	}
}

// beginHandTuned is the first half of PETSc's default path: pack with
// explicit loops, launch nonblocking point-to-point, apply the local part
// (charged always, moved unless the caller reads it in place).
// Only peers with data are contacted — the hand-tuned path never had the
// baseline Alltoallw's zero-volume synchronization problem, which is why it
// scales.
func (s *Scatter) beginHandTuned(x, y []float64, moveLocal bool) {
	c := s.c
	me := c.Rank()

	// Post receives first.
	s.pending = s.pending[:0]
	s.pendingIdx = s.pendingIdx[:0]
	s.pendingDst = y
	for i, r := range s.plan.Recvs {
		if r.Peer == me || len(r.Local) == 0 {
			continue
		}
		s.pending = append(s.pending, c.Irecv(r.Peer, scatterTag, floatbytes.Bytes(s.recvBufs[i])))
		s.pendingIdx = append(s.pendingIdx, i)
	}

	// Pack and send.
	for i, snd := range s.plan.Sends {
		if snd.Peer == me || len(snd.Local) == 0 {
			continue
		}
		buf := s.sendBufs[i]
		for k, li := range snd.Local {
			buf[k] = x[li]
		}
		c.ChargeHandPack(int64(8*len(buf)), int64(s.sendRuns[i]))
		c.Isend(snd.Peer, scatterTag, floatbytes.Bytes(buf))
	}

	// Local part: PETSc memcpys one that is contiguous on both sides
	// (VecScatterLocalOptimizeCopy_Private); the charge is the index loop's
	// either way.
	if n := len(s.selfDst); n > 0 {
		switch {
		case !moveLocal:
		case s.selfCopy:
			copy(y[s.selfDst[0]:s.selfDst[0]+n], x[s.selfSrc[0]:s.selfSrc[0]+n])
		default:
			for k, di := range s.selfDst {
				y[di] = x[s.selfSrc[k]]
			}
		}
		c.ChargeHandPack(int64(8*n), int64(s.selfRuns))
	}
}

// endHandTuned completes outstanding receives and unpacks them into the
// destination captured by beginHandTuned.
func (s *Scatter) endHandTuned() {
	c := s.c
	y := s.pendingDst
	c.Waitall(s.pending)
	for _, i := range s.pendingIdx {
		r := s.plan.Recvs[i]
		buf := s.recvBufs[i]
		for k, di := range r.Local {
			y[di] = buf[k]
		}
		c.ChargeHandPack(int64(8*len(buf)), int64(s.recvRuns[i]))
	}
	s.pendingDst = nil
}
