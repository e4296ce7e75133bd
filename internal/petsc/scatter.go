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

// Run is a block of consecutive local elements, [Start, Start+Len): the
// unit a scatter is built from.  A derived datatype describes a ghost face
// as a few such blocks, not as one index per cell.
type Run struct{ Start, Len int }

// AppendRun appends r to runs, extending the last run instead where r starts
// where it ends, so runs appended in transfer order stay maximal.  An empty r
// is dropped.
func AppendRun(runs []Run, r Run) []Run {
	if r.Len == 0 {
		return runs
	}
	if k := len(runs) - 1; k >= 0 && runs[k].Start+runs[k].Len == r.Start {
		runs[k].Len += r.Len
		return runs
	}
	return append(runs, r)
}

// PeerRuns lists the local elements exchanged with one peer as runs, in
// transfer order.
type PeerRuns struct {
	Peer int
	Runs []Run
}

// RunPlan is a Plan whose lists are runs, built with AppendRun so that no
// run starts where the one before it ends.
type RunPlan struct {
	Sends []PeerRuns
	Recvs []PeerRuns
}

// Scatter moves elements of one parallel vector into another according to a
// prebuilt plan, PETSc VecScatter-style.  Build once, Do many times.
type Scatter struct {
	c    *mpi.Comm
	mode ScatterMode

	xLocal, yLocal int

	// hand-tuned path: one side per remote peer with data, in plan order,
	// and the two sides of the local part.  PETSc's pack loops memcpy whole
	// runs, so the per-run (not per-element) overhead is what gets charged.
	sends, recvs     []handSide
	selfSrc, selfDst handSide

	// datatype path: per-rank send and receive specs, and the persistent
	// Alltoallw built once over them; Begin is its Start, End its Wait.  The
	// local part is the Exchange's local copy.
	sendSpecs, recvSpecs []mpi.TypeSpec
	exch                 *mpi.Exchange

	// inFlight is set between a Begin and its End.
	inFlight bool

	// hand-tuned Begin/End state: receives posted by Begin and completed by
	// End, plus the destination array the deferred unpack writes into.  The
	// slice is reused across iterations so a steady-state Begin/End pair
	// allocates nothing.
	pending    []*mpi.Request
	pendingDst []float64

	// accumulate path (scatter_mode.go), built on the first Add.
	acc *accumulate
}

// handSide is the hand-tuned arm's view of one side of a transfer: the run
// [start, start+n) when idx is nil, the element list idx when the layout is
// more than one run.  runs is what ChargeHandPack counts; buf stages a
// remote peer's elements.
type handSide struct {
	peer     int
	start, n int
	idx      []int
	runs     int
	buf      []float64
}

// newHandSide keeps runs as one run where it is one and list is false, as an
// element list otherwise.
func newHandSide(peer int, runs []Run, list bool) handSide {
	h := handSide{peer: peer, n: elements(runs), runs: len(runs)}
	switch {
	case len(runs) == 0:
	case len(runs) == 1 && !list:
		h.start = runs[0].Start
	default:
		h.idx = make([]int, 0, h.n)
		for _, r := range runs {
			for i := r.Start; i < r.Start+r.Len; i++ {
				h.idx = append(h.idx, i)
			}
		}
	}
	return h
}

// runList returns the side's runs.
func (h *handSide) runList() []Run {
	if h.idx != nil {
		return runsOf(h.idx)
	}
	if h.n == 0 {
		return nil
	}
	return []Run{{h.start, h.n}}
}

// gather packs the side's elements of x into buf.  It and scatter are kept
// out of line: inlined into beginHandTuned or endHandTuned, whose registers
// are busy, the element loop spilled its counter to the stack and made the
// Fig. 16 hand scatter about 40% slower.
//
//go:noinline
func (h *handSide) gather(x []float64) {
	buf, idx := h.buf, h.idx
	if idx == nil {
		copy(buf, x[h.start:h.start+h.n])
		return
	}
	for k, li := range idx {
		buf[k] = x[li]
	}
}

// scatter unpacks buf into the side's elements of y.
//
//go:noinline
func (h *handSide) scatter(y []float64) {
	buf, idx := h.buf, h.idx
	if idx == nil {
		copy(y[h.start:h.start+h.n], buf)
		return
	}
	for k, di := range idx {
		y[di] = buf[k]
	}
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

// NewScatterFromPlan builds a scatter from an explicit per-rank plan of
// index lists: NewScatterFromRuns on the lists' runs.
func NewScatterFromPlan(c *mpi.Comm, xLocal, yLocal int, plan Plan, mode ScatterMode) *Scatter {
	return NewScatterFromRuns(c, xLocal, yLocal, RunPlan{Sends: peerRuns(plan.Sends), Recvs: peerRuns(plan.Recvs)}, mode)
}

func peerRuns(peers []PeerIndices) []PeerRuns {
	out := make([]PeerRuns, len(peers))
	for i, p := range peers {
		out[i] = PeerRuns{Peer: p.Peer, Runs: runsOf(p.Local)}
	}
	return out
}

// runsOf merges an index list into its maximal runs of consecutive indices,
// counted first so that the slice is allocated once.
func runsOf(idx []int) []Run {
	n := 0
	for k, i := range idx {
		if k == 0 || i != idx[k-1]+1 {
			n++
		}
	}
	runs := make([]Run, 0, n)
	for _, i := range idx {
		runs = AppendRun(runs, Run{i, 1})
	}
	return runs
}

// elements returns the number of elements runs covers.
func elements(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// NewScatterFromRuns builds a scatter from an explicit per-rank plan.  xLocal
// and yLocal are the local sizes of the source and destination vectors the
// scatter will be used with.  Higher layers (e.g. distributed arrays, which
// know their ghost topology as boxes) use this directly and skip the
// replicated-index-set analysis.  The datatype arm keeps one indexed type per
// peer, one block per run; the hand-tuned arm keeps a one-run peer as its run
// and moves it with one copy, and expands only a peer of more runs into an
// element list for its pack and unpack loops.
func NewScatterFromRuns(c *mpi.Comm, xLocal, yLocal int, plan RunPlan, mode ScatterMode) *Scatter {
	for _, s := range plan.Sends {
		checkRuns(s.Runs, xLocal, "send")
	}
	for _, r := range plan.Recvs {
		checkRuns(r.Runs, yLocal, "recv")
	}
	me := c.Rank()
	selfSrc, selfDst := runsFor(plan.Sends, me), runsFor(plan.Recvs, me)
	if n, m := elements(selfSrc), elements(selfDst); n != m {
		panic(fmt.Sprintf("petsc: scatter plan sends %d elements to its own rank but receives %d from it", n, m))
	}
	sc := &Scatter{c: c, mode: mode, xLocal: xLocal, yLocal: yLocal}
	switch mode {
	case ScatterHandTuned:
		sc.sends, sc.recvs = handSides(plan.Sends, me), handSides(plan.Recvs, me)
		// PETSc memcpys a local part that is contiguous on both sides
		// (VecScatterLocalOptimizeCopy_Private) and loops over both lists
		// otherwise.
		list := len(selfSrc) > 1 || len(selfDst) > 1
		sc.selfSrc, sc.selfDst = newHandSide(me, selfSrc, list), newHandSide(me, selfDst, list)
	case ScatterDatatype:
		sc.initDatatype(specsFor(c.Size(), plan.Sends), specsFor(c.Size(), plan.Recvs))
	default:
		panic("petsc: unknown scatter mode")
	}
	return sc
}

// initDatatype builds the datatype arm over its specs.  Under the
// compiled-plan engine this compiles every peer's pack and unpack plan now —
// the VecScatter analogue of dataloop commit-time optimization — and no
// Begin/End looks one up again.
func (s *Scatter) initDatatype(sends, recvs []mpi.TypeSpec) {
	s.sendSpecs, s.recvSpecs = sends, recvs
	s.exch = s.c.AlltoallwInit(sends, recvs)
}

// handSides returns the hand-tuned sides of the remote peers with data, each
// with its staging buffer.
func handSides(peers []PeerRuns, me int) []handSide {
	var out []handSide
	for _, p := range peers {
		if p.Peer == me || len(p.Runs) == 0 {
			continue
		}
		h := newHandSide(p.Peer, p.Runs, false)
		h.buf = make([]float64, h.n)
		out = append(out, h)
	}
	return out
}

// runsFor returns the runs peers holds for rank me, nil if none.
func runsFor(peers []PeerRuns, me int) []Run {
	for _, p := range peers {
		if p.Peer == me {
			return p.Runs
		}
	}
	return nil
}

// checkRuns panics unless every run lies in [0, n), naming the first element
// outside it.
func checkRuns(runs []Run, n int, what string) {
	for _, r := range runs {
		if r.Start < 0 || r.Start+r.Len > n {
			bad := r.Start
			if bad >= 0 {
				bad = max(bad, n)
			}
			panic(fmt.Sprintf("petsc: scatter %s index %d out of local range [0,%d)", what, bad, n))
		}
	}
}

// specsFor converts per-peer runs into MPI datatypes (RunsType), one spec
// per rank.
func specsFor(size int, peers []PeerRuns) []mpi.TypeSpec {
	specs := make([]mpi.TypeSpec, size)
	for _, p := range peers {
		if len(p.Runs) == 0 {
			continue
		}
		specs[p.Peer] = mpi.TypeSpec{Type: RunsType(p.Runs), Count: 1}
	}
	return specs
}

// RunsType returns the derived datatype selecting the given runs of a
// float64 array, in order, one indexed block per run.  The type is
// normalized to its canonical form up front, so an indexed layout that is
// secretly a vector (or contiguous) shares the cheaper representation's
// plan-cache entry from the first send.
func RunsType(runs []Run) *datatype.Type {
	lens, displs := make([]int, len(runs)), make([]int, len(runs))
	for i, r := range runs {
		lens[i], displs[i] = r.Len, r.Start
	}
	return datatype.Canonicalize(datatype.Indexed(lens, displs, datatype.Double))
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

	// Post receives first.
	s.pending = s.pending[:0]
	s.pendingDst = y
	for i := range s.recvs {
		r := &s.recvs[i]
		s.pending = append(s.pending, c.Irecv(r.peer, scatterTag, floatbytes.Bytes(r.buf)))
	}

	// Pack and send.
	for i := range s.sends {
		snd := &s.sends[i]
		snd.gather(x)
		c.ChargeHandPack(int64(8*snd.n), int64(snd.runs))
		c.Isend(snd.peer, scatterTag, floatbytes.Bytes(snd.buf))
	}

	// Local part: one copy where both sides are one run; the charge is the
	// index loop's either way.
	if n := s.selfDst.n; n > 0 {
		src, dst := &s.selfSrc, &s.selfDst
		switch {
		case !moveLocal:
		case dst.idx == nil:
			copy(y[dst.start:dst.start+n], x[src.start:src.start+n])
		default:
			from := src.idx
			for k, di := range dst.idx {
				y[di] = x[from[k]]
			}
		}
		c.ChargeHandPack(int64(8*n), int64(dst.runs))
	}
}

// endHandTuned completes outstanding receives and unpacks them into the
// destination captured by beginHandTuned.
func (s *Scatter) endHandTuned() {
	c := s.c
	y := s.pendingDst
	c.Waitall(s.pending)
	for i := range s.recvs {
		r := &s.recvs[i]
		r.scatter(y)
		c.ChargeHandPack(int64(8*r.n), int64(r.runs))
	}
	s.pendingDst = nil
}
