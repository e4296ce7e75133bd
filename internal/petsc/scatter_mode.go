package petsc

import "nccd/internal/floatbytes"

// InsertMode selects how scattered values combine with the destination,
// like PETSc's INSERT_VALUES / ADD_VALUES.
type InsertMode uint8

const (
	// Insert overwrites destination entries.
	Insert InsertMode = iota
	// Add accumulates into destination entries (used by reverse ghost
	// updates and assembly-style scatters).
	Add
)

func (m InsertMode) String() string {
	if m == Insert {
		return "insert"
	}
	return "add"
}

// Reverse returns a scatter that moves data along the reversed plan: what
// the forward scatter sends from x to y, the reverse scatter sends from y
// back to x.  PETSc exposes the same via SCATTER_REVERSE.  The reverse
// scatter shares no state with s and may use a different mode.
func (s *Scatter) Reverse() *Scatter {
	rev := Plan{Sends: clonePeers(s.plan.Recvs), Recvs: clonePeers(s.plan.Sends)}
	return NewScatterFromPlan(s.c, s.yLocal, s.xLocal, rev, s.mode)
}

func clonePeers(in []PeerIndices) []PeerIndices {
	out := make([]PeerIndices, len(in))
	for i, p := range in {
		out[i] = PeerIndices{Peer: p.Peer, Local: append([]int(nil), p.Local...)}
	}
	return out
}

// DoArraysMode executes the scatter with the given insert mode.  Insert is
// identical to DoArrays.  Add accumulates incoming values into y instead of
// overwriting; since MPI receives cannot accumulate, the Add path stages
// every incoming message in a contiguous buffer and applies an explicit
// accumulate loop — exactly what PETSc does when ADD_VALUES meets the
// datatype path.
func (s *Scatter) DoArraysMode(x, y []float64, mode InsertMode) {
	if mode == Insert {
		s.DoArrays(x, y)
		return
	}
	if len(x) != s.xLocal || len(y) != s.yLocal {
		panic("petsc: scatter applied to arrays with mismatched length")
	}
	s.doAdd(x, y)
}

// DoMode is DoArraysMode over Vec operands.
func (s *Scatter) DoMode(x, y *Vec, mode InsertMode) {
	if x.LocalSize() != s.xLocal || y.LocalSize() != s.yLocal {
		panic("petsc: scatter applied to vectors with mismatched layout")
	}
	s.DoArraysMode(x.a, y.a, mode)
}

// stage is the accumulate path's landing area for one remote peer: the
// peer's values arrive back to back in buf and are added into y at idx.
// Where idx is an arithmetic progression — a strided layout, the one-run
// kernel program of its datatype — the add steps through y by stride and
// never reads the list.
type stage struct {
	peer    int
	idx     []int
	buf     []float64
	stride  int
	strided bool
}

func newStages(recvs []PeerIndices, me int) []stage {
	stages := []stage{}
	for _, r := range recvs {
		if r.Peer == me || len(r.Local) == 0 {
			continue
		}
		st := stage{peer: r.Peer, idx: r.Local, buf: make([]float64, len(r.Local)), strided: true}
		if len(st.idx) > 1 {
			st.stride = st.idx[1] - st.idx[0]
		}
		for k := 2; k < len(st.idx) && st.strided; k++ {
			st.strided = st.idx[k]-st.idx[k-1] == st.stride
		}
		stages = append(stages, st)
	}
	return stages
}

// doAdd performs the accumulate scatter.  Both backends stage receives
// contiguously; the send side reuses the backend's normal path (hand pack
// or derived datatype), so the arms' send-side behaviour is still what the
// experiment selects.  The staging buffers are built on the first call, so
// steady-state accumulates allocate nothing of their own.
func (s *Scatter) doAdd(x, y []float64) {
	c := s.c
	me := c.Rank()
	if s.stages == nil {
		s.stages = newStages(s.plan.Recvs, me)
	}

	// Sends: through the backend's usual machinery.
	switch s.mode {
	case ScatterHandTuned:
		for i, snd := range s.plan.Sends {
			if snd.Peer == me || len(snd.Local) == 0 {
				continue
			}
			buf := s.sendBufs[i]
			for k, li := range snd.Local {
				buf[k] = x[li]
			}
			c.ChargeHandPack(int64(8*len(buf)), int64(s.sendRuns[i]))
			c.Send(snd.Peer, scatterTag, floatbytes.Bytes(buf))
		}
	case ScatterDatatype:
		for peer, spec := range s.sendSpecs {
			if peer == me || spec.Bytes() == 0 {
				continue
			}
			c.SendType(peer, scatterTag, spec.Type, spec.Count, floatbytes.Bytes(x))
		}
	}

	// Local part accumulates directly.
	if n := len(s.selfDst); n > 0 {
		for k, di := range s.selfDst {
			y[di] += x[s.selfSrc[k]]
		}
		c.ChargeHandPack(int64(8*n), int64(n))
	}

	for i := range s.stages {
		c.RecvInto(s.stages[i].peer, scatterTag, floatbytes.Bytes(s.stages[i].buf))
	}
	for i := range s.stages {
		st := &s.stages[i]
		if st.strided {
			d := st.idx[0]
			for _, v := range st.buf {
				y[d] += v
				d += st.stride
			}
		} else {
			for k, di := range st.idx {
				y[di] += st.buf[k]
			}
		}
		c.ChargeHandPack(int64(8*len(st.buf)), int64(len(st.buf)))
	}
}
