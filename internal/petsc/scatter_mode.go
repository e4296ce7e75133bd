package petsc

import (
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
)

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

// doAdd performs the accumulate scatter.  Both backends stage receives
// contiguously; the send side reuses the backend's normal path (hand pack
// or derived datatype), so the arms' send-side behaviour is still what the
// experiment selects.
func (s *Scatter) doAdd(x, y []float64) {
	c := s.c
	me := c.Rank()

	// Stage buffers for every remote peer with data.
	type staged struct {
		peer int
		idx  []int
		buf  []float64
	}
	var stages []staged
	reqs := make([]*mpi.Request, 0, len(s.plan.Recvs))
	for _, r := range s.plan.Recvs {
		if r.Peer == me || len(r.Local) == 0 {
			continue
		}
		st := staged{peer: r.Peer, idx: r.Local, buf: make([]float64, len(r.Local))}
		stages = append(stages, st)
		reqs = append(reqs, c.Irecv(r.Peer, scatterTag, floatbytes.Bytes(st.buf)))
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
			c.Isend(snd.Peer, scatterTag, floatbytes.Bytes(buf))
		}
	case ScatterDatatype:
		for peer, spec := range s.sendSpecs {
			if peer == me || spec.Bytes() == 0 {
				continue
			}
			c.IsendType(peer, scatterTag, spec.Type, spec.Count, floatbytes.Bytes(x))
		}
	}

	// Local part accumulates directly.
	var selfSrc []int
	for _, snd := range s.plan.Sends {
		if snd.Peer == me {
			selfSrc = snd.Local
		}
	}
	for _, r := range s.plan.Recvs {
		if r.Peer != me {
			continue
		}
		if len(selfSrc) != len(r.Local) {
			panic("petsc: self scatter plan mismatch")
		}
		for k, di := range r.Local {
			y[di] += x[selfSrc[k]]
		}
		c.ChargeHandPack(int64(8*len(r.Local)), int64(len(r.Local)))
	}

	c.Waitall(reqs)
	for _, st := range stages {
		for k, di := range st.idx {
			y[di] += st.buf[k]
		}
		c.ChargeHandPack(int64(8*len(st.buf)), int64(len(st.buf)))
	}
}
