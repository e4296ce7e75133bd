package petsc

import (
	"nccd/internal/datatype"
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
// back to x.  PETSc exposes the same via SCATTER_REVERSE.  The datatype arm
// swaps its send and receive specs; the hand-tuned arm rebuilds from its
// sides' runs.  The reverse scatter shares nothing with s that either ever
// writes.
func (s *Scatter) Reverse() *Scatter {
	rev := &Scatter{c: s.c, mode: s.mode, xLocal: s.yLocal, yLocal: s.xLocal}
	if s.mode == ScatterDatatype {
		rev.initDatatype(s.recvSpecs, s.sendSpecs)
		return rev
	}
	me := s.c.Rank()
	plan := RunPlan{
		Sends: append(sideRuns(s.recvs), PeerRuns{Peer: me, Runs: s.selfDst.runList()}),
		Recvs: append(sideRuns(s.sends), PeerRuns{Peer: me, Runs: s.selfSrc.runList()}),
	}
	return NewScatterFromRuns(s.c, s.yLocal, s.xLocal, plan, s.mode)
}

func sideRuns(sides []handSide) []PeerRuns {
	out := make([]PeerRuns, len(sides), len(sides)+1)
	for i := range sides {
		out[i] = PeerRuns{Peer: sides[i].peer, Runs: sides[i].runList()}
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

// accumulate is what the accumulate path reads, built on the first Add: one
// stage per remote peer with data, and the local part as its two sides' runs.
type accumulate struct {
	stages           []stage
	selfSrc, selfDst []Run
}

// stage is the accumulate path's landing area for one remote peer: the
// peer's values arrive back to back in buf and are added into y at runs.
// Where the runs are single elements an equal stride apart — a strided
// layout, the one-run kernel program of its datatype — the add steps through
// y by stride and never reads the runs.
type stage struct {
	peer    int
	runs    []Run
	buf     []float64
	stride  int
	strided bool
}

func newStage(peer int, runs []Run) stage {
	st := stage{peer: peer, runs: runs, buf: make([]float64, elements(runs)), strided: len(runs) > 1}
	if st.strided {
		st.stride = runs[1].Start - runs[0].Start
	}
	for k, r := range runs {
		st.strided = st.strided && r.Len == 1 && (k == 0 || r.Start-runs[k-1].Start == st.stride)
	}
	return st
}

// newAccumulate derives the accumulate path's landing runs from what the arm
// keeps: the hand-tuned sides, or the datatype arm's specs (Flatten).
func (s *Scatter) newAccumulate() *accumulate {
	me := s.c.Rank()
	a := &accumulate{}
	var recvs []PeerRuns
	if s.mode == ScatterHandTuned {
		recvs = sideRuns(s.recvs)
		a.selfSrc, a.selfDst = s.selfSrc.runList(), s.selfDst.runList()
	} else {
		for p, spec := range s.recvSpecs {
			if p != me && spec.Bytes() > 0 {
				recvs = append(recvs, PeerRuns{Peer: p, Runs: typeRuns(spec)})
			}
		}
		a.selfSrc, a.selfDst = typeRuns(s.sendSpecs[me]), typeRuns(s.recvSpecs[me])
	}
	for _, p := range recvs {
		a.stages = append(a.stages, newStage(p.Peer, p.Runs))
	}
	return a
}

// typeRuns returns the float64 runs a spec's type selects, in order.
func typeRuns(spec mpi.TypeSpec) []Run {
	if spec.Bytes() == 0 {
		return nil
	}
	segs := datatype.Flatten(spec.Type, 1)
	runs := make([]Run, len(segs))
	for i, sg := range segs {
		runs[i] = Run{sg.Off / 8, sg.Len / 8}
	}
	return runs
}

// doAdd performs the accumulate scatter.  Both backends stage receives
// contiguously; the send side reuses the backend's normal path (hand pack
// or derived datatype), so the arms' send-side behaviour is still what the
// experiment selects.  The staging buffers are built on the first call, so
// steady-state accumulates allocate nothing of their own.
func (s *Scatter) doAdd(x, y []float64) {
	c := s.c
	me := c.Rank()
	if s.acc == nil {
		s.acc = s.newAccumulate()
	}

	// Sends: through the backend's usual machinery.
	switch s.mode {
	case ScatterHandTuned:
		for i := range s.sends {
			snd := &s.sends[i]
			snd.gather(x)
			c.ChargeHandPack(int64(8*snd.n), int64(snd.runs))
			c.Send(snd.peer, scatterTag, floatbytes.Bytes(snd.buf))
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
	if n := elements(s.acc.selfDst); n > 0 {
		addRuns(y, x, s.acc.selfDst, s.acc.selfSrc)
		c.ChargeHandPack(int64(8*n), int64(n))
	}

	stages := s.acc.stages
	for i := range stages {
		c.RecvInto(stages[i].peer, scatterTag, floatbytes.Bytes(stages[i].buf))
	}
	for i := range stages {
		st := &stages[i]
		if st.strided {
			d := st.runs[0].Start
			for _, v := range st.buf {
				y[d] += v
				d += st.stride
			}
		} else {
			off := 0
			for _, r := range st.runs {
				dst := y[r.Start : r.Start+r.Len]
				for k, v := range st.buf[off : off+r.Len] {
					dst[k] += v
				}
				off += r.Len
			}
		}
		c.ChargeHandPack(int64(8*len(st.buf)), int64(len(st.buf)))
	}
}

// addRuns adds x's elements at src into y's at dst, pairwise in transfer
// order; the two lists cover equally many elements.
func addRuns(y, x []float64, dst, src []Run) {
	var d, s Run
	for i, j := 0, 0; ; {
		if d.Len == 0 {
			if i == len(dst) {
				return
			}
			d, i = dst[i], i+1
		}
		if s.Len == 0 {
			s, j = src[j], j+1
		}
		n := min(d.Len, s.Len)
		to, from := y[d.Start:d.Start+n], x[s.Start:s.Start+n]
		for k, v := range from {
			to[k] += v
		}
		d.Start, d.Len = d.Start+n, d.Len-n
		s.Start, s.Len = s.Start+n, s.Len-n
	}
}
