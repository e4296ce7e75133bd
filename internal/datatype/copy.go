package datatype

import (
	"fmt"

	"nccd/internal/floatbytes"
)

// This file implements the typed local copy: data described by one layout in
// one buffer lands in another layout of equal size in another buffer, the
// k-th byte of the send type map at the k-th byte of the receive type map,
// with no packed image in between.  It is what a message from a rank to
// itself amounts to, and what MPICH serves the self pair of MPI_Alltoallw
// with (MPIR_Localcopy).

// CopyPlan is the compiled form of a typed copy.  Where exactly one layout is
// a single segment, the other layout's Plan runs straight against the user
// buffers: its packed stream is that segment.  Otherwise the common
// refinement of the two coalesced segment lists is run-length-encoded the way
// a Plan's is, into runs located on both sides; two single segments refine to
// one block, one copy.  A CopyPlan is immutable after compilation and safe
// for concurrent use.
type CopyPlan struct {
	bytes            int
	srcSpan, dstSpan int // minimum send and receive buffer lengths
	srcSegs, dstSegs int // coalesced segments of each layout, the cost model's unit

	// One side a single segment at offset off: pack gathers the send layout
	// into it, unpack scatters it into the receive layout.
	pack, unpack *Plan
	off          int

	runs []pairRun
}

// pairRun is count blocks of blockLen bytes, each read where src locates it
// in the send buffer and written where dst locates it in the receive buffer.
type pairRun struct {
	src, dst side
	blockLen int
	count    int
	kern     kernel
}

// CompileCopy compiles the copy of scount instances of st into rcount
// instances of rt, in O(segments).  The two must describe the same number of
// bytes.  The receive type map must not overlap itself, as MPI requires of
// any receive type.
func CompileCopy(st *Type, scount int, rt *Type, rcount int) *CopyPlan {
	src, dst := Flatten(st, scount), Flatten(rt, rcount)
	cp := &CopyPlan{bytes: st.Size() * scount,
		srcSpan: RequiredBytes(st, scount), dstSpan: RequiredBytes(rt, rcount),
		srcSegs: len(src), dstSegs: len(dst)}
	if got := rt.Size() * rcount; got != cp.bytes {
		panic(fmt.Sprintf("datatype: copy of %d bytes into a type map of %d", cp.bytes, got))
	}
	switch {
	case len(src) == 1 && len(dst) > 1:
		cp.unpack, cp.off = PlanFor(rt, rcount), src[0].Off
	case len(dst) == 1 && len(src) > 1:
		cp.pack, cp.off = PlanFor(st, scount), dst[0].Off
	default:
		src, dst = refine(src, dst)
		encodeRuns(src, dst, func(i, j int, arithmetic bool) {
			r := pairRun{src: sideOf(src[i:j], arithmetic), dst: sideOf(dst[i:j], arithmetic),
				blockLen: src[i].Len, count: j - i}
			r.kern = classify(r.blockLen, r.src.aligned() && r.dst.aligned())
			cp.runs = append(cp.runs, r)
		})
	}
	return cp
}

// refine returns the common refinement of two segment lists of equal total
// length: the maximal blocks that are contiguous in both, as they lie on
// either side.
func refine(src, dst []Segment) (s, d []Segment) {
	atLeast := max(len(src), len(dst)) // more where segment ends interleave
	s, d = make([]Segment, 0, atLeast), make([]Segment, 0, atLeast)
	i, j, si, dj := 0, 0, 0, 0 // segment and bytes of it consumed, either side
	for i < len(src) && j < len(dst) {
		n := min(src[i].Len-si, dst[j].Len-dj)
		s, d = append(s, Segment{src[i].Off + si, n}), append(d, Segment{dst[j].Off + dj, n})
		if si += n; si == src[i].Len {
			i, si = i+1, 0
		}
		if dj += n; dj == dst[j].Len {
			j, dj = j+1, 0
		}
	}
	return s, d
}

// SendSegments returns the number of coalesced segments of the send layout,
// the NumSegments of its Plan.
func (cp *CopyPlan) SendSegments() int { return cp.srcSegs }

// RecvSegments returns the number of coalesced segments of the receive layout.
func (cp *CopyPlan) RecvSegments() int { return cp.dstSegs }

// Copy moves the send layout's bytes of src into the receive layout of dst.
// The buffers must cover their type maps and must not overlap.  It allocates
// nothing.
func (cp *CopyPlan) Copy(dst, src []byte) {
	if len(src) < cp.srcSpan || len(dst) < cp.dstSpan {
		panic(fmt.Sprintf("datatype: copy buffers %d/%d bytes, type maps span %d/%d",
			len(src), len(dst), cp.srcSpan, cp.dstSpan))
	}
	switch {
	case cp.unpack != nil:
		cp.unpack.Unpack(dst, src[cp.off:cp.off+cp.bytes])
	case cp.pack != nil:
		cp.pack.Pack(src, dst[cp.off:cp.off+cp.bytes])
	default:
		cp.exec(dst, src)
	}
}

// exec runs the paired runs, as Plan.exec runs a plan's: 8- and 16-byte
// blocks on the grid move as words when both buffers start on it.
func (cp *CopyPlan) exec(dst, src []byte) {
	sw, sok := floatbytes.Words(src)
	dw, dok := floatbytes.Words(dst)
	for i := range cp.runs {
		r := &cp.runs[i]
		switch {
		case r.kern == kernCopy || !sok || !dok:
			s, d, l := r.src.off, r.dst.off, r.blockLen
			for k := 0; k < r.count; k++ {
				if r.src.tab != nil {
					s, d = r.src.tab[k], r.dst.tab[k]
				}
				copy(dst[d:d+l], src[s:s+l])
				s, d = s+r.src.stride, d+r.dst.stride
			}
		case r.kern == kernWord1:
			copyWord1(dw, sw, r)
		default:
			copyWord2(dw, sw, r)
		}
	}
}

func copyWord1(dw, sw []uint64, r *pairRun) {
	if r.src.tab != nil {
		dtab := r.dst.tab[:len(r.src.tab)]
		for i, s := range r.src.tab {
			dw[dtab[i]>>3] = sw[s>>3]
		}
		return
	}
	s, d, sstep, dstep := r.src.off>>3, r.dst.off>>3, r.src.stride>>3, r.dst.stride>>3
	for k := 0; k < r.count; k++ {
		dw[d] = sw[s]
		s, d = s+sstep, d+dstep
	}
}

func copyWord2(dw, sw []uint64, r *pairRun) {
	if r.src.tab != nil {
		dtab := r.dst.tab[:len(r.src.tab)]
		for i, s := range r.src.tab {
			s, d := s>>3, dtab[i]>>3
			dw[d], dw[d+1] = sw[s], sw[s+1]
		}
		return
	}
	s, d, sstep, dstep := r.src.off>>3, r.dst.off>>3, r.src.stride>>3, r.dst.stride>>3
	for k := 0; k < r.count; k++ {
		dw[d], dw[d+1] = sw[s], sw[s+1]
		s, d = s+sstep, d+dstep
	}
}
