package datatype

import "nccd/internal/floatbytes"

// The kernel program of a compiled plan.  CompilePlan run-length-encodes the
// coalesced segment list into runs of equal-length blocks — a constant
// stride where the offsets are arithmetic (a vector, a ghost face: one run
// however many blocks), a flat offset table where they are not (the
// irregular 8-byte lists of a DMDA corner rank) — and fixes each run's copy
// loop then, from its block length and alignment.  Pack and Unpack execute
// the runs; a strided plan reads O(runs) of plan memory per call where the
// segment walk read 24 bytes of plan for every 8 bytes of data.

// kernel names the copy loop of a run.  The classes come from the
// BenchmarkPlanKernels sweep (DESIGN §9 has the table): a loop over uint64
// views beats one memmove call per block three- to fourfold at 8 and 16
// bytes; a generic n-word loop gains between nothing and a half from 24 to
// 48 bytes, depending on the run, and loses from 64 on, and no workload has
// such blocks, so every other length is copied.
type kernel uint8

const (
	kernCopy  kernel = iota // one copy per block
	kernWord1               // 8-byte blocks, one uint64 each
	kernWord2               // 16-byte blocks, two uint64s each
)

// side locates the blocks of a run in one buffer: block i at tab[i], or at
// off + i*stride when tab is nil.
type side struct {
	off, stride int
	tab         []int
}

// run is count blocks of blockLen bytes, located in the user buffer by side
// and packed back to back from stream offset dst.
type run struct {
	side
	dst      int
	blockLen int
	count    int
	kern     kernel
}

// minStridedBlocks is the shortest arithmetic progression worth a run of its
// own inside a stretch of equal-length blocks; a shorter one joins the
// stretch's offset table, at 8 bytes of plan per block instead of a run
// header per two or three.
const minStridedBlocks = 4

// encodeRuns run-length-encodes a list of blocks that lie at a[i] in one
// buffer and at b[i], a segment of the same length, in another; a nil b says
// they are packed back to back there, as in a Plan's stream.  It calls
// emit(i, j, arithmetic) for consecutive stretches [i, j) of equal-length
// blocks: arithmetic where the offsets advance by constant steps on both
// sides (a strided run), not otherwise (a run with offset tables).
func encodeRuns(a, b []Segment, emit func(i, j int, arithmetic bool)) {
	// Blocks [pending, k) are of equal length and not yet emitted, none of
	// their progressions having reached minStridedBlocks; up to two of them
	// are a progression anyway, more go into a table.
	pending := 0
	for k := 0; k < len(a); {
		// [k, e) is the longest arithmetic progression of equal-length blocks
		// starting at k.
		l, e := a[k].Len, k+1
		if e < len(a) && a[e].Len == l {
			da, db := a[e].Off-a[k].Off, 0
			if b != nil {
				db = b[e].Off - b[k].Off
			}
			for e++; e < len(a) && a[e].Len == l && a[e].Off-a[e-1].Off == da &&
				(b == nil || b[e].Off-b[e-1].Off == db); e++ {
			}
		}
		switch {
		case e-k >= minStridedBlocks:
			if pending < k {
				emit(pending, k, k-pending <= 2)
			}
			emit(k, e, true)
			pending, k = e, e
		case e < len(a) && a[e].Len == l:
			k = e - 1 // same length goes on: the last block may start the next progression
		default:
			emit(pending, e, e-pending <= 2)
			pending, k = e, e
		}
	}
}

// compileRuns lowers a coalesced segment list into the kernel program, in
// one pass, and returns it with the total bytes it moves.
func compileRuns(segs []Segment) (runs []run, bytes int) {
	encodeRuns(segs, nil, func(i, j int, arithmetic bool) {
		r := run{side: sideOf(segs[i:j], arithmetic), dst: bytes, blockLen: segs[i].Len, count: j - i}
		r.kern = classify(r.blockLen, r.dst%8 == 0 && r.aligned())
		runs = append(runs, r)
		bytes += r.count * r.blockLen
	})
	return runs, bytes
}

// sideOf locates the blocks of one run, segs, in their buffer: by the step
// from each to the next when the run is arithmetic, by a table of the offsets
// when it is not.
func sideOf(segs []Segment, arithmetic bool) side {
	s := side{off: segs[0].Off}
	if !arithmetic {
		s.tab = make([]int, len(segs))
		for i := range s.tab {
			s.tab[i] = segs[i].Off
		}
	} else if len(segs) > 1 {
		s.stride = segs[1].Off - s.off
	}
	return s
}

// aligned reports whether every offset of the side is on the 8-byte grid.
func (s *side) aligned() bool {
	ok := s.off%8 == 0 && s.stride%8 == 0
	for _, o := range s.tab {
		ok = ok && o%8 == 0
	}
	return ok
}

// classify picks a run's copy loop.  The word loops need every offset they
// touch, in both buffers, on the 8-byte grid; whether the buffers themselves
// start on it is known only at run time (see exec).
func classify(blockLen int, aligned bool) kernel {
	switch {
	case aligned && blockLen == 8:
		return kernWord1
	case aligned && blockLen == 16:
		return kernWord2
	}
	return kernCopy
}

// exec runs the program.  user is the noncontiguous buffer, stream the
// contiguous one.  The word loops run over uint64 views of both; when either
// buffer starts off the 8-byte grid there is no view and every run copies
// byte-wise.
func (p *Plan) exec(user, stream []byte, unpack bool) {
	uw, uok := floatbytes.Words(user)
	sw, sok := floatbytes.Words(stream)
	for i := range p.runs {
		r := &p.runs[i]
		k := r.kern
		if !uok || !sok {
			k = kernCopy
		}
		switch {
		case k == kernCopy:
			copyBlocks(user, stream, r, unpack)
		case k == kernWord1 && unpack:
			unpackWord1(uw, sw, r)
		case k == kernWord1:
			packWord1(sw, uw, r)
		case unpack:
			unpackWord2(uw, sw, r)
		default:
			packWord2(sw, uw, r)
		}
	}
}

func copyBlocks(user, stream []byte, r *run, unpack bool) {
	l, d, o, stride := r.blockLen, r.dst, r.off, r.stride
	switch {
	case r.tab != nil && unpack:
		for _, o := range r.tab {
			copy(user[o:o+l], stream[d:d+l])
			d += l
		}
	case r.tab != nil:
		for _, o := range r.tab {
			copy(stream[d:d+l], user[o:o+l])
			d += l
		}
	case unpack:
		for i := 0; i < r.count; i++ {
			copy(user[o:o+l], stream[d:d+l])
			o += stride
			d += l
		}
	default:
		for i := 0; i < r.count; i++ {
			copy(stream[d:d+l], user[o:o+l])
			o += stride
			d += l
		}
	}
}

func packWord1(sw, uw []uint64, r *run) {
	out := sw[r.dst>>3:][:r.count]
	if r.tab != nil {
		for i, o := range r.tab[:len(out)] {
			out[i] = uw[o>>3]
		}
		return
	}
	s, step := r.off>>3, r.stride>>3
	for i := range out {
		out[i] = uw[s]
		s += step
	}
}

func unpackWord1(uw, sw []uint64, r *run) {
	in := sw[r.dst>>3:][:r.count]
	if r.tab != nil {
		for i, o := range r.tab[:len(in)] {
			uw[o>>3] = in[i]
		}
		return
	}
	d, step := r.off>>3, r.stride>>3
	for _, v := range in {
		uw[d] = v
		d += step
	}
}

func packWord2(sw, uw []uint64, r *run) {
	out, tab := sw[r.dst>>3:][:2*r.count], r.tab
	s, step := r.off>>3, r.stride>>3
	for i := 0; i+1 < len(out); i += 2 {
		if tab != nil {
			s = tab[i>>1] >> 3
		}
		out[i], out[i+1] = uw[s], uw[s+1]
		s += step
	}
}

func unpackWord2(uw, sw []uint64, r *run) {
	in, tab := sw[r.dst>>3:][:2*r.count], r.tab
	d, step := r.off>>3, r.stride>>3
	for i := 0; i+1 < len(in); i += 2 {
		if tab != nil {
			d = tab[i>>1] >> 3
		}
		uw[d], uw[d+1] = in[i], in[i+1]
		d += step
	}
}
