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

// run is count blocks of blockLen bytes, block i at user offset tab[i], or
// at off + i*stride when tab is nil, packed back to back from stream offset
// dst.
type run struct {
	off, stride int
	tab         []int
	dst         int
	blockLen    int
	count       int
	kern        kernel
}

// minStridedBlocks is the shortest arithmetic progression worth a run of its
// own inside a stretch of equal-length blocks; a shorter one joins the
// stretch's offset table, at 8 bytes of plan per block instead of a run
// header per two or three.
const minStridedBlocks = 4

// compileRuns lowers a coalesced segment list into the kernel program, in
// one pass, and returns it with the total bytes it moves.
func compileRuns(segs []Segment) (runs []run, bytes int) {
	// emit appends segs[a:b], equal-length blocks, as one run: strided when
	// the caller knows the offsets to be arithmetic, a table otherwise.
	emit := func(a, b int, arithmetic bool) {
		if a == b {
			return
		}
		r := run{off: segs[a].Off, dst: bytes, blockLen: segs[a].Len, count: b - a}
		switch {
		case arithmetic && b-a > 1:
			r.stride = segs[a+1].Off - segs[a].Off
		case !arithmetic:
			r.tab = make([]int, b-a)
			for j := range r.tab {
				r.tab[j] = segs[a+j].Off
			}
		}
		r.kern = r.classify()
		runs = append(runs, r)
		bytes += r.count * r.blockLen
	}
	// segs[pending:k] are equal-length blocks not yet emitted, none of whose
	// progressions reached minStridedBlocks; up to two of them are a
	// progression anyway, more go into a table.
	pending := 0
	for k := 0; k < len(segs); {
		// segs[k:e] is the longest arithmetic progression of equal-length
		// blocks starting at k.
		l, e := segs[k].Len, k+1
		if e < len(segs) && segs[e].Len == l {
			d := segs[e].Off - segs[k].Off
			for e++; e < len(segs) && segs[e].Len == l && segs[e].Off-segs[e-1].Off == d; e++ {
			}
		}
		switch {
		case e-k >= minStridedBlocks:
			emit(pending, k, k-pending <= 2)
			emit(k, e, true)
			pending, k = e, e
		case e < len(segs) && segs[e].Len == l:
			k = e - 1 // same length goes on: the last block may start the next progression
		default:
			emit(pending, e, e-pending <= 2)
			pending, k = e, e
		}
	}
	return runs, bytes
}

// classify picks the run's copy loop.  The word loops need every offset they
// touch, user side and stream side, on the 8-byte grid; whether the buffers
// themselves start on it is known only at run time (see exec).
func (r *run) classify() kernel {
	aligned := r.dst%8 == 0 && r.off%8 == 0 && r.stride%8 == 0
	for _, o := range r.tab {
		aligned = aligned && o%8 == 0
	}
	switch {
	case aligned && r.blockLen == 8:
		return kernWord1
	case aligned && r.blockLen == 16:
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
