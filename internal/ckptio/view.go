package ckptio

import (
	"nccd/internal/datatype"
)

// FileView is a rank's noncontiguous window onto the checkpoint file: the
// byte ranges of the file domain this rank owns, in ascending order, exactly
// MPI_File_set_view with a derived datatype.  The rank's local contribution
// buffer is the in-order concatenation of the segments, so a view built
// from a dmda owned-subarray type consumes the global vector's local array
// directly — no staging copy, no replicated natural array.
type FileView struct {
	// Total is the file-domain size in bytes (identical on every rank).
	Total int64
	// Segs are this rank's pieces of the file domain: ascending,
	// non-overlapping, coalesced.  May be empty (an inactive rank on an
	// agglomerated level still participates in the collective).
	Segs []datatype.Segment
}

// LocalBytes returns the size of the rank's contribution buffer.
func (v FileView) LocalBytes() int {
	n := 0
	for _, s := range v.Segs {
		n += s.Len
	}
	return n
}

// validate panics on a malformed view; called once at Bind.
func (v FileView) validate() {
	prev := 0
	for _, s := range v.Segs {
		if s.Len <= 0 || s.Off < prev || int64(s.Off+s.Len) > v.Total {
			panic("checkpoint: file view segments must be ascending, positive and in range")
		}
		prev = s.Off + s.Len
	}
}

// tile is the view of k vectors back to back in one file, each in v's file
// domain: v's segments once for every vector, each time one domain further.
func (v FileView) tile(k int) FileView {
	t := FileView{Total: int64(k) * v.Total, Segs: make([]datatype.Segment, 0, k*len(v.Segs))}
	for i := 0; i < k; i++ {
		for _, sg := range v.Segs {
			sg.Off += i * int(v.Total)
			t.Segs = append(t.Segs, sg)
		}
	}
	return t
}
