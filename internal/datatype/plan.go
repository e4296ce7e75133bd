package datatype

import "fmt"

// This file implements the compiled-plan layer: a one-time flattener that
// lowers any derived datatype — vector, indexed, struct, darray, arbitrarily
// nested — into a canonical list of (offset, length) segments with adjacent
// ones merged, the representation TEMPI calls the canonical form of a
// datatype, and from that into a kernel program (kernel.go).  Once compiled,
// steady-state Pack/Unpack run the program: zero tree traversal, zero
// allocations.  The interpreting engines in engine.go remain as the
// streaming fallback and as the correctness oracle the plan layer is
// property-tested against.

// Plan is the compiled form of (type, count): the kernel program Pack and
// Unpack execute, and the coalesced in-order segment list of the full type
// map it was lowered from, which the gather-list send and the chunking
// Packer hand out as is.  A Plan is immutable after compilation and safe for
// concurrent use.
type Plan struct {
	segs  []Segment
	runs  []run
	bytes int // total data bytes (== type size * count)
	span  int // minimum source/destination buffer length
	count int
	sig   uint64 // cache key component, for diagnostics
}

// CompilePlan flattens count instances of t into a Plan.  Compilation walks
// the tree once (O(blocks)); every subsequent Pack/Unpack touches only the
// kernel program.  Most callers should use PlanFor, which memoizes plans in
// the package LRU cache.
func CompilePlan(t *Type, count int) *Plan {
	if t == nil {
		panic("datatype: nil type")
	}
	if count < 0 {
		panic("datatype: negative count")
	}
	p := &Plan{
		segs:  Flatten(t, count),
		count: count,
		span:  RequiredBytes(t, count),
		sig:   t.sig,
	}
	p.runs, p.bytes = compileRuns(p.segs)
	if want := t.Size() * count; p.bytes != want {
		panic(fmt.Sprintf("datatype: plan flattened to %d bytes, type map holds %d", p.bytes, want))
	}
	return p
}

// Bytes returns the total data size the plan moves.
func (p *Plan) Bytes() int { return p.bytes }

// NumSegments returns the number of coalesced segments in the plan.
func (p *Plan) NumSegments() int { return len(p.segs) }

// Count returns the instance count the plan was compiled for.
func (p *Plan) Count() int { return p.count }

// Segments returns the coalesced segment list.  The caller must not modify
// it; plans are shared through the cache.
func (p *Plan) Segments() []Segment { return p.segs }

// MemBytes estimates the plan's resident memory: the segment list, the
// program's runs and offset tables, and the fixed header.  The cache tracks
// live bytes with it.
func (p *Plan) MemBytes() int64 {
	const segSize, runSize = 16, 72 // Segment{Off, Len int} and run on 64-bit
	n := int64(len(p.segs))*segSize + int64(len(p.runs))*runSize + 64
	for i := range p.runs {
		n += int64(len(p.runs[i].tab)) * 8
	}
	return n
}

// SpanBytes returns the minimum length of the noncontiguous user buffer
// the plan gathers from or scatters into.
func (p *Plan) SpanBytes() int { return p.span }

// DefaultFusionThreshold is the minimum mean segment length, in bytes, for
// the zero-copy fused send path to beat the compiled pack: below it the
// per-segment cost of a vectored write (iovec setup, per-segment CRC
// update) exceeds the one memcpy it saves, per the Eijkhout-style
// measurements the guidelines benchmark re-runs.
const DefaultFusionThreshold = 512

// Fusable reports whether the plan's segments are long enough — mean
// segment length at least minAvgSegBytes — for the zero-copy gather-list
// send path to pay off.  Empty plans are not fusable (a header-only frame
// has nothing to fuse).
func (p *Plan) Fusable(minAvgSegBytes int) bool {
	if p.bytes == 0 || len(p.segs) == 0 {
		return false
	}
	return p.bytes >= minAvgSegBytes*len(p.segs)
}

// AvgSegment returns the mean segment length in bytes, the figure the
// density heuristic compares against the dense threshold.
func (p *Plan) AvgSegment() float64 {
	if len(p.segs) == 0 {
		return 0
	}
	return float64(p.bytes) / float64(len(p.segs))
}

// Pack gathers the plan's segments of src into the contiguous stream dst.
// dst must hold at least Bytes() bytes and src at least the type map span.
// Large plans are sharded across the package worker pool; small ones run
// serially on the caller's goroutine (see parallelMinBytes).
func (p *Plan) Pack(src, dst []byte) {
	p.check(src, dst)
	p.run(src, dst, false)
}

// Unpack scatters the contiguous stream src into the plan's segments of
// dst — the exact inverse of Pack.
func (p *Plan) Unpack(dst, src []byte) {
	p.check(dst, src)
	p.run(dst, src, true)
}

func (p *Plan) check(user, stream []byte) {
	if len(user) < p.span {
		panic(fmt.Sprintf("datatype: plan buffer %d bytes, type map spans %d", len(user), p.span))
	}
	if len(stream) < p.bytes {
		panic(fmt.Sprintf("datatype: plan stream %d bytes, need %d", len(stream), p.bytes))
	}
}

// run executes the kernel program, sharding it across the worker pool when
// the plan is large enough to amortize handoff.  user is the noncontiguous
// buffer, stream the contiguous one.
func (p *Plan) run(user, stream []byte, unpack bool) {
	if p.bytes < parallelMinBytes || len(p.segs) < parallelMinSegs {
		p.exec(user, stream, unpack, pos{}, pos{run: len(p.runs)})
		return
	}
	p.parallelCopy(user, stream, unpack)
}
