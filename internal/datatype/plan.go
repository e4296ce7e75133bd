package datatype

import "fmt"

// This file implements the compiled-plan layer: a one-time flattener that
// lowers any derived datatype — vector, indexed, struct, subarray, arbitrarily
// nested — into a canonical list of (offset, length) segments with adjacent
// ones merged, the representation TEMPI calls the canonical form of a
// datatype, and from that into a kernel program (kernel.go).  Once compiled,
// steady-state Pack/Unpack run the program: zero tree traversal, zero
// allocations.  The interpreting engines in engine.go remain as the
// streaming fallback and as the correctness oracle the plan layer is
// property-tested against.

// Plan is the compiled form of (type, count): the kernel program Pack and
// Unpack execute, and the length of the coalesced segment list it was lowered
// from (the unit the cost model charges per-segment overhead in).  A Plan is
// immutable after compilation and safe for concurrent use.
type Plan struct {
	runs  []run
	nsegs int // coalesced segments of the full type map
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
	segs := Flatten(t, count)
	p := &Plan{
		nsegs: len(segs),
		count: count,
		span:  RequiredBytes(t, count),
		sig:   t.sig,
	}
	p.runs, p.bytes = compileRuns(segs)
	if want := t.Size() * count; p.bytes != want {
		panic(fmt.Sprintf("datatype: plan flattened to %d bytes, type map holds %d", p.bytes, want))
	}
	return p
}

// Bytes returns the total data size the plan moves.
func (p *Plan) Bytes() int { return p.bytes }

// NumSegments returns the number of coalesced segments in the plan.
func (p *Plan) NumSegments() int { return p.nsegs }

// Count returns the instance count the plan was compiled for.
func (p *Plan) Count() int { return p.count }

// MemBytes estimates the plan's resident memory: the program's runs and
// offset tables, and the fixed header.  The cache tracks live bytes with it.
func (p *Plan) MemBytes() int64 {
	const runSize = 72 // run on 64-bit
	n := int64(len(p.runs))*runSize + 64
	for i := range p.runs {
		n += int64(len(p.runs[i].tab)) * 8
	}
	return n
}

// SpanBytes returns the minimum length of the noncontiguous user buffer
// the plan gathers from or scatters into.
func (p *Plan) SpanBytes() int { return p.span }

// Pack gathers the plan's segments of src into the contiguous stream dst.
// dst must hold at least Bytes() bytes and src at least the type map span.
func (p *Plan) Pack(src, dst []byte) {
	p.check(src, dst)
	p.exec(src, dst, false)
}

// Unpack scatters the contiguous stream src into the plan's segments of
// dst — the exact inverse of Pack.
func (p *Plan) Unpack(dst, src []byte) {
	p.check(dst, src)
	p.exec(dst, src, true)
}

func (p *Plan) check(user, stream []byte) {
	if len(user) < p.span {
		panic(fmt.Sprintf("datatype: plan buffer %d bytes, type map spans %d", len(user), p.span))
	}
	if len(stream) < p.bytes {
		panic(fmt.Sprintf("datatype: plan stream %d bytes, need %d", len(stream), p.bytes))
	}
}
