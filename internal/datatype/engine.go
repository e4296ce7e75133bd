package datatype

// This file implements the pipelined pack engines compared in the paper.
//
// Both engines produce the same chunk stream: a sequence of pipeline-sized
// pieces of the type map, each either packed into a caller-supplied
// intermediate buffer (sparse regions) or described as raw segments of the
// user buffer for direct gather transmission (dense regions).  Before every
// chunk the engine looks ahead over the upcoming datatype signature to
// classify the region, mirroring MPICH2's dense/sparse decision.
//
// SingleContext reproduces the baseline defect (paper Section 3.1): the
// look-ahead advances the engine's only datatype context, so whenever the
// region is sparse the engine has lost the position it must pack from and
// re-searches the datatype linearly from the beginning.  That search really
// happens here — SeekBytes walks the tree — so its quadratic growth shows up
// in wall-clock benchmarks as well as in the virtual-time model.
//
// DualContext implements the paper's fix (Section 4.1): look-aheads run on a
// disposable clone of the pack context and touch only the datatype
// signature, so the pack context never moves except to pack and no search is
// ever needed.

// EngineKind selects which pack engine a Packer uses.
type EngineKind uint8

const (
	// SingleContext is the baseline MPICH2-like engine with one datatype
	// context and from-scratch re-search after sparse look-aheads.
	SingleContext EngineKind = iota
	// DualContext is the paper's dual-context look-ahead engine.
	DualContext
	// CompiledPlans names the compiled-plan layer (see plan.go) where a
	// configuration selects an engine: the type tree is flattened once per
	// (type, count) and Plan.Pack/Unpack run a kernel program with no
	// traversal, no look-ahead scans and no searches.  It is not a chunk
	// engine — NewPacker rejects it.
	CompiledPlans
)

func (k EngineKind) String() string {
	switch k {
	case SingleContext:
		return "single-context"
	case DualContext:
		return "dual-context"
	case CompiledPlans:
		return "compiled-plan"
	}
	return "unknown-engine"
}

// Options tunes a pack engine.  The zero value selects the defaults below.
type Options struct {
	// Pipeline is the intermediate-buffer granularity in bytes: how much
	// data each chunk carries.  Default 32 KiB.
	Pipeline int
	// LookAhead is how many contiguous segments the density classifier
	// examines before each chunk.  The paper's implementation uses 15.
	LookAhead int
	// DenseThreshold is the minimum mean segment length, in bytes, for a
	// region to take the direct (no-copy) path.  Default 8 KiB — the
	// CH3-era implementations packed everything but very dense layouts,
	// since scatter/gather sends only pay off for long segments.
	DenseThreshold int
}

// DefaultOptions are the engine defaults used throughout the repository.
var DefaultOptions = Options{Pipeline: 32 * 1024, LookAhead: 15, DenseThreshold: 8192}

// WithDefaults returns o with zero fields replaced by DefaultOptions values.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Pipeline <= 0 {
		o.Pipeline = DefaultOptions.Pipeline
	}
	if o.LookAhead <= 0 {
		o.LookAhead = DefaultOptions.LookAhead
	}
	if o.DenseThreshold <= 0 {
		o.DenseThreshold = DefaultOptions.DenseThreshold
	}
	return o
}

// Metrics counts the work a pack or unpack engine performed.  Byte and
// segment counts are exact; the virtual-time layer converts them into
// pack/search/communication time.
type Metrics struct {
	Chunks          int64 // pipeline events
	PackedBytes     int64 // bytes copied through the intermediate buffer
	DirectBytes     int64 // bytes taken by the direct (dense) path
	PackedSegments  int64 // segments copied while packing
	DirectSegments  int64 // segments emitted on the direct path
	ScannedSegments int64 // segments examined by look-aheads
	SearchSegments  int64 // segments visited by baseline re-searches
	Searches        int64 // number of re-search events
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Chunks += other.Chunks
	m.PackedBytes += other.PackedBytes
	m.DirectBytes += other.DirectBytes
	m.PackedSegments += other.PackedSegments
	m.DirectSegments += other.DirectSegments
	m.ScannedSegments += other.ScannedSegments
	m.SearchSegments += other.SearchSegments
	m.Searches += other.Searches
}

// Chunk is one pipeline unit produced by a Packer.
type Chunk struct {
	// Data holds the packed bytes when Direct is false.  It aliases the
	// scratch buffer passed to NextChunk and is only valid until the next
	// call.
	Data []byte
	// Segs lists the user-buffer segments making up the chunk when Direct
	// is true.  It aliases engine-owned scratch, valid until the next call.
	Segs []Segment
	// Direct reports the dense no-copy path.
	Direct bool
	// Bytes is the amount of data in the chunk.
	Bytes int
}

// Packer turns count instances of a datatype laid out in buf into a chunk
// stream.  Create one per message; a Packer is not safe for concurrent use.
type Packer struct {
	kind  EngineKind
	opt   Options
	buf   []byte
	cur   *Cursor
	total int64
	m     Metrics

	scratchSegs []Segment
}

// NewPacker returns a Packer over count instances of t stored in buf, for
// one of the two streaming engines.  buf must cover the type map's span
// (extent-spaced instances plus the last instance's true span; zero-size
// types excepted).
func NewPacker(kind EngineKind, t *Type, count int, buf []byte, opt Options) *Packer {
	if kind != SingleContext && kind != DualContext {
		panic("datatype: " + kind.String() + " is not a streaming engine")
	}
	if need := RequiredBytes(t, count); len(buf) < need {
		panic("datatype: buffer smaller than type map extent")
	}
	return &Packer{
		kind:  kind,
		opt:   opt.withDefaults(),
		buf:   buf,
		cur:   NewCursor(t, count),
		total: int64(t.size) * int64(count),
	}
}

// RequiredBytes returns the minimum buffer length holding count instances of
// t: count-1 extent-spaced instances plus the final instance's true span.
// Size, extent and span are memoized on the Type at construction, so this
// never walks the tree.
func RequiredBytes(t *Type, count int) int {
	if count == 0 || t.size == 0 {
		return 0
	}
	return (count-1)*t.extent + t.span
}

// Remaining reports whether more chunks are available.
func (p *Packer) Remaining() bool { return !p.cur.Done() }

// TotalBytes returns the total data size of the message.
func (p *Packer) TotalBytes() int64 { return p.total }

// Metrics returns the work counters accumulated so far.
func (p *Packer) Metrics() Metrics { return p.m }

// NextChunk produces the next pipeline chunk.  scratch must be at least
// Options.Pipeline bytes; packed chunks alias it.  ok is false when the
// type map is exhausted.
func (p *Packer) NextChunk(scratch []byte) (c Chunk, ok bool) {
	if !p.Remaining() {
		return Chunk{}, false
	}
	if len(scratch) < p.opt.Pipeline {
		panic("datatype: scratch smaller than pipeline granularity")
	}
	p.m.Chunks++

	if p.kind == SingleContext {
		return p.nextSingle(scratch), true
	}
	return p.nextDual(scratch), true
}

// nextSingle is the baseline: look-ahead consumes the only context; the
// sparse path must re-search from the start of the datatype.
func (p *Packer) nextSingle(scratch []byte) Chunk {
	saved := p.cur.BytesEmitted()

	// Look-ahead (destructive): examine up to LookAhead segments, stopping
	// once a pipeline's worth of data has been classified.
	segs, bytes := p.cur.AdvanceSegments(p.opt.LookAhead, p.scratchSegs)
	p.scratchSegs = segs[:0]
	p.m.ScannedSegments += int64(len(segs))

	if p.isDense(bytes, len(segs)) {
		// Dense: the scanned region is transmitted directly from the user
		// buffer; the context conveniently already sits past it.
		p.m.DirectBytes += int64(bytes)
		p.m.DirectSegments += int64(len(segs))
		return Chunk{Segs: segs, Direct: true, Bytes: bytes}
	}

	// Sparse: the position to pack from was lost to the look-ahead.
	// Re-search the datatype from the beginning — the real linear walk
	// whose repetition makes total search time quadratic.
	p.m.Searches++
	p.m.SearchSegments += p.cur.SeekBytes(saved)
	return p.packInto(scratch)
}

// nextDual is the paper's engine: the look-ahead runs on a clone and reads
// only the signature; the pack context never loses its place.
func (p *Packer) nextDual(scratch []byte) Chunk {
	segs, bytes := p.cur.PeekSegments(p.opt.LookAhead, p.scratchSegs)
	p.scratchSegs = segs[:0]
	p.m.ScannedSegments += int64(len(segs))

	if p.isDense(bytes, len(segs)) {
		// Advance the pack context over exactly the scanned segments and
		// emit them directly.
		adv, advBytes := p.cur.AdvanceSegments(len(segs), p.scratchSegs)
		p.scratchSegs = adv[:0]
		p.m.DirectBytes += int64(advBytes)
		p.m.DirectSegments += int64(len(adv))
		return Chunk{Segs: adv, Direct: true, Bytes: advBytes}
	}
	return p.packInto(scratch)
}

// isDense applies the density heuristic over a scanned window.
func (p *Packer) isDense(bytes, segs int) bool {
	if segs == 0 {
		return false
	}
	return bytes/segs >= p.opt.DenseThreshold
}

// packInto copies up to one pipeline granule from the current position into
// scratch.
func (p *Packer) packInto(scratch []byte) Chunk {
	budget := p.opt.Pipeline
	n := 0
	for n < budget {
		off, l, ok := p.cur.NextRun(budget - n)
		if !ok {
			break
		}
		copy(scratch[n:n+l], p.buf[off:off+l])
		n += l
		p.m.PackedSegments++
	}
	p.m.PackedBytes += int64(n)
	return Chunk{Data: scratch[:n], Bytes: n}
}

// Unpacker scatters an in-order byte stream into count instances of a
// datatype laid out in buf — the receive side of a noncontiguous transfer.
type Unpacker struct {
	buf []byte
	cur *Cursor
	m   Metrics
}

// NewUnpacker returns an Unpacker writing into count instances of t in buf.
func NewUnpacker(t *Type, count int, buf []byte) *Unpacker {
	if need := RequiredBytes(t, count); len(buf) < need {
		panic("datatype: buffer smaller than type map extent")
	}
	return &Unpacker{buf: buf, cur: NewCursor(t, count)}
}

// Consume scatters data into the next positions of the type map.  It panics
// if more bytes arrive than the type map holds.  A segment counts once in the
// metrics however many pieces it arrives in, so a stream consumed chunk by
// chunk is accounted like one consumed whole.
func (u *Unpacker) Consume(data []byte) { u.advance(len(data), data) }

// Skip steps over the next n bytes of the stream as Consume would, counting
// the same work, and writes none of them: for a caller that prices an unpack
// whose bytes are already where they belong.
func (u *Unpacker) Skip(n int) { u.advance(n, nil) }

// advance moves the type map on by n bytes, landing them from data unless it
// is nil.
func (u *Unpacker) advance(n int, data []byte) {
	for n > 0 {
		off, l, ok := u.cur.NextRun(n)
		if !ok {
			panic("datatype: unpack overflow: more data than type map")
		}
		if data != nil {
			copy(u.buf[off:off+l], data[:l])
			data = data[l:]
		}
		n -= l
		u.m.PackedBytes += int64(l)
	}
	u.m.PackedSegments = u.cur.SegmentsSeen()
}

// Done reports whether the whole type map has been filled.
func (u *Unpacker) Done() bool { return u.cur.Done() }

// BytesWritten returns the number of data bytes unpacked so far.
func (u *Unpacker) BytesWritten() int64 { return u.cur.BytesEmitted() }

// Metrics returns the unpack work counters.
func (u *Unpacker) Metrics() Metrics { return u.m }

// Pack is a convenience that packs count instances of t from buf into a
// single contiguous byte slice.  It goes through the compiled-plan layer
// (cached per layout); use NewPacker with an explicit engine kind to
// exercise the streaming engines.
func Pack(t *Type, count int, buf []byte) []byte {
	p := PlanFor(t, count)
	out := make([]byte, p.Bytes())
	p.Pack(buf, out)
	return out
}

// PackEngine packs count instances of t from buf with the given streaming
// engine — the interpreted oracle plan-based packing is tested against.
func PackEngine(kind EngineKind, t *Type, count int, buf []byte) []byte {
	out := make([]byte, 0, int64(t.Size())*int64(count))
	p := NewPacker(kind, t, count, buf, Options{})
	scratch := make([]byte, DefaultOptions.Pipeline)
	for {
		c, ok := p.NextChunk(scratch)
		if !ok {
			break
		}
		if c.Direct {
			for _, s := range c.Segs {
				out = append(out, buf[s.Off:s.Off+s.Len]...)
			}
		} else {
			out = append(out, c.Data...)
		}
	}
	return out
}

// Unpack is a convenience that scatters packed data into count instances of
// t in buf through the compiled-plan layer.  It panics if data does not
// exactly fill the type map.
func Unpack(t *Type, count int, buf []byte, data []byte) {
	p := PlanFor(t, count)
	if len(data) != p.Bytes() {
		panic("datatype: unpack underflow: data does not fill type map")
	}
	p.Unpack(buf, data)
}
