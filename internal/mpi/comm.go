package mpi

import (
	"fmt"
	"strconv"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/simnet"
)

// Comm is a rank's handle on a communicator: all communication goes through
// it.  The Comm passed to World.Run spans every rank; Split derives
// sub-communicators.  A Comm is bound to its rank's goroutine and is not
// safe for concurrent use.
type Comm struct {
	w  *World
	me *proc

	// group lists the world ranks of this communicator's members in comm
	// rank order; nil means the world communicator (identity mapping).
	group []int
	// rank is this process's rank within the communicator.
	rank int
	// ctx is the communicator's context id; messages match only within
	// their communicator.
	ctx uint64
	// displs and vols are Allgatherv's scratch, kept so that a call
	// allocates neither: its counts' displacements and, under the adaptive
	// policy, the counts as the outlier detector's volumes.
	displs []int
	vols   []int64
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.group == nil {
		return len(c.w.procs)
	}
	return len(c.group)
}

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// World returns the world this Comm belongs to.
func (c *Comm) World() *World { return c.w }

// Clock returns the rank's virtual clock in seconds.
func (c *Comm) Clock() float64 { return c.me.clock }

// Tracer returns the world's span recorder; layers above mpi (the solver
// stack) emit their phases through it with Clock() timestamps.
func (c *Comm) Tracer() *obs.Tracer { return c.me.tracer }

// Span records a virtual-clock span for this rank, from start (a Clock()
// timestamp taken when the operation began) to the current clock.  This is
// the hook layers above mpi use to trace their phases; it costs one atomic
// load when tracing is off.
func (c *Comm) Span(kind string, start float64, attrs ...obs.Attr) {
	if !c.me.tracer.Enabled() {
		return
	}
	c.me.tracer.Emit(obs.Span{Rank: c.me.rank, Kind: kind, Peer: -1,
		Start: start, End: c.me.clock, Clock: obs.ClockVirtual, Attrs: attrs})
}

// Stats returns a copy of the rank's statistics.
func (c *Comm) Stats() Stats { return c.me.stats }

// Compute advances the virtual clock by sec seconds of nominal CPU work,
// scaled by the rank's speed factor.
func (c *Comm) Compute(sec float64) {
	c.maybeCrash()
	d := sec / c.me.speed
	start := c.me.clock
	c.me.clock += d
	c.me.stats.ComputeSec += d
	c.me.record("compute", start)
}

// skew injects the deterministic per-collective jitter of the cluster model.
func (c *Comm) skew() {
	sk := c.w.cluster.Skew
	if sk == nil {
		return
	}
	j := sk.Jitter(c.me.rank, c.me.skewSeq)
	c.me.skewSeq++
	start := c.me.clock
	c.me.clock += j
	c.me.stats.SkewSec += j
	c.me.record("skew", start)
}

// collTag returns the reserved tag for collective traffic.  A single
// constant tag suffices: message contexts separate communicators, each
// member executes its communicator's collectives in program order, and
// per-(sender, context) FIFO matching pairs the streams correctly — the
// same reasoning MPICH relies on.  Crucially, tags stay independent of how
// many collectives a rank has executed, so ranks that legitimately sit out
// point-to-point-only collectives (e.g. agglomerated coarse-grid work)
// cannot desynchronize later operations.
func (c *Comm) collTag() int {
	return tagCollBase
}

// linkTo returns the wire parameters of the link to comm rank dst: the
// cluster's intra-node parameters when dst is co-located on a two-level
// cluster, the shared parameters otherwise (always, on a flat cluster).
// Only wire-side fields are read through this; CPU-side datatype costs
// stay on the shared parameters regardless of destination.
func (c *Comm) linkTo(dst int) *simnet.Params {
	return c.w.cluster.LinkParams(c.me.rank, c.worldRank(dst))
}

func (c *Comm) checkPeer(r int) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.Size()))
	}
}

func (c *Comm) checkUserTag(tag int) {
	if tag < 0 || tag >= tagCollBase {
		panic(fmt.Sprintf("mpi: user tag %d out of range [0,%d)", tag, tagCollBase))
	}
}

// Send transmits a contiguous buffer to dst.  The send is eager: it
// deposits the message and returns without waiting for the receiver.  The
// payload is copied, so the caller may reuse data immediately.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.checkPeer(dst)
	c.checkUserTag(tag)
	c.me.call = "Send"
	c.send(dst, tag, data)
}

// send implements Send for both user and internal tags.  dst is a comm
// rank.  A contiguous message does not go through resolve, so that data —
// which is only ever copied — does not escape: resolve's buffer is kept by
// a streaming Packer, and callers reduce and broadcast out of stack buffers.
func (c *Comm) send(dst, tag int, data []byte) {
	m := c.begin(dst)
	m.contiguous(data)
	c.post(dst, tag, m)
}

// SendType packs count instances of t from buf and transmits them to dst
// using the configured pack engine, pipelining packing with transmission.
func (c *Comm) SendType(dst, tag int, t *datatype.Type, count int, buf []byte) {
	c.checkPeer(dst)
	c.checkUserTag(tag)
	c.me.call = "SendType"
	c.sendType(dst, tag, t, count, buf)
}

// sendType implements SendType for user and internal tags.
func (c *Comm) sendType(dst, tag int, t *datatype.Type, count int, buf []byte) {
	m := c.begin(dst)
	c.resolve(&m, t, count, buf, nil)
	c.post(dst, tag, m)
}

// outMsg is an outgoing message: begin opens it, contiguous or resolve
// fills its image and the cost of producing that, post charges the cost and
// sends it.  The image is always wire, a pooled buffer the runtime owns
// until the receiver recycles it.
type outMsg struct {
	self    bool    // addressed to the sending rank
	opStart float64 // clock when the operation began

	wire      []byte
	bytes     int
	granules  []granule        // the pipeline steps that produce and ship the body
	pipelined bool             // the sender stalls on each granule's wire time
	metrics   datatype.Metrics // pack-engine work, for Stats.Datatype
	engine    string           // pack span label; "" for the streaming engines
}

// granule is one step of the send pipeline: the CPU time spent producing a
// piece of the message, then that piece's bytes on the wire.
type granule struct {
	packSec, searchSec float64
	bytes              int
}

// begin opens an outgoing message to comm rank dst: the injected-crash
// check, then the state every representation starts from.
func (c *Comm) begin(dst int) outMsg {
	c.maybeCrash()
	return outMsg{self: dst == c.rank, opStart: c.me.clock, granules: c.me.granules[:0]}
}

// contiguous makes m a pooled copy of data: one granule, no CPU.
func (m *outMsg) contiguous(data []byte) {
	m.bytes = len(data)
	m.wire = datatype.GetBuffer(m.bytes)
	copy(m.wire, data)
	m.granules = append(m.granules, granule{bytes: m.bytes})
}

// resolve fills m with the image of count instances of t in buf: a
// contiguous type is copied as the bytes it is; any other layout is packed
// by the streaming engine or the compiled plan, a granule per pipeline
// chunk.  plan is the compiled plan of (t, count) when the caller already
// holds it; nil has the compiled-plan engine look it up in the cache.
func (c *Comm) resolve(m *outMsg, t *datatype.Type, count int, buf []byte, plan *datatype.Plan) {
	p := c.me
	if t.Contig() && t.Size() == t.Extent() {
		m.contiguous(buf[:t.Size()*count])
		return
	}
	opt := c.w.cfg.Datatype.WithDefaults()
	if c.w.cfg.Engine == datatype.CompiledPlans {
		if plan == nil {
			plan = datatype.PlanFor(t, count)
		}
		m.bytes = plan.Bytes()
		m.wire, m.engine = datatype.GetBuffer(m.bytes), "compiled-plan"
		plan.Pack(buf, m.wire)
		m.pipelined = m.bytes > opt.Pipeline
		var packPerChunk float64
		m.metrics, packPerChunk = c.planPackCost(m.bytes, plan.NumSegments())
		for remaining := m.bytes; ; {
			sz := min(remaining, opt.Pipeline)
			m.granules = append(m.granules, granule{packSec: packPerChunk, bytes: sz})
			if remaining -= sz; remaining == 0 {
				break
			}
		}
		return
	}

	// Streaming engines: multi-chunk messages run the pipelined rendezvous
	// protocol.  The pipeline is memory-bounded (one intermediate buffer)
	// but modeled as time-serialized — pack a granule, put it on the wire,
	// pack the next — which is how much overlap the CH3-era protocol
	// achieved in practice and what makes PETSc's hand-tuned
	// pack-everything-then-send path slightly faster than the datatype
	// path, as the paper measures.
	packer := datatype.NewPacker(c.w.cfg.Engine, t, count, buf, opt)
	m.bytes = int(packer.TotalBytes())
	m.wire = datatype.GetBuffer(m.bytes)[:0]
	m.pipelined = m.bytes > opt.Pipeline
	scratch := p.scratchBuf(opt.Pipeline)
	for {
		chunk, ok := packer.NextChunk(scratch)
		if !ok {
			break
		}
		g := granule{bytes: chunk.Bytes}
		g.packSec, g.searchSec = c.chunkCost(packer.Metrics(), m.metrics)
		m.granules = append(m.granules, g)
		m.metrics = packer.Metrics()
		if chunk.Direct {
			for _, s := range chunk.Segs {
				m.wire = append(m.wire, buf[s.Off:s.Off+s.Len]...)
			}
		} else {
			m.wire = append(m.wire, chunk.Data...)
		}
	}
}

// planPackCost prices packing bytes bytes of nsegs coalesced segments through
// a compiled plan: the engine work it counts as, and the CPU time of each of
// its pipeline chunks.
func (c *Comm) planPackCost(bytes, nsegs int) (m datatype.Metrics, packPerChunk float64) {
	prm := &c.w.cluster.Params
	pipeline := c.w.cfg.Datatype.WithDefaults().Pipeline
	chunks := max(1, (bytes+pipeline-1)/pipeline)
	packPerChunk = (prm.PackPerByte*float64(bytes) +
		prm.SegOverhead*float64(nsegs)) / c.me.speed / float64(chunks)
	return datatype.Metrics{Chunks: int64(chunks),
		PackedBytes: int64(bytes), PackedSegments: int64(nsegs)}, packPerChunk
}

// chunkCost prices the work a streaming Packer did for one chunk, the step
// from prev to now of its counters.
func (c *Comm) chunkCost(now, prev datatype.Metrics) (packSec, searchSec float64) {
	prm := &c.w.cluster.Params
	packSec = (prm.PackPerByte*float64(now.PackedBytes-prev.PackedBytes) +
		prm.SegOverhead*float64(now.PackedSegments-prev.PackedSegments) +
		prm.GatherSegOverhead*float64(now.DirectSegments-prev.DirectSegments) +
		prm.ScanPerSeg*float64(now.ScannedSegments-prev.ScannedSegments)) / c.me.speed
	return packSec, prm.SearchPerSeg * float64(now.SearchSegments-prev.SearchSegments) / c.me.speed
}

// post is the one send pipeline: every outgoing message is charged,
// accounted, dispatched and traced here.
func (c *Comm) post(dst, tag int, m outMsg) {
	p := c.me
	lnk := c.linkTo(dst)

	// The cost model: send overhead, then granule by granule the CPU that
	// produces it and the wire that carries it, the wire never starting
	// before the previous granule has drained.  A pipelined sender stalls
	// on every granule; otherwise the wire runs ahead of the clock.
	p.clock += lnk.SendOverhead / p.speed
	packStart, wireDone, packSec := p.clock, p.clock, 0.0
	for _, g := range m.granules {
		p.clock += g.packSec + g.searchSec
		p.stats.PackSec += g.packSec
		p.stats.SearchSec += g.searchSec
		packSec += g.packSec + g.searchSec
		wireDone = max(wireDone, p.clock) + lnk.WireTime(g.bytes)
		if m.pipelined && !m.self {
			p.clock = wireDone
		}
	}
	p.granules = m.granules[:0]

	arrival := wireDone + lnk.Latency
	rdvz := 0.0
	if m.self {
		arrival = p.clock
	} else if lnk.RendezvousBytes > 0 && m.bytes > lnk.RendezvousBytes {
		// Rendezvous: the sender returns once the last byte has drained.
		rdvz = wireDone - p.clock
		p.clock = wireDone
	}
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(m.bytes)
	p.stats.Datatype.Add(m.metrics)
	mseq := c.dispatch(dst, tag, m, arrival, lnk.WireTime(m.bytes))
	if p.tracer.Enabled() && packSec > 0 {
		// The modeled pack time, nested inside the send span.  Pack work is
		// really interleaved with wire granules; the span shows its total.
		attrs := make([]obs.Attr, 0, 2)
		if m.engine != "" {
			attrs = append(attrs, obs.Attr{Key: "engine", Val: m.engine})
		}
		attrs = append(attrs, obs.Attr{Key: "segments", Val: strconv.FormatInt(m.metrics.PackedSegments, 10)})
		p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "pack", Peer: dst, Tag: tag,
			Bytes: int64(m.bytes), Start: packStart, End: packStart + packSec,
			Clock: obs.ClockVirtual, Attrs: attrs})
	}
	p.recordSend(dst, tag, m.bytes, m.opStart, c.ctx, c.worldRank(dst), mseq, rdvz)
}

// Recv blocks until a message matching src/tag (wildcards allowed) arrives
// and returns its payload and source rank.
func (c *Comm) Recv(src, tag int) ([]byte, int) {
	c.me.call = "Recv"
	env := c.await(src, tag)
	return env.data, env.src
}

// RecvInto receives a contiguous message into buf and returns the byte
// count and source.  It panics if the message exceeds len(buf).
func (c *Comm) RecvInto(src, tag int, buf []byte) (int, int) {
	c.me.call = "RecvInto"
	return c.recvInto(src, tag, nil, 0, buf, nil)
}

// RecvType receives a message and scatters it into count instances of t in
// buf.  The payload size must match the type map exactly.
func (c *Comm) RecvType(src, tag int, t *datatype.Type, count int, buf []byte) int {
	c.me.call = "RecvType"
	_, from := c.recvInto(src, tag, t, count, buf, nil)
	return from
}

// await blocks until a message for this communicator matching src/tag
// (wildcards allowed; src is a comm rank) arrives, removes it from the
// mailbox and completes its receipt.  A failure of the awaited peer — or a
// watchdog-detected deadlock — aborts the wait with a typed communication
// error (see matchE and Guard).  The caller owns env.data: it either keeps
// the payload or recycles it.
func (c *Comm) await(src, tag int) *envelope {
	env, err := c.matchE(src, tag, 0)
	if err != nil {
		throwErr(err)
	}
	c.completeRecv(env)
	return env
}

// recvInto is the one receive completion behind RecvInto, RecvType,
// recvSpec and Request.Wait: await the message, land its payload in buf
// (see unpackInto) and return the payload size and the source.
func (c *Comm) recvInto(src, tag int, t *datatype.Type, count int, buf []byte, plan *datatype.Plan) (n, from int) {
	env := c.await(src, tag)
	n = len(env.data)
	c.unpackInto(env.data, t, count, buf, plan)
	return n, env.src
}

// completeRecv advances the clock to the arrival time and charges the
// receive overhead.
func (c *Comm) completeRecv(env *envelope) {
	p := c.me
	prm := &c.w.cluster.Params
	opStart := p.clock
	wait := 0.0
	if !c.w.wall {
		// Arrival stamps come from the sender's virtual clock; across
		// wall-clock processes the clocks are uncoupled, so there the stamp
		// is meaningless and the block is measured in wall time by matchE.
		if env.arrival > p.clock {
			wait = env.arrival - p.clock
			p.stats.WaitSec += wait
			p.clock = env.arrival
		}
	} else {
		wait = p.lastWaitSec
		p.lastWaitSec = 0
	}
	p.clock += prm.RecvOverhead / p.speed
	p.stats.MsgsRecv++
	p.stats.BytesRecv += int64(len(env.data))
	srcWorld := c.worldRank(env.src)
	if wait > 0 {
		c.w.matrix.addWait(srcWorld, p.rank, wait)
	}
	p.recordRecv(env.src, env.tag, len(env.data), opStart, c.ctx, srcWorld, env.mseq, wait)
	// A scheduled crash inside the wait fires once the clock crosses it.
	c.maybeCrash()
}

// unpackInto lands a received payload in buf — scattered through count
// instances of t, charging unpack cost for noncontiguous layouts, or, with
// a nil t, copied as the contiguous bytes it is — and returns its backing
// array to the shared buffer pool.  Contiguous receives land directly
// (rendezvous-style) at no CPU cost.  A typed payload must match the type
// map exactly; an untyped one must fit buf.  plan is as in resolve.
func (c *Comm) unpackInto(payload []byte, t *datatype.Type, count int, buf []byte, plan *datatype.Plan) {
	if t == nil {
		if len(payload) > len(buf) {
			panic(fmt.Sprintf("mpi: message of %d bytes overflows %d-byte buffer", len(payload), len(buf)))
		}
	} else if want := t.Size() * count; len(payload) != want {
		panic(fmt.Sprintf("mpi: type map of %d bytes but payload is %d bytes", want, len(payload)))
	}
	if t == nil || (t.Contig() && t.Size() == t.Extent()) {
		copy(buf, payload)
		datatype.PutBuffer(payload)
		return
	}
	p := c.me
	var m datatype.Metrics
	if c.w.cfg.Engine == datatype.CompiledPlans {
		if plan == nil {
			plan = datatype.PlanFor(t, count)
		}
		plan.Unpack(buf, payload)
		m = datatype.Metrics{PackedBytes: int64(len(payload)), PackedSegments: int64(plan.NumSegments())}
	} else {
		u := datatype.NewUnpacker(t, count, buf)
		u.Consume(payload)
		m = u.Metrics()
	}
	unpackStart := p.clock
	c.chargeUnpack(m)
	if p.tracer.Enabled() {
		p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "unpack", Peer: -1,
			Bytes: int64(len(payload)), Start: unpackStart, End: p.clock, Clock: obs.ClockVirtual,
			Attrs: []obs.Attr{{Key: "segments", Val: strconv.FormatInt(m.PackedSegments, 10)}}})
	}
	datatype.PutBuffer(payload)
}

// chargeUnpack charges the CPU time of scattering a payload into a
// noncontiguous layout, m being the work the engine counted for it.
func (c *Comm) chargeUnpack(m datatype.Metrics) {
	p := c.me
	prm := &c.w.cluster.Params
	packSec := (prm.PackPerByte*float64(m.PackedBytes) +
		prm.SegOverhead*float64(m.PackedSegments)) / p.speed
	p.clock += packSec
	p.stats.PackSec += packSec
	p.stats.Datatype.Add(m)
}

// ChargeHandPack charges virtual CPU time for an application-level
// hand-tuned pack or unpack loop (bytes copied through elems indexed
// elements), accounted as pack time.  PETSc's default scatter path uses
// this instead of the MPI datatype engine.
func (c *Comm) ChargeHandPack(bytes, elems int64) {
	prm := &c.w.cluster.Params
	sec := (prm.PackPerByte*float64(bytes) + prm.HandSegOverhead*float64(elems)) / c.me.speed
	c.me.clock += sec
	c.me.stats.PackSec += sec
}

// Request represents a pending nonblocking operation.
type Request struct {
	c    *Comm
	done bool

	// receive parameters (nil t means contiguous into buf; plan as in
	// unpackInto)
	isRecv bool
	src    int
	tag    int
	t      *datatype.Type
	count  int
	buf    []byte
	plan   *datatype.Plan

	// result for contiguous receives
	n       int
	recvSrc int
}

// Isend starts a nonblocking contiguous send.  The payload is captured
// immediately; the returned request completes instantly.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.Send(dst, tag, data)
	return &Request{c: c, done: true}
}

// Irecv posts a nonblocking contiguous receive into buf.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	return &Request{c: c, isRecv: true, src: src, tag: tag, buf: buf}
}

// Wait blocks until the request completes.  For receives it returns the
// payload size in bytes and the source rank.
func (r *Request) Wait() (int, int) {
	if r.done {
		return r.n, r.recvSrc
	}
	r.done = true
	r.c.me.call = "Wait"
	r.n, r.recvSrc = r.c.recvInto(r.src, r.tag, r.t, r.count, r.buf, r.plan)
	return r.n, r.recvSrc
}

// Waitall completes every request in rs.
func (c *Comm) Waitall(rs []*Request) {
	for _, r := range rs {
		if r != nil {
			r.Wait()
		}
	}
}
