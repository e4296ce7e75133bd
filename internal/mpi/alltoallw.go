package mpi

import (
	"fmt"
	"strconv"

	"nccd/internal/datatype"
	"nccd/internal/obs"
)

// TypeSpec describes one peer's slot in an Alltoallw exchange: Count
// instances of Type starting Displ bytes into the buffer.  A nil Type or
// zero Count means no data is exchanged with that peer.
type TypeSpec struct {
	Type  *datatype.Type
	Count int
	Displ int
}

// Bytes returns a contiguous datatype of n bytes, the common TypeSpec
// element for untyped payloads.
func Bytes(n int) *datatype.Type { return datatype.Contiguous(n, datatype.Byte) }

// Bytes returns the data volume the spec describes.
func (s TypeSpec) Bytes() int {
	if s.Type == nil || s.Count == 0 {
		return 0
	}
	return s.Type.Size() * s.Count
}

// Alltoallw performs the fully general all-to-all exchange: rank i sends
// sends[j] to rank j and receives recvs[j] from rank j, with per-peer
// datatypes, counts and displacements.  sends and recvs must have one entry
// per rank.  It is AlltoallwInit, Start and Wait in one call; a caller that
// repeats an exchange keeps the Exchange instead.
//
// Two algorithms are available (Config.Alltoallw):
//
//   - ATRoundRobin (baseline MPICH2): every rank exchanges with every other
//     rank in round-robin order — including zero-byte pairs, each of which
//     adds a synchronization step — and packs messages in peer order, so a
//     large noncontiguous message delays every peer that comes after it.
//   - ATBinned (the paper's design): peers are split into three bins —
//     zero-volume peers are exempted entirely, small messages are packed
//     and sent before large ones — so lightly coupled neighbors are never
//     delayed by heavy processing destined elsewhere.
func (c *Comm) Alltoallw(sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec) {
	e := c.AlltoallwInit(sends, recvs)
	e.Start(sendbuf, recvbuf)
	e.Wait()
}

// Exchange is a persistent Alltoallw, after MPI-4's MPI_Alltoallw_init: what
// the specs determine — the compiled plan of every peer's layout, the copy
// program of the rank's own slot, the peers a receive is posted for, the
// order of the sends with the small bin ahead of the large one, the zero-bin
// count, a request slot per receive — is worked out once by AlltoallwInit,
// and each Start/Wait pair runs one exchange over it with no plan-cache
// lookup, no rescan of the ranks and no allocation.  An Exchange belongs to
// its Comm's rank and carries at most one exchange at a time.
type Exchange struct {
	c            *Comm
	sends, recvs []TypeSpec

	local           *datatype.CopyPlan // sends[me] into recvs[me]; see localPart
	in              []exchRecv         // peers with a nonzero receive, ascending
	out             []exchSend         // peers with a nonzero send: out[:nSmall] the small bin, ascending, then the large
	nSmall, zeroBin int
	vol             int64 // bytes the send specs describe, for the trace span

	// The exchange in flight.
	started bool
	opStart float64
}

type exchRecv struct {
	peer int
	plan *datatype.Plan
	req  Request
}

type exchSend struct {
	peer int
	plan *datatype.Plan
}

// AlltoallwInit prepares the exchange the specs describe; see Alltoallw for
// their meaning.  The Exchange keeps sends and recvs, which must not change
// while it is in use.  Local: no communication happens until Start.
func (c *Comm) AlltoallwInit(sends, recvs []TypeSpec) *Exchange {
	n := c.Size()
	if len(sends) != n || len(recvs) != n {
		panic(fmt.Sprintf("mpi: alltoallw needs %d specs, got %d/%d", n, len(sends), len(recvs)))
	}
	me := c.rank
	thresh := c.w.cfg.BinThresholdBytes
	e := &Exchange{c: c, sends: sends, recvs: recvs}
	// A local part whose two sides differ in size is refused by localPart.
	if b := sends[me].Bytes(); b > 0 && b == recvs[me].Bytes() && c.w.cfg.Engine == datatype.CompiledPlans {
		e.local = datatype.CompileCopy(sends[me].Type, sends[me].Count, recvs[me].Type, recvs[me].Count)
	}
	nIn, nOut := 0, 0
	for r := 0; r < n; r++ {
		e.vol += int64(sends[r].Bytes())
		if r == me {
			continue
		}
		if recvs[r].Bytes() > 0 {
			nIn++
		}
		switch b := sends[r].Bytes(); {
		case b == 0:
			e.zeroBin++
		case b <= thresh:
			e.nSmall++
			nOut++
		default:
			nOut++
		}
	}
	e.in = make([]exchRecv, 0, nIn)
	e.out = make([]exchSend, nOut)
	small, large := 0, e.nSmall
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		if recvs[r].Bytes() > 0 {
			e.in = append(e.in, exchRecv{peer: r, plan: c.planOf(recvs[r])})
		}
		switch b := sends[r].Bytes(); {
		case b == 0:
		case b <= thresh:
			e.out[small] = exchSend{r, c.planOf(sends[r])}
			small++
		default:
			e.out[large] = exchSend{r, c.planOf(sends[r])}
			large++
		}
	}
	return e
}

// planOf resolves the compiled plan a spec packs or unpacks through, or nil
// when it goes through none: an empty or contiguous spec, a streaming engine.
func (c *Comm) planOf(s TypeSpec) *datatype.Plan {
	if c.w.cfg.Engine != datatype.CompiledPlans || s.Bytes() == 0 || s.contig() {
		return nil
	}
	return datatype.PlanFor(s.Type, s.Count)
}

// contig reports whether the spec's bytes lie back to back in the buffer.
func (s TypeSpec) contig() bool { return s.Type.Contig() && s.Type.Size() == s.Type.Extent() }

// Start begins one exchange: the local part is copied, the receives are
// posted and every send is packed and launched, small bin first.  sendbuf
// must not change and recvbuf must not be read until Wait returns; the caller
// may compute in between.  As MPI requires of MPI_Alltoallw, sendbuf and
// recvbuf must not overlap.  A typed communication error raised here leaves
// the Exchange idle, so a Guard-ed caller may Start again.
func (e *Exchange) Start(sendbuf, recvbuf []byte) { e.start(sendbuf, recvbuf, true) }

// StartRemote is Start for a caller that reads the local part where it lies
// in sendbuf: the rank's own slot is checked and charged as Start's local
// copy is, and none of it is moved, so that part of recvbuf keeps what it
// held.  Only there may the two buffers overlap.
func (e *Exchange) StartRemote(sendbuf, recvbuf []byte) { e.start(sendbuf, recvbuf, false) }

func (e *Exchange) start(sendbuf, recvbuf []byte, moveLocal bool) {
	if e.started {
		panic("mpi: Exchange.Start with an exchange already in flight")
	}
	c := e.c
	c.collStart("Alltoallw")
	c.requireLive()
	tag := c.collTag()
	e.opStart = c.me.clock
	switch c.w.cfg.Alltoallw {
	case ATRoundRobin:
		c.a2awRoundRobin(tag, sendbuf, e.sends, recvbuf, e.recvs, e.local, moveLocal)
		for i := range e.in {
			e.in[i].req = Request{done: true}
		}
	case ATBinned:
		e.startBinned(tag, sendbuf, recvbuf, moveLocal)
	default:
		panic("mpi: unknown alltoallw algorithm")
	}
	e.started = true
}

// startBinned is the paper's design: zero-volume peers are skipped, the
// rest are processed small-bin first.
func (e *Exchange) startBinned(tag int, sendbuf, recvbuf []byte, moveLocal bool) {
	c := e.c
	me := c.rank

	// The local part needs no wire and no message.
	if e.sends[me].Bytes() > 0 || e.recvs[me].Bytes() > 0 {
		c.localPart(sendbuf, e.sends[me], recvbuf, e.recvs[me], e.local, moveLocal)
	}

	// Post all nonzero receives up front.
	for i := range e.in {
		r := &e.in[i]
		s := e.recvs[r.peer]
		r.req = Request{c: c, isRecv: true, src: r.peer, tag: tag, plan: r.plan}
		if s.contig() {
			r.req.buf = recvbuf[s.Displ : s.Displ+s.Bytes()]
		} else {
			r.req.t, r.req.count, r.req.buf = s.Type, s.Count, recvbuf[s.Displ:]
		}
	}

	// Send bins: small ascending-by-rank first, then large.
	for _, o := range e.out {
		c.sendSpec(o.peer, tag, sendbuf, e.sends[o.peer], o.plan)
	}
}

// Wait completes the exchange begun by the matching Start: the posted
// receives are awaited in rank order and unpacked into Start's recvbuf.
func (e *Exchange) Wait() {
	if !e.started {
		panic("mpi: Exchange.Wait without a matching Start")
	}
	e.started = false
	for i := range e.in {
		e.in[i].req.Wait()
	}
	c := e.c
	if c.me.tracer.Enabled() {
		attrs := []obs.Attr{{Key: "algo", Val: c.w.cfg.Alltoallw.String()}}
		if c.w.cfg.Alltoallw == ATBinned {
			attrs = append(attrs,
				obs.Attr{Key: "zero_bin", Val: strconv.Itoa(e.zeroBin)},
				obs.Attr{Key: "small_bin", Val: strconv.Itoa(e.nSmall)},
				obs.Attr{Key: "large_bin", Val: strconv.Itoa(len(e.out) - e.nSmall)})
		}
		c.me.tracer.Emit(obs.Span{Rank: c.me.rank, Kind: "alltoallw", Peer: -1,
			Bytes: e.vol, Start: e.opStart, End: c.me.clock, Clock: obs.ClockVirtual, Attrs: attrs})
	}
}

// localPart serves the calling rank's own slot of an exchange, the bytes of s
// in sendbuf and the layout r of recvbuf, with no message: no packed image,
// no envelope, nothing in Stats' message counts or on the CommMatrix
// diagonal.  It has two halves.  The charge is always paid; the move happens
// only when move is set (Start), and not at all for a caller that reads those
// bytes where they lie (StartRemote), which leaves recvbuf untouched.
//
// The charge: the virtual clock models the paper's MPI, which does send to
// itself, so it is charged what that message was charged, the same increments
// in the same order: send overhead, each granule's pack and search time,
// receive overhead, unpack.  The checks of that message stay too: an injected
// crash fires before and after, a revoked communicator raises ErrRevoked
// before recvbuf is touched, and the two sides must agree in size.
//
// The move: under the compiled-plan engine cp, the copy program of the pair,
// priced from its segment counts alone.  A streaming engine is priced by what
// its Packer and Unpacker count as they walk the two layouts, so they walk
// them either way: the Packer's chunks go through the rank's scratch buffer
// into the Unpacker, which lands them or, unmoved, only steps over them.
func (c *Comm) localPart(sendbuf []byte, s TypeSpec, recvbuf []byte, r TypeSpec, cp *datatype.CopyPlan, move bool) {
	p := c.me
	prm := &c.w.cluster.Params
	c.maybeCrash()
	if c.w.isRevoked(c.ctx) {
		throwErr(&RevokedError{Call: c.callOr("Send")})
	}
	n := s.Bytes()
	if want := r.Bytes(); n != want {
		panic(fmt.Sprintf("mpi: type map of %d bytes but payload is %d bytes", want, n))
	}
	start := p.clock
	packed, unpacked := n > 0 && !s.contig(), n > 0 && !r.contig() // else a contiguous message: no CPU
	var src, dst []byte
	if n > 0 {
		src, dst = sendbuf[s.Displ:], recvbuf[r.Displ:]
	}

	p.clock += c.linkTo(c.rank).SendOverhead / p.speed
	var sent, rcvd datatype.Metrics
	if c.w.cfg.Engine == datatype.CompiledPlans {
		if packed {
			var packPerChunk float64
			sent, packPerChunk = c.planPackCost(n, cp.SendSegments())
			for i := int64(0); i < sent.Chunks; i++ {
				p.clock += packPerChunk
				p.stats.PackSec += packPerChunk
			}
		}
		if unpacked {
			rcvd = datatype.Metrics{PackedBytes: int64(n), PackedSegments: int64(cp.RecvSegments())}
		}
		if n > 0 && move {
			cp.Copy(dst, src)
		}
	} else if n > 0 {
		// land takes the next piece of the packed stream into the receive
		// layout.
		var u *datatype.Unpacker
		if unpacked {
			u = datatype.NewUnpacker(r.Type, r.Count, dst)
		}
		at := 0
		land := func(piece []byte) {
			switch {
			case !move:
				if u != nil {
					u.Skip(len(piece))
				}
			case u != nil:
				u.Consume(piece)
			default:
				at += copy(dst[at:n], piece)
			}
		}
		if packed {
			opt := c.w.cfg.Datatype.WithDefaults()
			packer := datatype.NewPacker(c.w.cfg.Engine, s.Type, s.Count, src, opt)
			scratch := p.scratchBuf(opt.Pipeline)
			for {
				chunk, ok := packer.NextChunk(scratch)
				if !ok {
					break
				}
				packSec, searchSec := c.chunkCost(packer.Metrics(), sent)
				p.clock += packSec + searchSec
				p.stats.PackSec += packSec
				p.stats.SearchSec += searchSec
				sent = packer.Metrics()
				if chunk.Direct {
					for _, seg := range chunk.Segs {
						land(src[seg.Off : seg.Off+seg.Len])
					}
				} else {
					land(chunk.Data)
				}
			}
		} else {
			land(src[:n])
		}
		if u != nil {
			rcvd = u.Metrics()
		}
	}
	p.stats.Datatype.Add(sent)

	p.clock += prm.RecvOverhead / p.speed
	c.maybeCrash()
	if unpacked {
		c.chargeUnpack(rcvd)
	}
	if p.tracer.Enabled() {
		p.tracer.Emit(obs.Span{Rank: p.rank, Kind: "localcopy", Peer: -1,
			Bytes: int64(n), Start: start, End: p.clock, Clock: obs.ClockVirtual})
	}
}

// sendSpec transmits one spec to dst (possibly zero bytes, which still
// costs a message).  plan is the spec's compiled plan when the caller holds
// it, nil otherwise.
func (c *Comm) sendSpec(dst, tag int, buf []byte, s TypeSpec, plan *datatype.Plan) {
	if s.Bytes() == 0 {
		c.send(dst, tag, nil)
		return
	}
	m := c.begin(dst)
	c.resolve(&m, s.Type, s.Count, buf[s.Displ:], plan)
	c.post(dst, tag, m)
}

// recvSpec receives one spec from src.
func (c *Comm) recvSpec(src, tag int, buf []byte, s TypeSpec, plan *datatype.Plan) {
	if s.Bytes() == 0 {
		c.recvInto(src, tag, nil, 0, nil, nil) // anything but an empty message overflows
		return
	}
	c.recvInto(src, tag, s.Type, s.Count, buf[s.Displ:], plan)
}

// a2awRoundRobin is the baseline: N sequential pairwise exchanges, peer k
// of rank r being (r+k) mod N, zero-byte pairs included.  Step 0, the rank's
// own slot, is a local copy.
func (c *Comm) a2awRoundRobin(tag int, sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec, local *datatype.CopyPlan, moveLocal bool) {
	n := c.Size()
	me := c.rank
	c.localPart(sendbuf, sends[me], recvbuf, recvs[me], local, moveLocal)
	for k := 1; k < n; k++ {
		dst := (me + k) % n
		src := (me - k + n) % n
		c.sendSpec(dst, tag, sendbuf, sends[dst], nil)
		c.recvSpec(src, tag, recvbuf, recvs[src], nil)
	}
}

// Alltoall performs the uniform all-to-all exchange of blockBytes per peer
// from contiguous buffers, a convenience built on Alltoallw.
func (c *Comm) Alltoall(sendbuf []byte, blockBytes int, recvbuf []byte) {
	n := c.Size()
	if len(sendbuf) < n*blockBytes || len(recvbuf) < n*blockBytes {
		panic("mpi: alltoall buffer too small")
	}
	sends := make([]TypeSpec, n)
	recvs := make([]TypeSpec, n)
	for r := 0; r < n; r++ {
		sends[r] = TypeSpec{Type: datatype.Byte, Count: blockBytes, Displ: r * blockBytes}
		recvs[r] = TypeSpec{Type: datatype.Byte, Count: blockBytes, Displ: r * blockBytes}
	}
	c.Alltoallw(sendbuf, sends, recvbuf, recvs)
}
