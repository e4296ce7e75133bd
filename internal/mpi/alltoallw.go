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
// the specs determine — the compiled plan of every peer's layout, the peers
// a receive is posted for, the order of the sends with the small bin ahead
// of the large one, the zero-bin count, a request slot per receive — is
// worked out once by AlltoallwInit, and each Start/Wait pair runs one
// exchange over it with no plan-cache lookup, no rescan of the ranks and no
// allocation.  An Exchange belongs to its Comm's rank and carries at most
// one exchange at a time.
type Exchange struct {
	c            *Comm
	sends, recvs []TypeSpec

	selfSend, selfRecv *datatype.Plan
	in                 []exchRecv // peers with a nonzero receive, ascending
	out                []exchSend // peers with a nonzero send: out[:nSmall] the small bin, ascending, then the large
	nSmall, zeroBin    int
	vol                int64 // bytes the send specs describe, for the trace span

	// The exchange in flight.
	started            bool
	opStart            float64
	zero, small, large int // the bins as this exchange saw them, for the trace span
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
	e := &Exchange{c: c, sends: sends, recvs: recvs,
		selfSend: c.planOf(sends[me]), selfRecv: c.planOf(recvs[me])}
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

// Start begins one exchange: the local part is applied, the receives are
// posted and every send is packed and launched, small bin first.  sendbuf
// must not change and recvbuf must not be read until Wait returns; the caller
// may compute in between.  A typed communication error raised here leaves
// the Exchange idle, so a Guard-ed caller may Start again.
func (e *Exchange) Start(sendbuf, recvbuf []byte) {
	if e.started {
		panic("mpi: Exchange.Start with an exchange already in flight")
	}
	c := e.c
	c.collStart("Alltoallw")
	tag := c.collTag()
	e.opStart = c.me.clock
	switch c.w.cfg.Alltoallw {
	case ATRoundRobin:
		// The baseline couples every pair; it cannot route around a dead
		// peer, so it fails fast instead.  It has nothing left to wait for.
		c.requireLive()
		c.a2awRoundRobin(tag, sendbuf, e.sends, recvbuf, e.recvs)
		for i := range e.in {
			e.in[i].req = Request{done: true}
		}
	case ATBinned:
		e.startBinned(tag, sendbuf, recvbuf)
	default:
		panic("mpi: unknown alltoallw algorithm")
	}
	e.started = true
}

// startBinned is the paper's design: zero-volume peers are skipped, the
// rest are processed small-bin first.  Dead peers degrade gracefully: they
// are treated as zero-volume — nothing is sent to them, their receive
// regions are left untouched, and they never enter a bin — so the exchange
// completes among the survivors.
func (e *Exchange) startBinned(tag int, sendbuf, recvbuf []byte) {
	c := e.c
	me := c.rank
	anyDown := c.w.anyDown.Load()
	dead := func(r int) bool { return anyDown && c.w.deadRank(c.worldRank(r)) }

	// Local exchange needs no wire.
	if e.sends[me].Bytes() > 0 || e.recvs[me].Bytes() > 0 {
		c.sendSpec(me, tag, sendbuf, e.sends[me], e.selfSend)
		c.recvSpec(me, tag, recvbuf, e.recvs[me], e.selfRecv)
	}

	// Post all nonzero receives up front.  A dead peer contributes nothing —
	// unless its message already arrived before it died, in which case it is
	// received normally.
	for i := range e.in {
		r := &e.in[i]
		s := e.recvs[r.peer]
		r.req = Request{c: c, isRecv: true, src: r.peer, tag: tag, plan: r.plan,
			done: dead(r.peer) && !c.queued(r.peer, tag)}
		if s.contig() {
			r.req.buf = recvbuf[s.Displ : s.Displ+s.Bytes()]
		} else {
			r.req.t, r.req.count, r.req.buf = s.Type, s.Count, recvbuf[s.Displ:]
		}
	}

	// Send bins: small ascending-by-rank first, then large.
	for _, o := range e.out {
		if !dead(o.peer) {
			c.sendSpec(o.peer, tag, sendbuf, e.sends[o.peer], o.plan)
		}
	}
	e.zero, e.small, e.large = e.zeroBin, e.nSmall, len(e.out)-e.nSmall
	for r := 0; anyDown && r < len(e.sends); r++ { // a dead peer is in no bin
		if r == me || !dead(r) {
			continue
		}
		switch b := e.sends[r].Bytes(); {
		case b == 0:
			e.zero--
		case b <= c.w.cfg.BinThresholdBytes:
			e.small--
		default:
			e.large--
		}
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
				obs.Attr{Key: "zero_bin", Val: strconv.Itoa(e.zero)},
				obs.Attr{Key: "small_bin", Val: strconv.Itoa(e.small)},
				obs.Attr{Key: "large_bin", Val: strconv.Itoa(e.large)})
		}
		c.me.tracer.Emit(obs.Span{Rank: c.me.rank, Kind: "alltoallw", Peer: -1,
			Bytes: e.vol, Start: e.opStart, End: c.me.clock, Clock: obs.ClockVirtual, Attrs: attrs})
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
// of rank r being (r+k) mod N, zero-byte pairs included.
func (c *Comm) a2awRoundRobin(tag int, sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec) {
	n := c.Size()
	me := c.rank
	for k := 0; k < n; k++ {
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
