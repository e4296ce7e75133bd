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
// per rank.
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
	n := c.Size()
	if len(sends) != n || len(recvs) != n {
		panic(fmt.Sprintf("mpi: alltoallw needs %d specs, got %d/%d", n, len(sends), len(recvs)))
	}
	c.collStart("Alltoallw")
	tag := c.collTag()
	opStart := c.me.clock
	var zero, small, large int
	hier := false
	switch c.w.cfg.Alltoallw {
	case ATRoundRobin:
		// The baseline couples every pair; it cannot route around a dead
		// peer, so it fails fast instead.
		c.requireLive()
		c.a2awRoundRobin(tag, sendbuf, sends, recvbuf, recvs)
	case ATBinned:
		// With a node topology and no degradation in flight the binned
		// exchange runs hierarchically through the node leaders; see
		// hier.go.  The receive specs fix data placement, so the result
		// is bitwise-identical either way.
		if topo := c.hierTopo(); topo != nil {
			zero, small, large = c.a2awHier(tag, sendbuf, sends, recvbuf, recvs, topo)
			hier = true
		} else {
			zero, small, large = c.a2awBinned(tag, sendbuf, sends, recvbuf, recvs)
		}
	default:
		panic("mpi: unknown alltoallw algorithm")
	}
	if c.me.tracer.Enabled() {
		var vol int64
		for _, s := range sends {
			vol += int64(s.Bytes())
		}
		attrs := []obs.Attr{{Key: "algo", Val: c.w.cfg.Alltoallw.String()}}
		if c.w.cfg.Alltoallw == ATBinned {
			attrs = append(attrs,
				obs.Attr{Key: "zero_bin", Val: strconv.Itoa(zero)},
				obs.Attr{Key: "small_bin", Val: strconv.Itoa(small)},
				obs.Attr{Key: "large_bin", Val: strconv.Itoa(large)},
				obs.Attr{Key: "hier", Val: strconv.FormatBool(hier)})
		}
		c.me.tracer.Emit(obs.Span{Rank: c.me.rank, Kind: "alltoallw", Peer: -1,
			Bytes: vol, Start: opStart, End: c.me.clock, Clock: obs.ClockVirtual, Attrs: attrs})
	}
}

// sendSpec transmits one spec to dst (possibly zero bytes, which still
// costs a message).
func (c *Comm) sendSpec(dst, tag int, buf []byte, s TypeSpec) {
	if s.Bytes() == 0 {
		c.send(dst, tag, nil)
		return
	}
	c.sendType(dst, tag, s.Type, s.Count, buf[s.Displ:])
}

// recvSpec receives one spec from src.
func (c *Comm) recvSpec(src, tag int, buf []byte, s TypeSpec) {
	if s.Bytes() == 0 {
		c.recvInto(src, tag, nil, 0, nil) // anything but an empty message overflows
		return
	}
	c.recvInto(src, tag, s.Type, s.Count, buf[s.Displ:])
}

// a2awRoundRobin is the baseline: N sequential pairwise exchanges, peer k
// of rank r being (r+k) mod N, zero-byte pairs included.
func (c *Comm) a2awRoundRobin(tag int, sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec) {
	n := c.Size()
	me := c.rank
	for k := 0; k < n; k++ {
		dst := (me + k) % n
		src := (me - k + n) % n
		c.sendSpec(dst, tag, sendbuf, sends[dst])
		c.recvSpec(src, tag, recvbuf, recvs[src])
	}
}

// a2awBinned is the paper's design: zero-volume peers are skipped, the
// rest are processed small-bin first.  Dead peers degrade gracefully: they
// are treated as zero-volume — nothing is sent to them, their receive
// regions are left untouched, and they never enter a bin — so the exchange
// completes among the survivors.  It returns the send-side bin sizes
// (zero-exempted, small, large peers) for the collective's trace span.
func (c *Comm) a2awBinned(tag int, sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec) (zeroBin, smallBin, largeBin int) {
	n := c.Size()
	me := c.rank
	thresh := c.w.cfg.BinThresholdBytes
	anyDown := c.w.anyDown.Load()
	dead := func(r int) bool {
		return anyDown && r != me && c.w.deadRank(c.worldRank(r))
	}

	// Local exchange needs no wire.
	if sends[me].Bytes() > 0 || recvs[me].Bytes() > 0 {
		c.sendSpec(me, tag, sendbuf, sends[me])
		c.recvSpec(me, tag, recvbuf, recvs[me])
	}

	// Post all nonzero receives up front.
	reqs := make([]*Request, 0, n)
	for src := 0; src < n; src++ {
		if src == me || recvs[src].Bytes() == 0 {
			continue
		}
		// A dead peer contributes nothing — unless its message already
		// arrived before it died, in which case it is received normally.
		if dead(src) && !c.queued(src, tag) {
			continue
		}
		s := recvs[src]
		if s.Type.Contig() && s.Type.Size() == s.Type.Extent() {
			reqs = append(reqs, c.Irecv(src, tag, recvbuf[s.Displ:s.Displ+s.Bytes()]))
		} else {
			reqs = append(reqs, c.IrecvType(src, tag, s.Type, s.Count, recvbuf[s.Displ:]))
		}
	}

	// Send bins: small ascending-by-rank first, then large.
	var small, large []int
	for dst := 0; dst < n; dst++ {
		if dst == me || dead(dst) {
			continue
		}
		b := sends[dst].Bytes()
		switch {
		case b == 0: // zero bin: exempted entirely
			zeroBin++
		case b <= thresh:
			small = append(small, dst)
		default:
			large = append(large, dst)
		}
	}
	for _, dst := range small {
		c.sendSpec(dst, tag, sendbuf, sends[dst])
	}
	for _, dst := range large {
		c.sendSpec(dst, tag, sendbuf, sends[dst])
	}

	c.Waitall(reqs)
	return zeroBin, len(small), len(large)
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
