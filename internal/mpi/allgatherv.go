package mpi

import (
	"fmt"
	"math/bits"
	"strconv"

	"nccd/internal/datatype"
	"nccd/internal/kselect"
	"nccd/internal/obs"
)

// Allgatherv gathers variable-size contiguous contributions on every rank.
// data is the local contribution, counts the per-rank byte counts (identical
// on all ranks — part of the call signature in MPI, which is what lets the
// paper's outlier detection run locally with no extra communication), and
// recv the destination buffer of length sum(counts), filled in rank order.
//
// The algorithm is chosen per the world's Config:
//
//   - AGAuto (baseline MPICH2 rule): recursive doubling for short totals on
//     power-of-two worlds, dissemination for short totals otherwise, and the
//     ring algorithm for long totals — chosen purely by total size, which is
//     optimal for uniform volumes but serializes a single large contribution
//     behind N-1 sequential hops.
//   - AGAdaptive (the paper's rule): compute the outlier ratio of the count
//     set with Floyd–Rivest k-select; if the set is nonuniform, use
//     recursive doubling / dissemination so large blocks move along a
//     binomial pattern in ceil(log2 N) phases; otherwise the baseline rule.
//   - AGRing / AGRecursiveDoubling / AGDissemination force an algorithm.
func (c *Comm) Allgatherv(data []byte, counts []int, recv []byte) {
	c.checkCounts(counts)
	me := c.rank
	if len(data) != counts[me] {
		panic(fmt.Sprintf("mpi: allgatherv rank %d contributes %d bytes, counts says %d", me, len(data), counts[me]))
	}
	var total int
	c.displs, total = prefix(c.displs, counts)
	displs := c.displs
	if len(recv) < total {
		panic(fmt.Sprintf("mpi: allgatherv recv buffer %d < total %d", len(recv), total))
	}
	c.collStart("Allgatherv")
	c.requireLive()
	tag := c.collTag()

	n := c.Size()
	copy(recv[displs[me]:], data)
	if n == 1 {
		return
	}

	opStart := c.me.clock
	algo, nonuniform := c.allgathervAlgo(counts, total)
	switch algo {
	case AGRing:
		c.agvRing(tag, counts, displs, recv)
	case AGRecursiveDoubling:
		c.agvRecDbl(tag, counts, displs, recv)
	case AGDissemination:
		c.agvDissem(tag, counts, displs, recv)
	default:
		panic("mpi: unresolved allgatherv algorithm")
	}
	if c.me.tracer.Enabled() {
		c.me.tracer.Emit(obs.Span{Rank: c.me.rank, Kind: "allgatherv", Peer: -1,
			Bytes: int64(total), Start: opStart, End: c.me.clock, Clock: obs.ClockVirtual,
			Attrs: []obs.Attr{
				{Key: "algo", Val: algo.String()},
				{Key: "policy", Val: c.w.cfg.Allgatherv.String()},
				{Key: "nonuniform", Val: strconv.FormatBool(nonuniform)},
			}})
	}
}

// allgathervAlgo resolves the configured policy to a concrete algorithm.
// The second result reports the adaptive policy's outlier decision: true
// when the count set was classified nonuniform (always false for the other
// policies, which never run the detector).
func (c *Comm) allgathervAlgo(counts []int, total int) (AllgathervAlgo, bool) {
	pof2 := bits.OnesCount(uint(c.Size())) == 1
	cfg := &c.w.cfg

	short := func() AllgathervAlgo {
		if pof2 {
			return AGRecursiveDoubling
		}
		return AGDissemination
	}

	switch cfg.Allgatherv {
	case AGRing:
		return AGRing, false
	case AGRecursiveDoubling:
		if !pof2 {
			panic("mpi: recursive doubling requires a power-of-two world")
		}
		return AGRecursiveDoubling, false
	case AGDissemination:
		return AGDissemination, false
	case AGAuto:
		if total >= ringThresholdBytes {
			return AGRing, false
		}
		return short(), false
	case AGAdaptive:
		c.vols = c.vols[:0]
		for _, v := range counts {
			c.vols = append(c.vols, int64(v))
		}
		p := kselect.OutlierParams{Fract: kselect.DefaultOutlierParams.Fract, Threshold: cfg.OutlierThreshold}
		if kselect.IsNonuniform(c.vols, p) {
			return short(), true
		}
		if total >= ringThresholdBytes {
			return AGRing, false
		}
		return short(), false
	}
	panic("mpi: unknown allgatherv policy")
}

// agvRing runs N-1 steps around a logical ring: in step s each rank
// forwards to its right neighbor the block it received in step s-1 (its own
// block in step 0).  A single large block therefore takes N-1 sequential
// hops to reach every rank — the serialization of Figure 8.
func (c *Comm) agvRing(tag int, counts, displs []int, recv []byte) {
	n := c.Size()
	me := c.rank
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendBlock := (me - s + n) % n
		recvBlock := (me - s - 1 + n) % n
		c.send(right, tag, recv[displs[sendBlock]:displs[sendBlock]+counts[sendBlock]])
		env := c.await(left, tag)
		if len(env.data) != counts[recvBlock] {
			panic("mpi: ring allgatherv block size mismatch")
		}
		copy(recv[displs[recvBlock]:], env.data)
		datatype.PutBuffer(env.data)
	}
}

// agvRecDbl runs log2(N) phases; in phase p rank r exchanges with r XOR 2^p
// all blocks its aligned group currently holds.  Group blocks are contiguous
// in the receive buffer, so each exchange is one message.  A single large
// block reaches all ranks along a binomial pattern in log2(N) phases.
func (c *Comm) agvRecDbl(tag int, counts, displs []int, recv []byte) {
	n := c.Size()
	me := c.rank
	for mask := 1; mask < n; mask <<= 1 {
		partner := me ^ mask
		myGroup := me &^ (mask - 1)
		theirGroup := partner &^ (mask - 1)
		myLo := displs[myGroup]
		myHi := displs[myGroup+mask-1] + counts[myGroup+mask-1]
		theirLo := displs[theirGroup]
		theirHi := displs[theirGroup+mask-1] + counts[theirGroup+mask-1]
		c.send(partner, tag, recv[myLo:myHi])
		env := c.await(partner, tag)
		if len(env.data) != theirHi-theirLo {
			panic("mpi: recursive-doubling allgatherv size mismatch")
		}
		copy(recv[theirLo:], env.data)
		datatype.PutBuffer(env.data)
	}
}

// agvDissem runs ceil(log2 N) phases of the dissemination (Bruck-style)
// pattern: after phase p rank r holds the min(2^(p+1), N) consecutive
// blocks starting at its own.  In phase p rank r sends its first
// min(2^p, N-2^p) blocks to rank r-2^p and receives the corresponding
// blocks from rank r+2^p.  Works for any N.
func (c *Comm) agvDissem(tag int, counts, displs []int, recv []byte) {
	n := c.Size()
	me := c.rank
	total := displs[n-1] + counts[n-1]

	gather := func(start, cnt int) []byte {
		// Blocks start..start+cnt-1 (mod n) as one payload; at most two
		// contiguous regions of recv.
		out := make([]byte, 0)
		first := start % n
		if first+cnt <= n {
			lo := displs[first]
			hi := displs[first+cnt-1] + counts[first+cnt-1]
			return append(out, recv[lo:hi]...)
		}
		out = append(out, recv[displs[first]:total]...)
		wrap := first + cnt - n
		out = append(out, recv[:displs[wrap-1]+counts[wrap-1]]...)
		return out
	}
	scatter := func(start, cnt int, data []byte) {
		first := start % n
		if first+cnt <= n {
			lo := displs[first]
			hi := displs[first+cnt-1] + counts[first+cnt-1]
			if len(data) != hi-lo {
				panic("mpi: dissemination allgatherv size mismatch")
			}
			copy(recv[lo:hi], data)
			return
		}
		head := total - displs[first]
		copy(recv[displs[first]:total], data[:head])
		wrap := first + cnt - n
		tail := displs[wrap-1] + counts[wrap-1]
		if len(data) != head+tail {
			panic("mpi: dissemination allgatherv size mismatch")
		}
		copy(recv[:tail], data[head:])
	}

	for p := 1; p < n; p <<= 1 {
		cnt := p
		if n-p < cnt {
			cnt = n - p
		}
		dst := (me - p + n) % n
		src := (me + p) % n
		c.send(dst, tag, gather(me, cnt))
		env := c.await(src, tag)
		scatter(me+p, cnt, env.data)
		datatype.PutBuffer(env.data)
	}
}
