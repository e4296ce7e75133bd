package mpi

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"nccd/internal/datatype"
	"nccd/internal/obs"
)

// Hierarchy-aware collectives.  When the world carries a node topology —
// from the hierarchical shm+TCP transport or a two-level cluster model —
// the adaptive Allgatherv and the binned Alltoallw restructure their
// communication around it: co-located ranks aggregate through their node
// leader over the fast intra-node path, only leaders cross the network,
// and leaders redistribute.  The paper's nonuniform-volume machinery is
// applied at the leader level, where each leader's volume is the sum of
// its node's contributions — exactly the aggregation that turns a flat
// nonuniform pattern into a smaller, denser one.
//
// Both patterns are bitwise-equivalent to their flat counterparts: data
// placement is fixed by counts/displs (Allgatherv) and by the receive
// type specs (Alltoallw), so only the message routes change.

// Reserved tags for the intra-node phases.  They share the collective
// context with the flat algorithms; distinct tags keep the funnel/fan-out
// streams from ever matching a direct same-node exchange of the same
// collective.
const (
	tagHierGather  = tagCollBase + 1
	tagHierScatter = tagCollBase + 2
)

// hierCtx derives the leader group's context from the parent collective
// context.  Pure function of c.ctx, so every leader lands on the same id
// with no agreement round.
func hierCtx(ctx uint64) uint64 {
	return splitmixCtx(ctx ^ 0x6869657261726368) // "hierarch"
}

// hierTopo returns the world topology when this collective may take the
// hierarchical path: world communicator, no failed or exited members, no
// revoked contexts, and a topology with real structure (more than one
// node, at least one node hosting several ranks).  Any degradation falls
// back to the flat algorithms, which own the failure semantics.
func (c *Comm) hierTopo() *Topology {
	t := c.w.topo
	if t == nil || c.group != nil || c.w.anyDown.Load() || c.w.anyRevoked.Load() {
		return nil
	}
	if t.Nodes() < 2 || t.Nodes() >= t.Size() {
		return nil
	}
	return t
}

// leaderComm builds this rank's handle on the leader communicator: the
// node leaders in node order, under a context derived from the parent.
// Only leaders may communicate on it.
func (c *Comm) leaderComm(topo *Topology, parentCtx uint64) *Comm {
	leaders := topo.Leaders()
	return &Comm{w: c.w, me: c.me, group: append([]int(nil), leaders...),
		rank: topo.LeaderIndex(c.rank), ctx: hierCtx(parentCtx)}
}

// hierAllgatherv runs the three-phase hierarchical gather: non-leaders
// funnel their block to the node leader; leaders run the adaptive
// allgatherv among themselves over per-node aggregate volumes; leaders
// fan the full result back out.  It returns the algorithm the leader
// exchange used and its nonuniformity verdict (derived locally on every
// rank — the inputs are part of the call signature).
func (c *Comm) hierAllgatherv(tag int, counts, displs []int, recv []byte, topo *Topology) (AllgathervAlgo, bool) {
	me := c.rank // comm rank == world rank: hierTopo requires the world comm
	node := topo.NodeOf(me)
	leader := topo.Leader(node)
	locals := topo.NodeRanks(node)
	leaders := topo.Leaders()
	nLeaders := len(leaders)
	total := displs[len(counts)-1] + counts[len(counts)-1]

	// Per-node aggregate volumes, the leader exchange's count vector.
	nodeCounts := make([]int, nLeaders)
	for r, id := range topo.nodeOf {
		nodeCounts[id] += counts[r]
	}
	hdispls, _ := prefix(nodeCounts)
	algo, nonuniform := c.w.agAlgoFor(nLeaders, nodeCounts, total)

	if me != leader {
		// Funnel up, then join the fan-out tree for the full buffer.
		funnelStart := c.me.clock
		c.send(leader, tagHierGather, recv[displs[me]:displs[me]+counts[me]])
		c.spanB("hier_funnel", funnelStart, int64(counts[me]),
			obs.Attr{Key: "node", Val: strconv.Itoa(node)})
		rel := 0
		for i, r := range locals {
			if r == me {
				rel = i
				break
			}
		}
		bcastStart := c.me.clock
		c.hierBcast(locals, rel, recv[:total])
		c.spanB("hier_bcast", bcastStart, int64(total),
			obs.Attr{Key: "node", Val: strconv.Itoa(node)})
		return algo, nonuniform
	}

	// Phase 1: collect the node's blocks into their final positions.
	gatherStart := c.me.clock
	gathered := int64(0)
	for _, r := range locals {
		if r == me {
			continue
		}
		env := c.await(r, tagHierGather)
		if len(env.data) != counts[r] {
			panic("mpi: hierarchical allgatherv funnel size mismatch")
		}
		gathered += int64(len(env.data))
		copy(recv[displs[r]:], env.data)
		datatype.PutBuffer(env.data)
	}
	c.spanB("hier_gather", gatherStart, gathered,
		obs.Attr{Key: "node", Val: strconv.Itoa(node)})

	// Phase 2: leaders exchange per-node aggregates.  Aggregates are
	// node-contiguous in a scratch buffer (world blocks need not be), and
	// the adaptive machinery runs on the summed volumes.
	li := topo.LeaderIndex(me)
	hrecv := make([]byte, total)
	off := hdispls[li]
	for _, r := range locals {
		off += copy(hrecv[off:], recv[displs[r]:displs[r]+counts[r]])
	}
	lc := c.leaderComm(topo, c.ctx)
	ltag := lc.collTag()
	exchStart := c.me.clock
	switch algo {
	case AGRing:
		lc.agvRing(ltag, nodeCounts, hdispls, hrecv)
	case AGRecursiveDoubling:
		lc.agvRecDbl(ltag, nodeCounts, hdispls, hrecv)
	case AGDissemination:
		lc.agvDissem(ltag, nodeCounts, hdispls, hrecv)
	default:
		panic("mpi: unresolved hierarchical allgatherv algorithm")
	}
	c.spanB("hier_leader_exchange", exchStart, int64(total),
		obs.Attr{Key: "algo", Val: algo.String()},
		obs.Attr{Key: "leaders", Val: strconv.Itoa(nLeaders)},
		obs.Attr{Key: "node_bytes", Val: strconv.Itoa(nodeCounts[li])})

	// Scatter foreign aggregates back into world-rank order.
	for id := 0; id < nLeaders; id++ {
		if id == li {
			continue
		}
		off := hdispls[id]
		for _, r := range topo.NodeRanks(id) {
			copy(recv[displs[r]:displs[r]+counts[r]], hrecv[off:off+counts[r]])
			off += counts[r]
		}
	}

	// Phase 3: fan the complete buffer out to the node.
	c.hierBcast(locals, 0, recv[:total])
	return algo, nonuniform
}

// hierBcast broadcasts buf from locals[0] along a binomial tree over the
// node's members — ceil(log2 K) serial rounds at the root instead of the
// K-1 a naive fan-out pays, which matters once the full gather result
// exceeds the intra-node rendezvous threshold and each send blocks for
// its wire time.  rel is the caller's index in locals.
func (c *Comm) hierBcast(locals []int, rel int, buf []byte) {
	k := len(locals)
	mask := 1
	for mask < k && rel&mask == 0 {
		mask <<= 1
	}
	if rel != 0 {
		env := c.await(locals[rel-mask], tagHierScatter)
		if len(env.data) != len(buf) {
			panic("mpi: hierarchical broadcast size mismatch")
		}
		copy(buf, env.data)
		datatype.PutBuffer(env.data)
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if rel+m < k {
			c.send(locals[rel+m], tagHierScatter, buf)
		}
	}
}

// packSpec packs one send spec into a pooled buffer, charging the
// compiled-plan pack cost for noncontiguous layouts (contiguous payloads
// are plain copies, as on the flat path).  The caller owns the buffer.
func (c *Comm) packSpec(buf []byte, s TypeSpec) []byte {
	nb := s.Bytes()
	out := datatype.GetBuffer(nb)
	if nb == 0 {
		return out
	}
	if s.contig() {
		copy(out, buf[s.Displ:s.Displ+nb])
		return out
	}
	plan := datatype.PlanFor(s.Type, s.Count)
	plan.Pack(buf[s.Displ:], out)
	p := c.me
	prm := &c.w.cluster.Params
	packSec := (prm.PackPerByte*float64(nb) + prm.SegOverhead*float64(plan.NumSegments())) / p.speed
	p.clock += packSec
	p.stats.PackSec += packSec
	p.stats.Datatype.Add(datatype.Metrics{Chunks: 1,
		PackedBytes: int64(nb), PackedSegments: int64(plan.NumSegments())})
	return out
}

// unpackEntry scatters one aggregate entry into the receive buffer
// through the matching spec.  The entry payload is a view into a larger
// frame, so it is copied into a pooled buffer unpackInto can consume.
func (c *Comm) unpackEntry(src int, payload []byte, recvbuf []byte, recvs []TypeSpec) {
	s := recvs[src]
	if s.Bytes() != len(payload) {
		panic(fmt.Sprintf("mpi: hierarchical alltoallw entry from %d carries %d bytes, spec says %d",
			src, len(payload), s.Bytes()))
	}
	if len(payload) == 0 {
		return
	}
	own := datatype.GetBuffer(len(payload))
	copy(own, payload)
	c.unpackInto(own, s.Type, s.Count, recvbuf[s.Displ:], nil)
}

// a2awHierRemote is the cross-node half of the hierarchical binned
// alltoallw; same-node pairs have already run the flat binned exchange
// directly (Exchange.startBinned).  Cross-node traffic is aggregated at the
// node leaders: every rank packs its remote payloads and funnels them to
// its leader tagged with the destination, leaders exchange per-node-pair
// aggregates (always — pairwise volumes are not globally known, so an
// empty aggregate is the only way to say "nothing"), and the receiving
// leader redistributes with one message per local non-leader.  Entries
// travel as [rank u32][len u32][payload] frames.
func (c *Comm) a2awHierRemote(tag int, sendbuf []byte, sends []TypeSpec, recvbuf []byte, recvs []TypeSpec, topo *Topology) {
	n := c.Size()
	me := c.rank
	thresh := c.w.cfg.BinThresholdBytes
	node := topo.NodeOf(me)
	leader := topo.Leader(node)
	locals := topo.NodeRanks(node)

	// Cross-node payloads, packed once here; they ride aggregates from
	// now on.
	type entry struct {
		src, dst int
		payload  []byte // pooled
	}
	var mine []entry
	for dst := 0; dst < n; dst++ {
		if topo.NodeOf(dst) != node && sends[dst].Bytes() > 0 {
			mine = append(mine, entry{src: me, dst: dst, payload: c.packSpec(sendbuf, sends[dst])})
		}
	}

	if me != leader {
		// Funnel: one aggregate up, one redistribution message down.
		var agg []byte
		for _, e := range mine {
			agg = binary.LittleEndian.AppendUint32(agg, uint32(e.dst))
			agg = binary.LittleEndian.AppendUint32(agg, uint32(len(e.payload)))
			agg = append(agg, e.payload...)
			datatype.PutBuffer(e.payload)
		}
		funnelStart := c.me.clock
		c.send(leader, tagHierGather, agg)
		c.spanB("hier_funnel", funnelStart, int64(len(agg)),
			obs.Attr{Key: "node", Val: strconv.Itoa(node)})

		env := c.await(leader, tagHierScatter)
		data := env.data
		for len(data) > 0 {
			if len(data) < 8 {
				panic("mpi: hierarchical alltoallw truncated entry header")
			}
			src := int(binary.LittleEndian.Uint32(data))
			plen := int(binary.LittleEndian.Uint32(data[4:]))
			if src < 0 || src >= n || plen < 0 || plen > len(data)-8 {
				panic("mpi: hierarchical alltoallw corrupt entry")
			}
			c.unpackEntry(src, data[8:8+plen], recvbuf, recvs)
			data = data[8+plen:]
		}
		datatype.PutBuffer(env.data)
		return
	}

	// Leader: gather the node's outbound entries, keyed by target node.
	leaders := topo.Leaders()
	nLeaders := len(leaders)
	li := topo.LeaderIndex(me)
	out := make([][]byte, nLeaders) // aggregate per target node
	addEntry := func(src, dst int, payload []byte) {
		tn := topo.NodeOf(dst)
		out[tn] = binary.LittleEndian.AppendUint32(out[tn], uint32(src))
		out[tn] = binary.LittleEndian.AppendUint32(out[tn], uint32(dst))
		out[tn] = binary.LittleEndian.AppendUint32(out[tn], uint32(len(payload)))
		out[tn] = append(out[tn], payload...)
	}
	for _, e := range mine {
		addEntry(e.src, e.dst, e.payload)
		datatype.PutBuffer(e.payload)
	}
	for _, r := range locals {
		if r == me {
			continue
		}
		env := c.await(r, tagHierGather)
		data := env.data
		for len(data) > 0 {
			if len(data) < 8 {
				panic("mpi: hierarchical alltoallw truncated funnel entry")
			}
			dst := int(binary.LittleEndian.Uint32(data))
			plen := int(binary.LittleEndian.Uint32(data[4:]))
			if dst < 0 || dst >= n || topo.NodeOf(dst) == node || plen < 0 || plen > len(data)-8 {
				panic("mpi: hierarchical alltoallw corrupt funnel entry")
			}
			addEntry(r, dst, data[8:8+plen])
			data = data[8+plen:]
		}
		datatype.PutBuffer(env.data)
	}

	// Leader exchange: every pair always exchanges (volumes are not
	// globally known), small aggregates first — the paper's binning at
	// node granularity, where volumes are sums of local contributions.
	lc := c.leaderComm(topo, c.ctx)
	ltag := lc.collTag()
	exchStart := c.me.clock
	exchBytes := int64(0)
	order := make([]int, 0, nLeaders-1)
	for j := 0; j < nLeaders; j++ {
		if j != li {
			order = append(order, j)
			exchBytes += int64(len(out[j]))
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, j := range order {
			isSmall := len(out[j]) <= thresh
			if (pass == 0) == isSmall {
				lc.send(j, ltag, out[j])
			}
		}
	}

	// Receive every leader's aggregate and redistribute.
	perLocal := make(map[int][]byte, len(locals)-1)
	for _, j := range order {
		env := lc.await(j, ltag)
		exchBytes += int64(len(env.data))
		data := env.data
		for len(data) > 0 {
			if len(data) < 12 {
				panic("mpi: hierarchical alltoallw truncated leader entry")
			}
			src := int(binary.LittleEndian.Uint32(data))
			dst := int(binary.LittleEndian.Uint32(data[4:]))
			plen := int(binary.LittleEndian.Uint32(data[8:]))
			if src < 0 || src >= n || dst < 0 || dst >= n || topo.NodeOf(dst) != node || plen < 0 || plen > len(data)-12 {
				panic("mpi: hierarchical alltoallw corrupt leader entry")
			}
			payload := data[12 : 12+plen]
			if dst == me {
				c.unpackEntry(src, payload, recvbuf, recvs)
			} else {
				b := perLocal[dst]
				b = binary.LittleEndian.AppendUint32(b, uint32(src))
				b = binary.LittleEndian.AppendUint32(b, uint32(plen))
				perLocal[dst] = append(b, payload...)
			}
			data = data[12+plen:]
		}
		datatype.PutBuffer(env.data)
	}
	c.spanB("hier_leader_exchange", exchStart, exchBytes,
		obs.Attr{Key: "algo", Val: "pairwise"},
		obs.Attr{Key: "leaders", Val: strconv.Itoa(nLeaders)})
	scatterStart := c.me.clock
	scattered := int64(0)
	for _, r := range locals {
		if r == me {
			continue
		}
		scattered += int64(len(perLocal[r]))
		c.send(r, tagHierScatter, perLocal[r])
	}
	c.spanB("hier_scatter", scatterStart, scattered,
		obs.Attr{Key: "node", Val: strconv.Itoa(node)})
}
