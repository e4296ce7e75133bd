// Package simnet models the hardware the paper's testbed provided: a
// 64-node InfiniBand cluster built from 32 Intel EM64T nodes and 32 AMD
// Opteron nodes, driven here as a deterministic virtual-time cost model.
//
// The message-passing runtime in internal/mpi executes real data movement
// between goroutine ranks and advances per-rank virtual clocks using the
// parameters here: a LogGP-style wire model (per-message overheads, latency,
// bandwidth) plus datatype-processing costs (per-byte copy, per-segment
// handling, signature-scan and re-search costs).  Because every effect the
// paper measures is algorithmic — quadratic re-search, O(N) vs O(log N)
// block movement, zero-byte synchronization coupling — a calibrated cost
// model on top of real execution reproduces the published shapes without
// InfiniBand hardware.
package simnet

import "fmt"

// Params is the virtual-time cost model.  All times are in seconds, sizes in
// bytes.  CPU-side costs (packing, scanning, searching) are divided by the
// rank's speed factor; wire costs are not.
type Params struct {
	// SendOverhead is the CPU cost to initiate a message (o_s).
	SendOverhead float64
	// RecvOverhead is the CPU cost to complete a receive (o_r).
	RecvOverhead float64
	// Latency is the wire latency per message (L).
	Latency float64
	// Bandwidth is the wire bandwidth in bytes per second.
	Bandwidth float64

	// PackPerByte is the cost of copying one byte through an intermediate
	// buffer (pack or unpack).
	PackPerByte float64
	// SegOverhead is the per-contiguous-segment cost while packing or
	// unpacking (loop and address-generation overhead).
	SegOverhead float64
	// GatherSegOverhead is the per-segment cost on the direct (writev-like)
	// path, where data is gathered by the NIC instead of copied.
	GatherSegOverhead float64
	// ScanPerSeg is the cost to examine one segment of the datatype
	// signature during a look-ahead.
	ScanPerSeg float64
	// SearchPerSeg is the cost per segment visited while re-searching a
	// datatype from the beginning (the baseline engine's recovery walk).
	SearchPerSeg float64
	// RendezvousBytes is the message size at which sends switch from the
	// eager protocol (sender returns once the CPU hands off the data) to
	// rendezvous (sender returns when the last byte is on the wire).
	RendezvousBytes int
	// HandSegOverhead is the per-element cost of an application-level
	// hand-tuned pack loop (PETSc's default path).  It is slightly below
	// SegOverhead: a specialized indexed-copy loop beats the generic
	// datatype cursor, which is exactly why the paper's hand-tuned arm
	// stays a few percent ahead of the optimized datatype arm.
	HandSegOverhead float64
}

// IBDDR returns parameters calibrated to the paper's testbed: Mellanox
// MT25208 InfiniBand DDR adapters and mid-2000s x86 nodes.
func IBDDR() Params {
	return Params{
		SendOverhead:      0.7e-6,
		RecvOverhead:      0.7e-6,
		Latency:           4.0e-6,
		Bandwidth:         1.4e9,
		PackPerByte:       1.0 / 5.0e9,
		SegOverhead:       1.5e-9,
		GatherSegOverhead: 4e-9,
		ScanPerSeg:        0.8e-9,
		SearchPerSeg:      2e-9,
		RendezvousBytes:   64 * 1024,
		HandSegOverhead:   1.2e-9,
	}
}

// Cluster describes the machine an mpi.World runs on: shared wire
// parameters, a per-rank CPU speed factor, and a skew model.
type Cluster struct {
	Params
	// Speed holds one multiplier per rank; 1.0 is nominal.  CPU-side costs
	// divide by it.
	Speed []float64
	// Skew generates deterministic per-rank jitter injected before each
	// collective operation, modeling OS noise and the imbalance between
	// heterogeneous cluster halves.  Nil means no skew.
	Skew *SkewModel
	// Faults, when non-nil, injects deterministic link faults (drop,
	// duplication, corruption, delay) and scheduled rank crashes.  The mpi
	// runtime reacts by enabling its reliability layer: checksums, ack
	// timeouts with exponential backoff, and retransmission.
	Faults *FaultPlan

	// NodeOf assigns each rank to a physical node.  Nil leaves the cluster
	// flat: every pair of ranks is separated by the shared Params wire.
	// It only selects link costs (see Intra); collectives ignore it.
	NodeOf []int
	// Intra, when non-nil (and NodeOf is set), gives the wire parameters of
	// same-node links — the shared-memory path, orders of magnitude below
	// the network in latency.  Only the wire-side fields (overheads,
	// latency, bandwidth, rendezvous threshold) are consulted per link;
	// CPU-side datatype costs always come from the shared Params.  Nil
	// keeps every link on Params, bit-for-bit identical to a flat cluster.
	Intra *Params
}

// Size returns the number of ranks the cluster hosts.
func (c *Cluster) Size() int { return len(c.Speed) }

// SpeedOf returns the speed factor for rank r.
func (c *Cluster) SpeedOf(r int) float64 {
	if c.Speed == nil {
		return 1
	}
	return c.Speed[r]
}

// LinkParams returns the wire parameters for traffic from rank src to rank
// dst: the intra-node parameters when both ranks share a node and the
// cluster models a two-level fabric, the shared Params otherwise.
func (c *Cluster) LinkParams(src, dst int) *Params {
	if c.Intra != nil && c.NodeOf != nil && c.NodeOf[src] == c.NodeOf[dst] {
		return c.Intra
	}
	return &c.Params
}

// Uniform returns an n-rank homogeneous cluster with the given parameters
// and no skew.
func Uniform(n int, p Params) *Cluster {
	speed := make([]float64, n)
	for i := range speed {
		speed[i] = 1
	}
	return &Cluster{Params: p, Speed: speed}
}

// TwoLevel returns a homogeneous cluster of nodes×perNode ranks on a
// two-level fabric: ranks r/perNode share a node, co-located pairs
// communicate over intra, remote pairs over inter.  Rank order matches the
// hierarchical launcher: node i hosts ranks [i*perNode, (i+1)*perNode).
func TwoLevel(nodes, perNode int, inter, intra Params) *Cluster {
	if nodes < 1 || perNode < 1 {
		panic(fmt.Sprintf("simnet: two-level cluster needs positive dimensions, got %d×%d", nodes, perNode))
	}
	n := nodes * perNode
	c := Uniform(n, inter)
	c.NodeOf = make([]int, n)
	for r := range c.NodeOf {
		c.NodeOf[r] = r / perNode
	}
	ip := intra
	c.Intra = &ip
	return c
}

// ShmIntra returns wire parameters calibrated to a same-node shared-memory
// path on the paper's testbed era: no NIC, no serialization onto a link —
// just a cache-coherent copy through a ring.  Latency and per-message
// overheads sit an order of magnitude below the InfiniBand network and
// bandwidth is memory-bus bound.  CPU-side datatype costs mirror IBDDR:
// packing happens on the same cores regardless of where the bytes go.
func ShmIntra() Params {
	p := IBDDR()
	p.SendOverhead = 0.1e-6
	p.RecvOverhead = 0.1e-6
	p.Latency = 0.3e-6
	p.Bandwidth = 5.0e9
	p.RendezvousBytes = 16 * 1024
	return p
}

// Paper returns an n-rank cluster matching the paper's testbed layout:
//
//   - n ≤ 32: Opteron nodes only (the paper ran ≤32-process experiments
//     entirely on Cluster 2).
//   - 32 < n ≤ 64: one process per node, 32 Intel (speed 1.0) + up to 32
//     Opteron (speed 0.88 — 2.8 GHz Opteron vs 3.6 GHz EM64T).
//   - 64 < n ≤ 128: two processes per node across both clusters.
//
// Mixing the two clusters introduces skew, which the paper calls out as the
// reason its Alltoallw benchmark degrades at scale; the skew magnitude here
// grows once both halves are in play.
func Paper(n int) *Cluster {
	if n < 1 || n > 128 {
		panic(fmt.Sprintf("simnet: paper testbed supports 1..128 ranks, got %d", n))
	}
	const (
		intelSpeed   = 1.0
		opteronSpeed = 0.88
	)
	speed := make([]float64, n)
	hetero := n > 32
	for r := range speed {
		onIntel := false
		if hetero {
			// First half of the ranks land on the Intel cluster, second
			// half on the Opteron cluster (one or two per node).
			onIntel = r < n/2
		}
		if onIntel {
			speed[r] = intelSpeed
		} else {
			speed[r] = opteronSpeed
		}
	}
	skew := &SkewModel{Mean: 1.2e-6, Seed: 0x5eed}
	if hetero {
		skew.Mean = 3.5e-6
	}
	return &Cluster{Params: IBDDR(), Speed: speed, Skew: skew}
}

// SkewModel produces deterministic pseudo-random per-event jitter.  Jitter
// for (rank, seq) is Mean * 2 * u where u is uniform in [0,1), so the mean
// delay is Mean.
type SkewModel struct {
	Mean float64
	Seed uint64
}

// Jitter returns the virtual-time delay injected for the seq-th skew event
// on rank r.
func (s *SkewModel) Jitter(rank int, seq uint64) float64 {
	if s == nil || s.Mean == 0 {
		return 0
	}
	h := splitmix64(s.Seed ^ uint64(rank)*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9)
	u := float64(h>>11) / float64(1<<53)
	return s.Mean * 2 * u
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WireTime returns the serialization time of n bytes on the wire.
func (p Params) WireTime(n int) float64 {
	if p.Bandwidth <= 0 {
		return 0
	}
	return float64(n) / p.Bandwidth
}
