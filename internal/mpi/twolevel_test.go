package mpi

import (
	"bytes"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
)

// A two-level cluster model prices same-node links as shared memory and the
// rest as the network, so eager and rendezvous sends mix inside one
// collective.  That is all it may change: the collectives do not read the
// node map, so a world on two-level wires sends the messages and delivers
// the bytes of a world on flat ones.

// sameTraffic requires every rank of the two worlds to have sent the same
// messages and bytes.
func sameTraffic(t *testing.T, flat, twoLevel *World) {
	t.Helper()
	for r := 0; r < flat.Size(); r++ {
		f, h := flat.Stats(r), twoLevel.Stats(r)
		if f.MsgsSent != h.MsgsSent || f.BytesSent != h.BytesSent {
			t.Errorf("rank %d sent %d msgs / %d bytes on two-level wires, %d / %d on flat ones",
				r, h.MsgsSent, h.BytesSent, f.MsgsSent, f.BytesSent)
		}
	}
}

// runAGV executes one Allgatherv on a fresh world and returns each rank's
// receive buffer plus the world.
func runAGV(t *testing.T, cl *simnet.Cluster, cfg Config, counts []int) ([][]byte, *World) {
	t.Helper()
	n := cl.Size()
	if len(counts) != n {
		t.Fatalf("counts for %d ranks, cluster has %d", len(counts), n)
	}
	_, total := prefix(nil, counts)
	w := NewWorld(cl, cfg)
	outs := make([][]byte, n)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		data := make([]byte, counts[me])
		for i := range data {
			data[i] = byte(me*31 + i)
		}
		recv := make([]byte, total)
		c.Allgatherv(data, counts, recv)
		outs[me] = recv
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, w
}

// TestHierAllgathervMatchesFlat: Allgatherv on two-level wires is the flat
// one, byte for byte and message for message, across count shapes, node
// geometries (power-of-two and odd node counts, a rank alone on its node)
// and both policies that let the runtime choose.
func TestHierAllgathervMatchesFlat(t *testing.T) {
	cases := []struct {
		name           string
		nodes, perNode int
		counts         []int
	}{
		{"outlier-2x4", 2, 4, []int{5, 1, 0, 7, 40960, 3, 9, 2}},
		{"uniform-2x4", 2, 4, []int{512, 512, 512, 512, 512, 512, 512, 512}},
		{"odd-nodes-3x2", 3, 2, []int{64, 0, 1, 100000, 9, 33}},
		{"lone-rank-node", 3, 1, []int{17, 4, 9}},
		{"big-ring-2x2", 2, 2, []int{65536, 65536, 65536, 65536}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []Config{Compiled(), {Engine: datatype.CompiledPlans, Allgatherv: AGAuto, Alltoallw: ATBinned}} {
				n := tc.nodes * tc.perNode
				flat, fw := runAGV(t, simnet.Uniform(n, simnet.IBDDR()), cfg, tc.counts)
				hier, hw := runAGV(t, simnet.TwoLevel(tc.nodes, tc.perNode, simnet.IBDDR(), simnet.ShmIntra()), cfg, tc.counts)
				for r := range flat {
					if !bytes.Equal(flat[r], hier[r]) {
						t.Fatalf("policy %v rank %d: result on two-level wires diverges from flat", cfg.Allgatherv, r)
					}
				}
				sameTraffic(t, fw, hw)
			}
		})
	}
}

// a2awCase builds a deterministic, partly noncontiguous alltoallw pattern:
// pair volumes vary (including zeros), send and receive layouts disagree
// on contiguity for some pairs, and every rank's region sits in a 64-byte
// slot per peer.
const a2awSlot = 64

func a2awBytes(i, j int) int { return ((i*3 + j*5 + 1) % 4) * 8 }

func a2awSpec(b, displ int, vec bool) TypeSpec {
	if b == 0 {
		return TypeSpec{}
	}
	if vec {
		return TypeSpec{Type: datatype.Vector(b/8, 8, 16, datatype.Byte), Count: 1, Displ: displ}
	}
	return TypeSpec{Type: Bytes(b), Count: 1, Displ: displ}
}

// runA2AW executes one Alltoallw on a fresh world and returns each rank's
// receive buffer plus the world.
func runA2AW(t *testing.T, cl *simnet.Cluster, cfg Config) ([][]byte, *World) {
	t.Helper()
	n := cl.Size()
	w := NewWorld(cl, cfg)
	outs := make([][]byte, n)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		sendbuf := make([]byte, n*a2awSlot)
		for k := range sendbuf {
			sendbuf[k] = byte(me*131 + k)
		}
		recvbuf := make([]byte, n*a2awSlot)
		sends := make([]TypeSpec, n)
		recvs := make([]TypeSpec, n)
		for j := 0; j < n; j++ {
			sends[j] = a2awSpec(a2awBytes(me, j), j*a2awSlot, (me+j)%2 == 1)
			recvs[j] = a2awSpec(a2awBytes(j, me), j*a2awSlot, (me*7+j)%2 == 1)
		}
		c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		outs[me] = recvbuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, w
}

// TestHierAlltoallwMatchesFlat: the binned exchange delivers the bytes of
// the baseline round-robin ground truth on flat and on two-level wires, and
// sends the same messages on both.
func TestHierAlltoallwMatchesFlat(t *testing.T) {
	for _, geo := range []struct{ nodes, perNode int }{{2, 3}, {3, 2}, {2, 2}} {
		n := geo.nodes * geo.perNode

		truth := Compiled()
		truth.Alltoallw = ATRoundRobin
		want, _ := runA2AW(t, simnet.Uniform(n, simnet.IBDDR()), truth)

		flat, fw := runA2AW(t, simnet.Uniform(n, simnet.IBDDR()), Compiled())
		hier, hw := runA2AW(t, simnet.TwoLevel(geo.nodes, geo.perNode, simnet.IBDDR(), simnet.ShmIntra()), Compiled())
		for r := 0; r < n; r++ {
			if !bytes.Equal(want[r], flat[r]) {
				t.Fatalf("%dx%d rank %d: binned diverges from round-robin", geo.nodes, geo.perNode, r)
			}
			if !bytes.Equal(want[r], hier[r]) {
				t.Fatalf("%dx%d rank %d: binned on two-level wires diverges from round-robin", geo.nodes, geo.perNode, r)
			}
		}
		sameTraffic(t, fw, hw)
	}
}
