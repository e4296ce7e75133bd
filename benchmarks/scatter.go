package main

import (
	"fmt"
	"time"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// scatterBurst is how many scatters a rank runs per hand-over from the
// harness.  One scatter takes a few hundred microseconds; handing each one
// over separately would let the transport's pollers go idle in between and
// time their wake-up instead of the scatter.
const scatterBurst = 50

// scatterRank is one rank's half of the Fig. 16 scatter under one arm.
type scatterRank struct {
	sc   *petsc.Scatter
	x, y []float64
	t    [scatterBurst]opTiming
	errs [scatterBurst]error
}

type scatterArm struct {
	m       *mesh
	ranks   []*scatterRank
	gen     int  // ops run so far; shifts the data so a stale y cannot pass
	corrupt bool // damage the next scatter's destination (tests)
}

// scatterInst is the paper's section 5.4 vector scatter on two ranks: two
// 1-D grids interlaced in each vector, each rank's even slots going to the
// odd slots of the opposite rank.  Every element is its own 8-byte
// segment, the maximally noncontiguous case, and nothing but
// communication happens.
type scatterInst struct {
	n    int
	np   int
	base [][]float64 // per rank, the seed's source values at generation 0
	arms [2]*scatterArm
}

const scatterSentinel = -1.0

// scatterIndices returns the harness-owned index lists of the plan: the
// even slots sent and the odd slots received.  The layer replays rebuild
// datatypes from these same lists.
func scatterIndices(n int) (evens, odds []int) {
	evens = make([]int, n/2)
	odds = make([]int, n/2)
	for k := range evens {
		evens[k], odds[k] = 2*k, 2*k+1
	}
	return evens, odds
}

func scatterPlan(np, rank, n int) petsc.Plan {
	evens, odds := scatterIndices(n)
	peer := np - 1 - rank
	return petsc.Plan{
		Sends: []petsc.PeerIndices{{Peer: peer, Local: evens}},
		Recvs: []petsc.PeerIndices{{Peer: peer, Local: odds}},
	}
}

func buildScatter(kind string, np int, seed int64, n int) (instance, error) {
	in := &scatterInst{n: n, np: np, base: make([][]float64, np)}
	for r := range in.base {
		in.base[r] = make([]float64, n)
		for i := range in.base[r] {
			in.base[r][i] = unit(seed, r*n+i)
		}
	}
	for i, a := range arms {
		m, err := newMesh(kind, np, a.cfg())
		if err != nil {
			in.close()
			return nil, err
		}
		sa := &scatterArm{m: m, ranks: make([]*scatterRank, np)}
		in.arms[i] = sa
		mode := a.mode
		err = m.do(func(c *mpi.Comm) {
			rk := &scatterRank{x: make([]float64, n), y: make([]float64, n)}
			rk.sc = petsc.NewScatterFromPlan(c, n, n, scatterPlan(np, c.Rank(), n), mode)
			for i := range rk.y {
				rk.x[i] = in.value(c.Rank(), i, 0)
				rk.y[i] = scatterSentinel
			}
			sa.ranks[c.Rank()] = rk
		})
		if err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// value is element i of rank's source vector at generation gen.
func (in *scatterInst) value(rank, i, gen int) float64 {
	return in.base[rank][i] + float64(gen)
}

func (in *scatterInst) prepare() error { return nil }

// run does a burst of scatters.  Each rank refreshes its source slots,
// meets the other at a barrier, times its DoArrays and checks its own
// destination, so every op is verified without leaving the ranks.
func (in *scatterInst) run(arm int) ([]opTiming, error) {
	a := in.arms[arm]
	gen0, corrupt := a.gen, a.corrupt
	a.gen += scatterBurst
	a.corrupt = false
	err := a.m.do(func(c *mpi.Comm) {
		r := c.Rank()
		rk := a.ranks[r]
		for k := range rk.t {
			gen := gen0 + k + 1
			for i := 0; i < in.n; i += 2 {
				rk.x[i] = in.value(r, i, gen)
			}
			c.Barrier()
			rk.t[k].start = time.Now()
			rk.sc.DoArrays(rk.x, rk.y)
			rk.t[k].end = time.Now()
			if corrupt && k == 0 && r == in.np-1 {
				rk.y[in.n/2+1] += 0.5
			}
			rk.errs[k] = in.check(r, rk.y, gen)
		}
	})
	return a.ranks[0].t[:], err
}

// check verifies every destination element of one rank: odd slots hold the
// opposite rank's even slots of this generation, even slots were never
// written.
func (in *scatterInst) check(r int, y []float64, gen int) error {
	peer := in.np - 1 - r
	for i := 0; i < in.n; i += 2 {
		if y[i] != scatterSentinel {
			return fmt.Errorf("rank %d: y[%d] = %v was overwritten", r, i, y[i])
		}
		if want := in.value(peer, i, gen); y[i+1] != want {
			return fmt.Errorf("rank %d: y[%d] = %v, want %v", r, i+1, y[i+1], want)
		}
	}
	return nil
}

func (in *scatterInst) verify(arm, i int) error {
	for _, rk := range in.arms[arm].ranks {
		if rk.errs[i] != nil {
			return rk.errs[i]
		}
	}
	return nil
}

func (in *scatterInst) corruptNext(arm int) { in.arms[arm].corrupt = true }

func (in *scatterInst) record(tr *tracer, arm, op, _ int, t opTiming) {
	if arm == armDT {
		tr.add("petsc.DoArrays", t.start, t.end, -1, op, 0)
	}
}

func (in *scatterInst) steps() int  { return 1 }
func (in *scatterInst) cycles() int { return 0 }

func (in *scatterInst) wire() (int64, transport.TCPStats, shm.Stats) {
	m := in.arms[armDT].m
	return m.stats().FusedSends, sumTCP(m.tcp), sumShm(m.shm)
}

func (in *scatterInst) selfBytesShare() float64 { return in.arms[armDT].m.selfBytesShare() }

func (in *scatterInst) close() {
	for _, a := range in.arms {
		if a != nil {
			a.m.close()
		}
	}
}
