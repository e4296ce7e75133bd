package main

import (
	"fmt"
	"sync"
	"time"

	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

const (
	mgRtol      = 1e-6
	mgMaxCycles = 30
)

// splitmix64 is the harness's input generator: a value that depends only
// on the seed and a global index, so every decomposition of a grid or a
// vector sees the same data.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, index) to [0,1).
func unit(seed int64, i int) float64 {
	return float64(splitmix64(uint64(seed)<<32^uint64(i))>>11) / (1 << 53)
}

// refSweep is the harness's yardstick for the host's speed: one damped
// Jacobi sweep of the 7-point Laplacian over arrays of its own, the size of
// the rank's finest grid.  It is written the way the solver's stencil was
// when this benchmark was defined (a loop over dimensions and a boundary
// test per neighbour in every cell), so that it keeps the core and the
// memory as busy as the solver's kernels do and a neighbour on the host
// that slows those slows it by the same factor (README, "The reference
// sweep").  No code of the program runs in it, so no change to the program
// moves it.
type refSweep struct {
	dim     int
	n       [3]int // extent with one boundary layer on every side
	u, v, b []float64
}

func (r *refSweep) run() time.Duration {
	t0 := time.Now()
	nx, ny, nz := r.n[0], r.n[1], r.n[2]
	u, v, b := r.u, r.v, r.b
	strides := [3]int{1, nx, nx * ny}
	inv := [3]float64{1, 1, 1}
	for k := 1; k < nz-1; k++ {
		for j := 1; j < ny-1; j++ {
			row := (k*ny + j) * nx
			for i := 1; i < nx-1; i++ {
				li := row + i
				x := u[li]
				coords := [3]int{i, j, k}
				acc, diag := 0.0, 0.0
				for d := 0; d < r.dim; d++ {
					cd := 2.0
					if coords[d] > 1 {
						acc -= inv[d] * u[li-strides[d]]
					} else {
						cd++
					}
					if coords[d] < r.n[d]-2 {
						acc -= inv[d] * u[li+strides[d]]
					} else {
						cd++
					}
					acc += cd * inv[d] * x
					diag += cd * inv[d]
				}
				v[li] = x + 0.8/diag*(b[li]-acc)
			}
		}
	}
	r.u, r.v = v, u
	return time.Since(t0)
}

// refQuietNsPerCell is the reference sweep's median time per owned cell in
// quiet runs on the host class the committed baseline names, by the number
// of ranks sweeping at once.  It only scales the corrected times so that
// they read as that host's milliseconds.
var refQuietNsPerCell = map[int]float64{1: 10.5, 2: 11.4}

var (
	refSweepsMu sync.Mutex
	refSweeps   = map[[4]int]*refSweep{}
)

// refSweepFor returns the sweep of one rank and grid size.  Sweeps outlive
// the solvers that use them, until the next workload is measured, so that
// a fresh build pays nothing for them and they show in heap_mb as a
// constant; no two solvers of one rank ever run at once.
func refSweepFor(rank int, owned [3]int) *refSweep {
	refSweepsMu.Lock()
	defer refSweepsMu.Unlock()
	key := [4]int{rank, owned[0], owned[1], owned[2]}
	if r := refSweeps[key]; r != nil {
		return r
	}
	r := &refSweep{dim: 3, n: [3]int{owned[0] + 2, owned[1] + 2, owned[2] + 2}}
	cells := r.n[0] * r.n[1] * r.n[2]
	r.u, r.v, r.b = make([]float64, cells), make([]float64, cells), make([]float64, cells)
	for i := range r.b {
		r.b[i] = 1
	}
	refSweeps[key] = r
	return r
}

// dropRefSweeps forgets the last workload's sweeps.
func dropRefSweeps() {
	refSweepsMu.Lock()
	refSweeps = map[[4]int]*refSweep{}
	refSweepsMu.Unlock()
}

// mgRank is one rank's solver state under one arm.
type mgRank struct {
	s      *mg.Solver
	ref    *refSweep
	b, x   *petsc.Vec
	t      opTiming
	cycles int
	relres float64
	hist   []float64
}

type mgArm struct {
	m       *mesh
	ranks   []*mgRank
	newMs   float64 // rank 0's time inside mg.New
	corrupt bool    // damage the next solve's history (tests)
}

// mgInst is a multigrid time-to-solution workload: the 3-D Laplacian on an
// extent^3 grid with the paper's separable forcing, scaled and perturbed
// by the seed, solved from x = 0 by V-cycles to rtol.
type mgInst struct {
	kind   string
	np     int
	extent int
	levels int
	seed   int64
	arms   [2]*mgArm
	ref    []float64 // reference residual history every op must reproduce
}

func buildMG(kind string, np int, seed int64, extent, levels int) (instance, error) {
	in := &mgInst{kind: kind, np: np, extent: extent, levels: levels, seed: seed}
	for i, a := range arms {
		ma, err := newMGArm(kind, np, a, seed, extent, levels)
		if err != nil {
			in.close()
			return nil, err
		}
		in.arms[i] = ma
	}
	return in, nil
}

func newMGArm(kind string, np int, a arm, seed int64, extent, levels int) (*mgArm, error) {
	m, err := newMesh(kind, np, a.cfg())
	if err != nil {
		return nil, err
	}
	ma := &mgArm{m: m, ranks: make([]*mgRank, np)}
	err = m.do(func(c *mpi.Comm) {
		t0 := time.Now()
		s := mg.New(c, []int{extent, extent, extent}, levels, a.mode)
		if c.Rank() == 0 {
			ma.newMs = ms(time.Since(t0))
		}
		rk := &mgRank{s: s, b: s.CreateVec(), x: s.CreateVec()}
		fillForcing(s, rk.b, seed, extent)
		own := s.DA(0).OwnedBox()
		rk.ref = refSweepFor(c.Rank(), [3]int{own.Hi[0] - own.Lo[0], own.Hi[1] - own.Lo[1], own.Hi[2] - own.Lo[2]})
		rk.t.refQuiet = time.Duration(refQuietNsPerCell[np] * float64(len(rk.b.Array())))
		rk.t.marks = make([]mark, 0, mgMaxCycles)
		rk.hist = make([]float64, 0, mgMaxCycles)
		// Every rank sweeps at every mark, so that the ranks stay in step
		// and rank 0's sweep runs beside a busy second core as its kernels do.
		s.OnCycle = func(int) error {
			at := time.Now()
			rk.ref.run()
			rk.t.marks = append(rk.t.marks, mark{at, time.Now()})
			return nil
		}
		ma.ranks[c.Rank()] = rk
	})
	if err != nil {
		m.close()
		return nil, err
	}
	return ma, nil
}

// fillForcing sets b to amp * (x*y*z + 1e-3*noise): the seed picks the
// amplitude in [1,2) and a per-cell perturbation small enough to leave the
// convergence rate, and so the cycle count, alone.
func fillForcing(s *mg.Solver, b *petsc.Vec, seed int64, extent int) {
	amp := 1 + unit(seed, -1)
	own := s.DA(0).OwnedBox()
	ba := b.Array()
	n := float64(extent)
	idx := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				x, y, z := (float64(i)+0.5)/n, (float64(j)+0.5)/n, (float64(k)+0.5)/n
				cell := (k*extent+j)*extent + i
				ba[idx] = amp * (x*y*z + 1e-3*unit(seed, cell))
				idx++
			}
		}
	}
}

// solve is one op on one rank: time to solution from x = 0.
func (rk *mgRank) solve(c *mpi.Comm) {
	rk.x.Set(0)
	rk.t.marks = rk.t.marks[:0]
	rk.t.refPre = rk.ref.run()
	c.Barrier()
	rk.t.start = time.Now()
	rk.cycles, rk.relres = rk.s.Solve(rk.b, rk.x, mgRtol, mgMaxCycles)
	rk.t.end = time.Now()
	rk.t.refPost = rk.ref.run()
	rk.hist = append(rk.hist[:0], rk.s.History...)
}

// prepare fixes the reference history.  On one rank it is the datatype
// arm's own first solve, which every later op of both arms must repeat bit
// for bit.  On more ranks it is a separate solve of the same forcing and
// decomposition on the in-process virtual-time transport: the residual
// norms are summed across ranks, so a history is bitwise reproducible
// across transports and arms but not across rank counts.
func (in *mgInst) prepare() error {
	if in.np == 1 {
		return nil
	}
	ref, err := newMGArm(kindInproc, in.np, arms[armHand], in.seed, in.extent, in.levels)
	if err != nil {
		return err
	}
	defer ref.m.close()
	if err := ref.m.do(func(c *mpi.Comm) { ref.ranks[c.Rank()].solve(c) }); err != nil {
		return err
	}
	in.ref = append([]float64(nil), ref.ranks[0].hist...)
	return checkConverged(ref.ranks[0])
}

func checkConverged(rk *mgRank) error {
	if rk.cycles == 0 || rk.cycles != len(rk.hist) {
		return fmt.Errorf("%d cycles with a history of %d", rk.cycles, len(rk.hist))
	}
	if rk.relres > mgRtol {
		return fmt.Errorf("relative residual %g above rtol %g after %d cycles", rk.relres, mgRtol, rk.cycles)
	}
	return nil
}

func (in *mgInst) run(arm int) ([]opTiming, error) {
	a := in.arms[arm]
	err := a.m.do(func(c *mpi.Comm) { a.ranks[c.Rank()].solve(c) })
	if a.corrupt {
		a.corrupt = false
		h := a.ranks[in.np-1].hist
		h[len(h)/2] *= 1 + 1e-15
	}
	return []opTiming{a.ranks[0].t}, err
}

func (in *mgInst) verify(arm, _ int) error {
	for r, rk := range in.arms[arm].ranks {
		if err := checkConverged(rk); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		if in.ref == nil {
			in.ref = append([]float64(nil), rk.hist...)
		}
		if len(rk.hist) != len(in.ref) {
			return fmt.Errorf("rank %d: %d cycles, reference took %d", r, len(rk.hist), len(in.ref))
		}
		for i, v := range in.ref {
			if rk.hist[i] != v {
				return fmt.Errorf("rank %d: cycle %d residual %v, reference %v", r, i+1, rk.hist[i], v)
			}
		}
	}
	return nil
}

func (in *mgInst) corruptNext(arm int) { in.arms[arm].corrupt = true }

func (in *mgInst) record(tr *tracer, arm, op, _ int, t opTiming) {
	if arm != armDT {
		return
	}
	root := tr.add("mg.Solve", t.start, t.end, -1, op, 0)
	tr.add("mg.init", t.start, t.marks[0].at, root, op, 0)
	for i, m := range t.marks {
		end := t.end
		if i+1 < len(t.marks) {
			end = t.marks[i+1].at
		}
		tr.add("harness.refSweep", m.at, m.resume, root, op, 0)
		tr.add("mg.cycle", m.resume, end, root, op, 0)
	}
}

func (in *mgInst) steps() int  { return len(in.ref) }
func (in *mgInst) cycles() int { return len(in.ref) }

func (in *mgInst) wire() (int64, transport.TCPStats, shm.Stats) {
	m := in.arms[armDT].m
	return m.stats().FusedSends, sumTCP(m.tcp), sumShm(m.shm)
}

func (in *mgInst) selfBytesShare() float64 { return in.arms[armDT].m.selfBytesShare() }

func (in *mgInst) close() {
	for _, a := range in.arms {
		if a != nil {
			a.m.close()
		}
	}
}
