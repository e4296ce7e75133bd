package bench

import (
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// runWorkload executes f on every rank of a world with the given plan and
// returns per-rank observable results.
func runWorkload(t *testing.T, n int, cfg mpi.Config, fp *simnet.FaultPlan, f func(*mpi.Comm) []byte) [][]byte {
	t.Helper()
	w := NewFaultyWorld(n, cfg, fp)
	outs := make([][]byte, n)
	if err := w.Run(func(c *mpi.Comm) error {
		outs[c.Rank()] = f(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return outs
}

// eWorkload is one of the paper's experiment workloads, returning each
// rank's observable output bytes for bytewise comparison across runtime
// configurations (fault injection, engine choice).
type eWorkload struct {
	name string
	f    func(*mpi.Comm) []byte
}

// eWorkloadSet returns the E3–E7 workloads for an n-rank world: outlier
// Allgatherv, ring Alltoallw, vector scatter, multigrid solve.
func eWorkloadSet(n int) []eWorkload {
	return []eWorkload{
		{"E3-allgatherv-outlier", func(c *mpi.Comm) []byte {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 8
			}
			counts[0] = 4096
			total := 0
			for _, x := range counts {
				total += x
			}
			mine := make([]byte, counts[c.Rank()])
			for i := range mine {
				mine[i] = byte(c.Rank() + i)
			}
			recv := make([]byte, total)
			for it := 0; it < 20; it++ {
				c.Allgatherv(mine, counts, recv)
			}
			return recv
		}},
		{"E5-alltoallw-ring", func(c *mpi.Comm) []byte {
			mat := datatype.Contiguous(100, datatype.Double)
			me := c.Rank()
			succ, pred := (me+1)%n, (me-1+n)%n
			sends := make([]mpi.TypeSpec, n)
			recvs := make([]mpi.TypeSpec, n)
			sends[succ] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 0}
			recvs[succ] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 0}
			sends[pred] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 800}
			recvs[pred] = mpi.TypeSpec{Type: mat, Count: 1, Displ: 800}
			sendbuf := make([]byte, 1600)
			for i := range sendbuf {
				sendbuf[i] = byte(me*13 + i)
			}
			recvbuf := make([]byte, 1600)
			for it := 0; it < 20; it++ {
				c.Alltoallw(sendbuf, sends, recvbuf, recvs)
			}
			return recvbuf
		}},
		{"E6-vecscatter", func(c *mpi.Comm) []byte {
			const m = 4096
			me := c.Rank()
			dst := n - 1 - me
			evens := make([]int, m/2)
			odds := make([]int, m/2)
			for k := range evens {
				evens[k] = 2 * k
				odds[k] = 2*k + 1
			}
			plan := petsc.Plan{
				Sends: []petsc.PeerIndices{{Peer: dst, Local: evens}},
				Recvs: []petsc.PeerIndices{{Peer: dst, Local: odds}},
			}
			sc := petsc.NewScatterFromPlan(c, m, m, plan, petsc.ScatterDatatype)
			x := make([]float64, m)
			y := make([]float64, m)
			for i := range x {
				x[i] = float64(me*m + i)
			}
			for it := 0; it < 10; it++ {
				sc.DoArrays(x, y)
			}
			out := make([]byte, 0, 8*m)
			for _, v := range y {
				var b [8]byte
				u := uint64(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				out = append(out, b[:]...)
			}
			return out
		}},
		{"E7-multigrid", func(c *mpi.Comm) []byte {
			p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 30, AgglomerateCells: 1, Richardson: true}
			s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
			cycles, _ := s.Solve(b, x, p.Rtol, p.MaxCycles)
			nat := s.DA(0).GatherNatural(x)
			out := []byte{byte(cycles)}
			for _, v := range nat {
				u := uint64(v * 1e12)
				for i := 0; i < 8; i++ {
					out = append(out, byte(u>>(8*i)))
				}
			}
			return out
		}},
	}
}

// TestEWorkloadsBytewiseUnderFaults checks the acceptance property on the
// paper's own workloads: the E3/E4 outlier Allgatherv, the E5 ring
// Alltoallw, the E6 vector scatter and the E7 multigrid solve all produce
// bytewise-identical data under ~1% message loss + duplication.
func TestEWorkloadsBytewiseUnderFaults(t *testing.T) {
	const n = 8
	fp := &simnet.FaultPlan{Seed: 42, Drop: 0.01, Duplicate: 0.01}

	for _, wl := range eWorkloadSet(n) {
		t.Run(wl.name, func(t *testing.T) {
			clean := runWorkload(t, n, mpi.Optimized(), nil, wl.f)
			faulty := runWorkload(t, n, mpi.Optimized(), fp, wl.f)
			for r := 0; r < n; r++ {
				if len(clean[r]) != len(faulty[r]) {
					t.Fatalf("rank %d: output length changed under faults", r)
				}
				for i := range clean[r] {
					if clean[r][i] != faulty[r][i] {
						t.Fatalf("rank %d: output differs at byte %d under faults", r, i)
					}
				}
			}
		})
	}
}

// TestFaultOverheadExperiment: virtual-time overhead is zero at rate 0 and
// retransmissions appear once the rate is nonzero.
func TestFaultOverheadExperiment(t *testing.T) {
	e := FaultOverhead(8, []float64{0, 0.02}, 10, 7)
	if len(e.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(e.Rows))
	}
	if v, _ := e.Value("0", "overhead %"); v != 0 {
		t.Fatalf("clean run has nonzero overhead %v", v)
	}
	re, _ := e.Value("0.02", "retransmit count")
	if re == 0 {
		t.Fatal("lossy run recorded no retransmissions")
	}
	ov, _ := e.Value("0.02", "overhead %")
	if ov <= 0 {
		t.Fatalf("lossy run has non-positive overhead %v", ov)
	}
}
