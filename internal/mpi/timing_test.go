package mpi

import (
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
)

// Virtual-time shape tests: these assert the qualitative performance claims
// of the paper at the MPI level, independent of wall-clock noise.

// agvLatency measures the virtual time of one Allgatherv where rank 0
// contributes bigBytes and everyone else 8 bytes.
func agvLatency(t *testing.T, n int, algo AllgathervAlgo, bigBytes int) float64 {
	t.Helper()
	cfg := Baseline()
	cfg.Allgatherv = algo
	w := testWorld(n, cfg)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 8
	}
	counts[0] = bigBytes
	_, total := prefix(nil, counts)
	err := w.Run(func(c *Comm) error {
		mine := make([]byte, counts[c.Rank()])
		recv := make([]byte, total)
		c.Allgatherv(mine, counts, recv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxClock()
}

func TestRingSerializesLargeMessage(t *testing.T) {
	// With one 32 KiB outlier among 8-byte contributions, the ring must be
	// much slower than recursive doubling, and the gap must grow with N.
	const big = 32 * 1024
	ring16 := agvLatency(t, 16, AGRing, big)
	rd16 := agvLatency(t, 16, AGRecursiveDoubling, big)
	if ring16 < 2*rd16 {
		t.Fatalf("ring (%.1fus) should be >> recursive doubling (%.1fus) at 16 ranks",
			ring16*1e6, rd16*1e6)
	}
	ring64 := agvLatency(t, 64, AGRing, big)
	rd64 := agvLatency(t, 64, AGRecursiveDoubling, big)
	if ring64/rd64 < ring16/rd16 {
		t.Fatalf("ring/recdbl gap should grow with N: %.2f at 16, %.2f at 64",
			ring16/rd16, ring64/rd64)
	}
}

func TestDisseminationOutpacesRingOnOutlier(t *testing.T) {
	const big = 32 * 1024
	for _, n := range []int{5, 12, 24} { // non-powers-of-two
		ring := agvLatency(t, n, AGRing, big)
		dis := agvLatency(t, n, AGDissemination, big)
		if dis >= ring {
			t.Fatalf("n=%d: dissemination (%.1fus) should beat ring (%.1fus)",
				n, dis*1e6, ring*1e6)
		}
	}
}

func TestAdaptivePolicyPicksNonuniformAlgorithm(t *testing.T) {
	const big = 32 * 1024
	// Adaptive must match the forced nonuniform algorithm, not the ring.
	adaptive := agvLatency(t, 16, AGAdaptive, big)
	forced := agvLatency(t, 16, AGRecursiveDoubling, big)
	ring := agvLatency(t, 16, AGRing, big)
	if adaptive > forced*1.01 {
		t.Fatalf("adaptive (%.1fus) did not switch to recursive doubling (%.1fus)",
			adaptive*1e6, forced*1e6)
	}
	if adaptive > ring/2 {
		t.Fatalf("adaptive (%.1fus) not clearly better than ring (%.1fus)",
			adaptive*1e6, ring*1e6)
	}
}

func TestAutoPolicyUsesRingForUniformLarge(t *testing.T) {
	// For genuinely uniform large volumes the baseline ring choice is
	// right, and adaptive must not regress it.
	n := 16
	uniform := func(algo AllgathervAlgo) float64 {
		cfg := Baseline()
		cfg.Allgatherv = algo
		w := testWorld(n, cfg)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 16 * 1024
		}
		_, total := prefix(nil, counts)
		if err := w.Run(func(c *Comm) error {
			recv := make([]byte, total)
			c.Allgatherv(make([]byte, counts[c.Rank()]), counts, recv)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	auto := uniform(AGAuto)
	adaptive := uniform(AGAdaptive)
	if adaptive > auto*1.05 {
		t.Fatalf("adaptive (%.1fus) regressed uniform-large case vs auto (%.1fus)",
			adaptive*1e6, auto*1e6)
	}
}

// TestAllgathervNotSlowerThanPaddedAllgather is the classic self-consistent
// guideline MPI_Allgatherv <= MPI_Allgather: gathering nonuniform
// contributions (rank r sends (r+1)*4096 bytes) must not cost more virtual
// time than padding every contribution to the maximum and calling Allgather.
func TestAllgathervNotSlowerThanPaddedAllgather(t *testing.T) {
	const n, base = 8, 4096
	counts := make([]int, n)
	for r := range counts {
		counts[r] = (r + 1) * base
	}
	_, total := prefix(nil, counts)
	maxc := counts[n-1]
	clock := func(f func(c *Comm)) float64 {
		w := NewWorld(simnet.Paper(n), Compiled())
		if err := w.Run(func(c *Comm) error { f(c); return nil }); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	vec := clock(func(c *Comm) {
		c.Allgatherv(make([]byte, counts[c.Rank()]), counts, make([]byte, total))
	})
	pad := clock(func(c *Comm) {
		c.Allgather(make([]byte, maxc), make([]byte, n*maxc))
	})
	if vec > pad {
		t.Fatalf("Allgatherv(counts) %.1fus slower than max-padded Allgather %.1fus", vec*1e6, pad*1e6)
	}
}

// neighborAlltoallw measures one ring-neighbor Alltoallw (the paper's
// Figure 15 pattern) on a heterogeneous paper cluster.
func neighborAlltoallw(t *testing.T, n int, algo AlltoallwAlgo, iters int) float64 {
	t.Helper()
	cfg := Optimized()
	cfg.Alltoallw = algo
	w := NewWorld(simnet.Paper(n), cfg)
	mat := datatype.Contiguous(100, datatype.Double)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		succ, pred := (me+1)%n, (me-1+n)%n
		sends := make([]TypeSpec, n)
		recvs := make([]TypeSpec, n)
		sends[succ] = TypeSpec{Type: mat, Count: 1, Displ: 0}
		recvs[succ] = TypeSpec{Type: mat, Count: 1, Displ: 0}
		if pred != succ {
			sends[pred] = TypeSpec{Type: mat, Count: 1, Displ: 800}
			recvs[pred] = TypeSpec{Type: mat, Count: 1, Displ: 800}
		}
		buf := make([]byte, 1600)
		out := make([]byte, 1600)
		for i := 0; i < iters; i++ {
			c.Alltoallw(buf, sends, out, recvs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxClock() / float64(iters)
}

func TestBinnedAlltoallwAvoidsZeroVolumeCoupling(t *testing.T) {
	// Paper Figure 15: with only neighbor exchanges, the baseline
	// round-robin couples all ranks (zero-byte syncs) and degrades with N;
	// the binned algorithm stays near-flat.
	rr32 := neighborAlltoallw(t, 32, ATRoundRobin, 10)
	bin32 := neighborAlltoallw(t, 32, ATBinned, 10)
	rr128 := neighborAlltoallw(t, 128, ATRoundRobin, 10)
	bin128 := neighborAlltoallw(t, 128, ATBinned, 10)

	if bin32 >= rr32 {
		t.Fatalf("32 ranks: binned (%.1fus) should beat round-robin (%.1fus)",
			bin32*1e6, rr32*1e6)
	}
	if bin128 >= rr128 {
		t.Fatalf("128 ranks: binned (%.1fus) should beat round-robin (%.1fus)",
			bin128*1e6, rr128*1e6)
	}
	// Round-robin grows strongly with N; binned should grow much less.
	if rr128 < 2*rr32 {
		t.Fatalf("round-robin did not degrade with N: %.1fus -> %.1fus", rr32*1e6, rr128*1e6)
	}
	if bin128 > bin32*2.5 {
		t.Fatalf("binned degraded too much with N: %.1fus -> %.1fus", bin32*1e6, bin128*1e6)
	}
	imp := 1 - bin128/rr128
	if imp < 0.5 {
		t.Fatalf("binned improvement at 128 ranks only %.0f%%, want >50%%", imp*100)
	}
}

func TestSmallFirstOrderingHelpsLightPeers(t *testing.T) {
	// Rank 0 sends a huge noncontiguous message to rank 1 and a tiny one to
	// rank 2.  With round-robin (peer order 1 then 2), rank 2 waits behind
	// the big pack; with binning, rank 2's message goes first.
	lat := func(algo AlltoallwAlgo) float64 {
		cfg := Baseline() // single-context engine: expensive processing
		cfg.Alltoallw = algo
		w := testWorld(3, cfg)
		big := datatype.Vector(1<<15, 1, 4, datatype.Double) // 256 KiB sparse
		tiny := datatype.Contiguous(8, datatype.Double)
		err := w.Run(func(c *Comm) error {
			n := 3
			sends := make([]TypeSpec, n)
			recvs := make([]TypeSpec, n)
			var sendbuf, recvbuf []byte
			switch c.Rank() {
			case 0:
				sendbuf = make([]byte, big.Extent()+tiny.Extent())
				sends[1] = TypeSpec{Type: big, Count: 1, Displ: 0}
				sends[2] = TypeSpec{Type: tiny, Count: 1, Displ: big.Extent()}
			case 1:
				recvbuf = make([]byte, big.Size())
				recvs[0] = TypeSpec{Type: datatype.Contiguous(big.Size(), datatype.Byte), Count: 1}
			case 2:
				recvbuf = make([]byte, tiny.Size())
				recvs[0] = TypeSpec{Type: tiny, Count: 1}
			}
			c.Alltoallw(sendbuf, sends, recvbuf, recvs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Clock(2) // completion time of the lightly-coupled rank
	}
	rr := lat(ATRoundRobin)
	binned := lat(ATBinned)
	if binned >= rr {
		t.Fatalf("rank 2 completion: binned %.1fus should beat round-robin %.1fus",
			binned*1e6, rr*1e6)
	}
}

// transposeLatency measures the virtual time to send an NxN matrix of
// 3-double elements column-major (the Figure 12 benchmark) for a config.
func transposeLatency(t *testing.T, n int, cfg Config) (float64, Stats) {
	t.Helper()
	w := testWorld(2, cfg)
	elem := datatype.Contiguous(3, datatype.Double)
	col := datatype.Vector(n, 1, n, elem)
	matT := datatype.Hvector(n, 1, elem.Extent(), col)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, n*n*elem.Extent())
			c.SendType(1, 0, matT, 1, buf)
			return nil
		}
		buf := make([]byte, n*n*elem.Extent())
		c.RecvType(0, 0, datatype.Contiguous(n*n*elem.Size(), datatype.Byte), 1, buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxClock(), w.Stats(0)
}

func TestTransposeSearchQuadraticBaseline(t *testing.T) {
	base256, s256 := transposeLatency(t, 256, Baseline())
	base512, s512 := transposeLatency(t, 512, Baseline())
	opt512, o512 := transposeLatency(t, 512, Optimized())

	if s256.SearchSec <= 0 || s512.SearchSec <= 0 {
		t.Fatal("baseline transpose charged no search time")
	}
	// 4x the elements -> ~16x the search time.
	if s512.SearchSec < 8*s256.SearchSec {
		t.Fatalf("search time not quadratic: %.3fms -> %.3fms",
			s256.SearchSec*1e3, s512.SearchSec*1e3)
	}
	if o512.SearchSec != 0 {
		t.Fatal("optimized transpose charged search time")
	}
	if opt512 >= base512 {
		t.Fatalf("optimized (%.2fms) should beat baseline (%.2fms) at 512",
			opt512*1e3, base512*1e3)
	}
	_ = base256
}

func TestTransposeImprovementGrowsWithSize(t *testing.T) {
	imp := func(n int) float64 {
		base, _ := transposeLatency(t, n, Baseline())
		opt, _ := transposeLatency(t, n, Optimized())
		return 1 - opt/base
	}
	i128 := imp(128)
	i512 := imp(512)
	if i512 <= i128 {
		t.Fatalf("improvement should grow with matrix size: %.0f%% at 128, %.0f%% at 512",
			i128*100, i512*100)
	}
}

func TestSkewAccountedInStats(t *testing.T) {
	w := NewWorld(simnet.Paper(8), Baseline())
	if err := w.Run(func(c *Comm) error {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if w.TotalStats().SkewSec <= 0 {
		t.Fatal("paper cluster injected no skew")
	}
}
