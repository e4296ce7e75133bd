package bench

import (
	"fmt"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
)

// mpiByteType returns a contiguous byte datatype of the given length.
func mpiByteType(n int) *datatype.Type { return datatype.Contiguous(n, datatype.Byte) }

// AblateAgglomeration measures the multigrid application (optimized arm)
// on the fully distributed hierarchy and with coarse-level agglomeration —
// the extension motivated by the measured flattening of the optimized
// Figure 17 curve at high rank counts, where the 25³ coarsest grid leaves
// ~10² cells per rank.
func AblateAgglomeration(procs []int, p MultigridParams, minCells int) *Experiment {
	p.AgglomerateCells, p.Richardson = 1, true
	e := &Experiment{
		ID:     "ablate-agglomeration",
		Title:  fmt.Sprintf("MG coarse-level agglomeration (%d^3 grid, >=%d cells/rank)", p.Extent, minCells),
		XLabel: "procs",
		Unit:   "s",
		Series: []string{"distributed", "agglomerated", "improvement"},
		Expect: "extension: agglomeration pays off once coarse subdomains shrink below the latency floor",
	}
	arm := core.Arms()[1] // MVAPICH2-New
	for _, n := range procs {
		full := RunMultigrid(n, p, arm)
		q := p
		q.AgglomerateCells = minCells
		agg := RunMultigrid(n, q, arm)
		e.Add(fmt.Sprintf("%d", n), map[string]float64{
			"distributed":  full.Seconds,
			"agglomerated": agg.Seconds,
			"improvement":  Improvement(full.Seconds, agg.Seconds),
		})
	}
	return e
}

// Ablation experiments for the design parameters the paper fixes without
// sweeping: the look-ahead window (15 segments), the pipelining granularity,
// the Alltoallw bin threshold, and the choice between recursive doubling
// and dissemination.  DESIGN.md Section 5 lists these as the knobs worth
// understanding; repro -fig ablate regenerates them.

// AblateLookAhead sweeps the dual-context engine's look-ahead window on the
// transpose workload.  Larger windows cost more signature scanning per
// pipeline event without changing the sparse/dense decision for this
// uniformly sparse type, so latency should rise gently past the paper's 15.
func AblateLookAhead(windows []int, n, iters int) *Experiment {
	e := &Experiment{
		ID:     "ablate-lookahead",
		Title:  fmt.Sprintf("Dual-context look-ahead window (transpose %dx%d)", n, n),
		XLabel: "window",
		Unit:   "ms",
		Series: []string{"MVAPICH2-New"},
		Expect: "near-flat: the paper's 15-segment window is safely on the plateau",
	}
	for _, la := range windows {
		cfg := mpi.Optimized()
		cfg.Datatype.LookAhead = la
		r := RunTranspose(n, iters, cfg)
		e.Add(fmt.Sprintf("%d", la), map[string]float64{"MVAPICH2-New": r.Latency * 1e3})
	}
	return e
}

// AblatePipeline sweeps the intermediate-buffer granularity for both
// engines on the transpose workload.  The baseline's total search cost is
// (number of pipeline events) x (mean re-search depth), so smaller granules
// hurt it dramatically; the dual-context engine is nearly granule-blind.
func AblatePipeline(granules []int, n, iters int) *Experiment {
	e := &Experiment{
		ID:     "ablate-pipeline",
		Title:  fmt.Sprintf("Pipelining granularity (transpose %dx%d)", n, n),
		XLabel: "granule",
		Unit:   "ms",
		Series: []string{"MVAPICH2-0.9.5", "MVAPICH2-New"},
		Expect: "baseline degrades as granules shrink (more re-searches); optimized stays flat",
	}
	for _, g := range granules {
		row := map[string]float64{}
		for _, arm := range core.MPIArms() {
			cfg := arm.Config
			cfg.Datatype.Pipeline = g
			r := RunTranspose(n, iters, cfg)
			row[arm.Name] = r.Latency * 1e3
		}
		e.Add(fmt.Sprintf("%dKiB", g/1024), row)
	}
	return e
}

// AblateBinThreshold sweeps the Alltoallw small/large bin boundary on a
// mixed workload: each rank sends one large noncontiguous message to one
// peer and small messages to two others.  The metric is the completion time
// of the small-message receivers — the ranks the small-first rule protects.
func AblateBinThreshold(thresholds []int, iters int) *Experiment {
	e := &Experiment{
		ID:     "ablate-bin",
		Title:  "Alltoallw bin threshold (light-peer completion time)",
		XLabel: "threshold",
		Unit:   "us",
		Series: []string{"light-peer"},
		Expect: "thresholds that classify the small messages as small protect the light peers",
	}
	const nRanks = 8
	for _, th := range thresholds {
		cfg := mpi.Optimized()
		cfg.BinThresholdBytes = th
		lat := runMixedAlltoallw(nRanks, iters, cfg)
		e.Add(fmt.Sprintf("%dB", th), map[string]float64{"light-peer": lat * 1e6})
	}
	return e
}

// runMixedAlltoallw returns the mean completion time of the last
// light-peer: rank 0 sends a large sparse message to rank 1 and 64-byte
// messages to ranks 2 and 3.
func runMixedAlltoallw(n, iters int, cfg mpi.Config) float64 {
	w := core.NewUniformWorld(n, cfg)
	var out float64
	err := w.Run(func(c *mpi.Comm) error {
		big := TransposeType(128) // 384 KiB, 16K sparse segments
		me := c.Rank()
		sends := make([]mpi.TypeSpec, n)
		recvs := make([]mpi.TypeSpec, n)
		var sendbuf, recvbuf []byte
		switch me {
		case 0:
			sendbuf = make([]byte, big.Extent()+128)
			sends[1] = mpi.TypeSpec{Type: big, Count: 1}
			sends[2] = mpi.TypeSpec{Type: mpiByteType(64), Count: 1, Displ: big.Extent()}
			sends[3] = mpi.TypeSpec{Type: mpiByteType(64), Count: 1, Displ: big.Extent() + 64}
		case 1:
			recvbuf = make([]byte, big.Size())
			recvs[0] = mpi.TypeSpec{Type: mpiByteType(big.Size()), Count: 1}
		case 2, 3:
			recvbuf = make([]byte, 64)
			recvs[0] = mpi.TypeSpec{Type: mpiByteType(64), Count: 1}
		}
		c.Barrier()
		t0 := c.Clock()
		for it := 0; it < iters; it++ {
			c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		}
		elapsed := 0.0
		if me == 2 || me == 3 {
			elapsed = c.Clock() - t0
		}
		worst := c.AllreduceScalar(elapsed, mpi.OpMax) / float64(iters)
		if me == 0 {
			out = worst
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// AblateAlgorithms compares recursive doubling and dissemination head to
// head on power-of-two sizes with an outlier volume, where both are
// applicable.
func AblateAlgorithms(procs []int, iters int) *Experiment {
	e := &Experiment{
		ID:     "ablate-algo",
		Title:  "Recursive doubling vs dissemination (Allgatherv, 32 KB outlier)",
		XLabel: "procs",
		Unit:   "us",
		Series: []string{"recursive-doubling", "dissemination", "ring"},
		Expect: "both binomial algorithms track each other and beat the ring",
	}
	for _, n := range procs {
		row := map[string]float64{}
		for _, algo := range []mpi.AllgathervAlgo{mpi.AGRecursiveDoubling, mpi.AGDissemination, mpi.AGRing} {
			cfg := mpi.Optimized()
			cfg.Allgatherv = algo
			row[algo.String()] = RunAllgathervOutlier(n, 4096, iters, cfg) * 1e6
		}
		e.Add(fmt.Sprintf("%d", n), row)
	}
	return e
}

// AblateOutlierThreshold sweeps the nonuniformity detection threshold on a
// mildly skewed volume set (4x spread): low thresholds classify it as
// nonuniform (binomial algorithms), high thresholds keep the ring.
func AblateOutlierThreshold(thresholds []float64, iters int) *Experiment {
	e := &Experiment{
		ID:     "ablate-outlier",
		Title:  "Allgatherv outlier-ratio threshold (4x volume spread, 32 ranks)",
		XLabel: "threshold",
		Unit:   "us",
		Series: []string{"adaptive"},
		Expect: "a step where detection flips between the binomial algorithms and the ring",
	}
	const n = 32
	for _, th := range thresholds {
		cfg := mpi.Optimized()
		cfg.OutlierThreshold = th
		w := core.NewUniformWorld(n, cfg)
		var lat float64
		err := w.Run(func(c *mpi.Comm) error {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 2048
			}
			counts[0] = 4 * 2048 * 4 // 4x the bulk, pushing the total past the ring threshold
			total := 0
			for _, x := range counts {
				total += x
			}
			mine := make([]byte, counts[c.Rank()])
			recv := make([]byte, total)
			v := TimeSection(c, iters, func(int) { c.Allgatherv(mine, counts, recv) })
			if c.Rank() == 0 {
				lat = v
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		e.Add(fmt.Sprintf("%g", th), map[string]float64{"adaptive": lat * 1e6})
	}
	return e
}
