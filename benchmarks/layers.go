package main

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nccd/internal/bench"
	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/transport"
)

// The layer replays.  After the workload's own traced loop, a traced run
// measures every layer from outside on fixed shapes, by timing calls into
// public functions: the multigrid chain Apply > GlobalToLocal >
// GhostScatter().DoArrays on a live two-rank solver, the scatter chain
// DoArrays > Alltoallw > {Pack, raw transport one-way, Unpack} on the
// Fig. 16 index lists, raw ping-pong on every transport, and the service.
// A child is a separate call, not a slice of its parent's interval, so the
// tree is one of durations: self time is a span minus its children.
//
// Where the workload that was run already holds a fixture (its solver, its
// samples), the replay uses it instead of building and solving again.

// timedOnRank0 runs fn on the calling rank and, on rank 0, records it as a
// child span of parent.  Every rank has to make a collective call; one
// clock is enough.
func timedOnRank0(tr *tracer, c *mpi.Comm, name string, parent, op int, fn func()) int {
	if c.Rank() != 0 {
		fn()
		return -1
	}
	return tr.timed(name, parent, op, 0, fn)
}

// rep runs fn n times and returns the durations in microseconds.
func rep(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = usOf(time.Since(t0))
	}
	return out
}

// pair is two raw transport endpoints with a delivery-stamping handler:
// the fixture of the transport ping-pong replays.  All traffic is loopback
// inside this process.
type pair struct {
	ep    [2]transport.Transport
	got   chan time.Time // delivery timestamps, one per awaited frame
	echo  atomic.Bool    // endpoint 1 sends every frame straight back
	close func()
}

func (p *pair) handler(self int) transport.Handler {
	return func(_ int, hdr transport.Header, payload []byte) {
		if self == 1 && p.echo.Load() {
			hdr.Src = 1
			// Send takes the payload over; replying from the delivery
			// goroutine keeps scheduler hand-offs out of the round trip.
			if err := p.ep[1].Send(0, hdr, payload); err != nil {
				panic(err)
			}
			return
		}
		datatype.PutBuffer(payload)
		p.got <- time.Now()
	}
}

func (p *pair) start() error {
	return perRank(2, func(r int) error { return p.ep[r].Start(p.handler(r), nil) })
}

// send moves n bytes from endpoint 0 to endpoint 1 and, with echo, back,
// returning when they were sent and when they were delivered.
func (p *pair) send(n int, echo bool) (start, end time.Time, err error) {
	p.echo.Store(echo)
	buf := datatype.GetBuffer(n)
	start = time.Now()
	if err := p.ep[0].Send(1, transport.Header{Ctx: 1, Src: 0, Tag: 9}, buf); err != nil {
		return start, start, err
	}
	return start, <-p.got, nil
}

func newPair(a, b transport.Transport, closers ...io.Closer) *pair {
	p := &pair{ep: [2]transport.Transport{a, b}, got: make(chan time.Time, 1)}
	p.close = func() {
		for _, c := range closers {
			c.Close()
		}
	}
	return p
}

func newTCPPair() (*pair, error) {
	eps, err := newTCPEndpoints(2)
	if err != nil {
		return nil, err
	}
	p := newPair(eps[0], eps[1], eps[0], eps[1])
	return p, p.start()
}

func newShmPair() (*pair, error) {
	eps, err := newShmEndpoints(2)
	if err != nil {
		return nil, err
	}
	p := newPair(eps[0], eps[1], eps[0], eps[1])
	return p, p.start()
}

// newMuxPair is a TCP pair seen through one job namespace of a Mux on each
// side, the path every service tenant's frames take.
func newMuxPair() (*pair, error) {
	eps, err := newTCPEndpoints(2)
	if err != nil {
		return nil, err
	}
	muxes := [2]*transport.Mux{transport.NewMux(eps[0]), transport.NewMux(eps[1])}
	var subs [2]*transport.Sub
	for r, m := range muxes {
		if subs[r], err = m.Sub(7, []int{0, 1}); err != nil {
			return nil, err
		}
	}
	p := newPair(subs[0], subs[1], muxes[0], muxes[1])
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, perRank(2, func(r int) error { return muxes[r].Start() })
}

// pingPong times reps round trips of n bytes on p, each recorded as a span.
func pingPong(tr *tracer, name string, p *pair, n, reps int) error {
	for i := 0; i < reps+8; i++ {
		start, end, err := p.send(n, true)
		if err != nil {
			return err
		}
		if i >= 8 { // the first few warm the connection and the pool
			tr.add(name, start, end, -1, i, 0)
		}
	}
	return nil
}

func replayTransports(tr *tracer, v map[string]float64, faceBytes, scatterBytes int) (shm *pair, err error) {
	const reps = 300
	for _, c := range []struct {
		mk    func() (*pair, error)
		name  string
		sizes []int
		keys  []string
	}{
		{newTCPPair, "transport.tcp.rtt", []int{64, faceBytes}, []string{"transport.tcp_rtt_64B_us", "transport.tcp_rtt_72KiB_us"}},
		{newMuxPair, "transport.mux.rtt", []int{64}, []string{"transport.mux_rtt_64B_us"}},
		{newShmPair, "transport.shm.rtt", []int{64, scatterBytes}, []string{"transport.shm_rtt_64B_us", "transport.shm_rtt_256KiB_us"}},
	} {
		p, err := c.mk()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		for i, n := range c.sizes {
			span := fmt.Sprintf("%s.%dB", c.name, n)
			if err := pingPong(tr, span, p, n, reps); err != nil {
				p.close()
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			v[c.keys[i]] = spanP10(tr, span)
		}
		if c.name == "transport.shm.rtt" {
			return p, nil // the scatter chain replays one-way sends on it
		}
		p.close()
	}
	return nil, nil
}

// replayScatter measures the Fig. 16 chain on a fresh two-rank shm mesh
// under the datatype arm: the scatter, the Alltoallw it makes, and the
// pack, wire and unpack inside that, every one rebuilt from the same index
// lists with identical shapes.
func replayScatter(tr *tracer, v map[string]float64, n int, raw *pair) error {
	const reps = 200
	a := arms[armDT]
	m, err := newMesh(kindShm, 2, a.cfg())
	if err != nil {
		return err
	}
	defer m.close()
	evens, odds := scatterIndices(n)
	ones := make([]int, len(evens))
	for i := range ones {
		ones[i] = 1
	}
	sendT := datatype.Canonicalize(datatype.Indexed(ones, evens, datatype.Double))
	recvT := datatype.Canonicalize(datatype.Indexed(ones, odds, datatype.Double))
	contig := datatype.Contiguous(len(evens), datatype.Double)
	pack, unpack, flat := datatype.PlanFor(sendT, 1), datatype.PlanFor(recvT, 1), datatype.PlanFor(contig, 1)
	var fail error // written by rank 0 only
	err = m.do(func(c *mpi.Comm) {
		me, peer := c.Rank(), 1-c.Rank()
		timed := func(name string, parent, op int, fn func()) int {
			return timedOnRank0(tr, c, name, parent, op, fn)
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		xb, yb := floatbytes.Bytes(x), floatbytes.Bytes(y)
		var sc *petsc.Scatter
		plan := scatterPlan(2, me, n)
		news := rep(5, func() { sc = petsc.NewScatterFromPlan(c, n, n, plan, a.mode) })
		rev := sc.Reverse()
		sends, recvs := make([]mpi.TypeSpec, 2), make([]mpi.TypeSpec, 2)
		sends[peer] = mpi.TypeSpec{Type: sendT, Count: 1}
		recvs[peer] = mpi.TypeSpec{Type: recvT, Count: 1}
		wire := make([]byte, pack.Bytes())
		var compile []float64
		if me == 0 {
			compile = rep(20, func() { datatype.CompilePlan(sendT, 1) })
		}
		for i := 0; i < reps; i++ {
			c.Barrier()
			root := timed("petsc.DoArrays", -1, i, func() { sc.DoArrays(x, y) })
			c.Barrier()
			a2a := timed("mpi.Alltoallw", root, i, func() { c.Alltoallw(xb, sends, yb, recvs) })
			c.Barrier()
			timed("petsc.DoArraysMode.reverse.add", -1, i, func() { rev.DoArraysMode(y, x, petsc.Add) })
			if me != 0 {
				continue
			}
			tr.timed("datatype.Pack", a2a, i, 0, func() { pack.Pack(xb, wire) })
			start, end, err := raw.send(len(wire), false)
			if err != nil {
				fail = err
			}
			tr.add("transport.shm.oneway", start, end, a2a, i, 0)
			tr.timed("datatype.Unpack", a2a, i, 0, func() { unpack.Unpack(yb, wire) })
			tr.timed("datatype.Pack.contiguous", -1, i, 0, func() { flat.Pack(xb, wire) })
		}
		if me == 0 {
			v["petsc.new_scatter_ms"] = p10(news) / 1e3
			v["datatype.plan_compile_us"] = p10(compile)
		}
	})
	if err != nil {
		return err
	}
	us := func(name string) float64 { return spanP10(tr, name) }
	v["petsc.scatter_us"] = us("petsc.DoArrays")
	v["petsc.scatter_rev_add_us"] = us("petsc.DoArraysMode.reverse.add")
	v["mpi.alltoallw_us"] = us("mpi.Alltoallw")
	v["petsc.self_us"] = v["petsc.scatter_us"] - v["mpi.alltoallw_us"]
	v["datatype.pack_us"] = us("datatype.Pack")
	v["datatype.unpack_us"] = us("datatype.Unpack")
	v["datatype.pack_contig_us"] = us("datatype.Pack.contiguous")
	v["datatype.pack_gbps"] = float64(pack.Bytes()) / (v["datatype.pack_us"] * 1e3) // computed bytes over time
	v["mpi.self_us"] = v["mpi.alltoallw_us"] - (v["datatype.pack_us"] + v["datatype.unpack_us"] + us("transport.shm.oneway"))
	return fail
}

// solves runs n solves on a parked solver arm and returns their samples.
func solves(arm *mgArm, n int) (samples, error) {
	var s samples
	for i := 0; i < n; i++ {
		err := arm.m.do(func(c *mpi.Comm) { arm.ranks[c.Rank()].solve(c) })
		if err == nil {
			err = checkConverged(arm.ranks[0])
		}
		if err != nil {
			return s, err
		}
		s.add(arm.ranks[0].t)
	}
	return s, nil
}

// replayMGChain replays, on every level of the live solver, the ghost
// exchange, and on the finest level the whole chain Apply >
// GlobalToLocal > GhostScatter().DoArrays.
func replayMGChain(tr *tracer, v map[string]float64, arm *mgArm) error {
	const reps = 60
	ownedCells := 0
	err := arm.m.do(func(c *mpi.Comm) {
		s := arm.ranks[c.Rank()].s
		timed := func(name string, parent, op int, fn func()) int {
			return timedOnRank0(tr, c, name, parent, op, fn)
		}
		for l := 0; l < s.Levels(); l++ {
			da := s.DA(l)
			g, out, local := da.CreateGlobalVec(), da.CreateGlobalVec(), da.CreateLocalArray()
			for i := range g.Array() {
				g.Array()[i] = float64(i % 7)
			}
			for i := 0; i < reps; i++ {
				parent := -1
				if l == 0 {
					c.Barrier()
					parent = timed("mg.Apply", -1, i, func() { s.Apply(g, out) })
				}
				c.Barrier()
				parent = timed(fmt.Sprintf("dmda.GlobalToLocal.l%d", l), parent, i, func() { da.GlobalToLocal(g, local) })
				if l == 0 {
					c.Barrier()
					timed("petsc.GhostScatter.DoArrays.l0", parent, i, func() { da.GhostScatter().DoArrays(g.Array(), local) })
				}
			}
		}
		if c.Rank() == 0 {
			ownedCells = s.DA(0).OwnedCount()
		}
	})
	if err != nil {
		return err
	}
	v["mg.apply_l0_ms"] = spanP10(tr, "mg.Apply") / 1e3
	for l := 0; l < 4; l++ {
		v[fmt.Sprintf("dmda.g2l_l%d_us", l)] = spanP10(tr, fmt.Sprintf("dmda.GlobalToLocal.l%d", l))
	}
	v["petsc.scatter_l0_us"] = spanP10(tr, "petsc.GhostScatter.DoArrays.l0")
	v["dmda.self_l0_us"] = v["dmda.g2l_l0_us"] - v["petsc.scatter_l0_us"]
	v["mg.stencil_self_ms"] = v["mg.apply_l0_ms"] - v["dmda.g2l_l0_us"]/1e3
	v["mg.stencil_ns_per_cell"] = 1e6 * v["mg.stencil_self_ms"] / float64(ownedCells)
	return nil
}

// replaySmallCollectives times the small-message collectives the service's
// 32^3 jobs live on, on the two-rank solver's TCP mesh.
func replaySmallCollectives(tr *tracer, v map[string]float64, arm *mgArm) error {
	const reps = 300
	mat := datatype.Contiguous(100, datatype.Double)
	err := arm.m.do(func(c *mpi.Comm) {
		peer := (c.Rank() + 1) % c.Size()
		sends, recvs := make([]mpi.TypeSpec, c.Size()), make([]mpi.TypeSpec, c.Size())
		sends[peer] = mpi.TypeSpec{Type: mat, Count: 1}
		recvs[peer] = mpi.TypeSpec{Type: mat, Count: 1}
		sendbuf, recvbuf := make([]byte, 800), make([]byte, 800)
		timed := func(name string, op int, fn func()) { timedOnRank0(tr, c, name, -1, op, fn) }
		for i := 0; i < reps; i++ {
			timed("mpi.Alltoallw.800B", i, func() { c.Alltoallw(sendbuf, sends, recvbuf, recvs) })
			timed("mpi.Barrier", i, func() { c.Barrier() })
			timed("mpi.Allreduce", i, func() { c.AllreduceScalar(1, mpi.OpSum) })
		}
	})
	v["mpi.alltoallw_small_us"] = spanP10(tr, "mpi.Alltoallw.800B")
	v["mpi.barrier_us"] = spanP10(tr, "mpi.Barrier")
	v["mpi.allreduce_us"] = spanP10(tr, "mpi.Allreduce")
	return err
}

// bareJobs runs the service's job specs back to back on the plain TCP
// mesh, each through bench.MultigridRank, the very body a service job
// runs on each rank, with no service around it.  It returns the total time
// in ms: the work a batch cannot avoid.
func bareJobs(arm *mgArm, extent, levels int) (float64, error) {
	total := 0.0
	var fail error // written by rank 0 only
	err := arm.m.do(func(c *mpi.Comm) {
		for pass := 0; pass < 2; pass++ { // the first pass warms the mesh
			t0 := time.Now()
			for _, rtol := range svcRtols {
				p := bench.MultigridParams{Extent: extent, Levels: levels, Rtol: rtol, MaxCycles: mgMaxCycles}
				if _, err := bench.MultigridRank(c, p, arms[armDT].mode, bench.MultigridRankOptions{}); err != nil && c.Rank() == 0 {
					fail = err
				}
			}
			if c.Rank() == 0 {
				total = ms(time.Since(t0))
			}
		}
	})
	if err == nil {
		err = fail
	}
	return total, err
}

// spanP10 is the lower decile, in microseconds, of the spans called name.
func spanP10(tr *tracer, name string) float64 {
	var durs []float64
	for _, s := range tr.spans {
		if s.name == name {
			durs = append(durs, usOf(s.end.Sub(s.start)))
		}
	}
	return p10(durs)
}

// layerMetrics turns the traced loop's output and the layer replays into
// the per-layer metrics, prints the layer budget and returns the values by
// metric name.
func layerMetrics(log io.Writer, def workloadDef, inst instance, sz sizes, seed int64, out *loopOut, e2e map[string]float64, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	loopMetrics(v, def, inst, out, e2e)

	// Transports, then the scatter chain, which sends one-way on the raw
	// shm pair.
	face := 8 * sz.mgExtent * sz.mgExtent // one ghost face of the finest level at np=2
	raw, err := replayTransports(tr, v, face, 8*sz.scatterN/2)
	if err != nil {
		return nil, err
	}
	err = replayScatter(tr, v, sz.scatterN, raw)
	raw.close()
	if err != nil {
		return nil, fmt.Errorf("scatter chain: %w", err)
	}
	bare, err := solverMetrics(tr, v, inst, sz, seed, out)
	if err != nil {
		return nil, err
	}
	if err := serviceMetrics(tr, v, sz, seed, bare); err != nil {
		return nil, err
	}

	rows := tr.budget()
	printBudget(log, def.name, rows)
	for _, bad := range shortParents(rows) {
		fmt.Fprintf(log, "  warning: %s\n", bad)
	}
	return v, nil
}

// loopMetrics is what the workload's own traced loop says about itself.
func loopMetrics(v map[string]float64, def workloadDef, inst instance, out *loopOut, e2e map[string]float64) {
	dt := out.plain[armDT]
	tracedOp := assemble(def.quiet, out.traced[armDT].init, out.traced[armDT].step, inst.steps())
	v["mg.cycles"] = float64(inst.cycles())
	v["petsc.hand_over_dt"] = e2e["op_hand_ms"] / e2e["op_ms"]
	v["bench.trace_overhead_pct"] = 100 * (tracedOp/e2e["op_ms"] - 1)
	v["bench.samples"] = float64(len(dt.step) + len(out.traced[armDT].step))
	v["bench.quiet_share"] = quietShare(dt.step)
	v["bench.ops_per_s"] = 1e3 / e2e["op_ms"] // one client, one op in flight
	v["mpi.self_bytes_share"] = inst.selfBytesShare()
	v["datatype.pool_outstanding_kb"] = float64(datatype.PoolOutstandingBytes()) / 1024
	perOp := func(pick func(c counters) int64) float64 {
		var xs []float64
		for i, d := range out.deltas {
			xs = append(xs, float64(pick(d))/out.deltaOps[i])
		}
		return quantile(xs, 0.5)
	}
	v["mpi.msgs_per_op"] = perOp(func(c counters) int64 { return c.msgs })
	v["mpi.bytes_per_op"] = perOp(func(c counters) int64 { return c.bytes })
	v["mpi.fused_sends_per_op"] = perOp(func(c counters) int64 { return c.fused })
	v["datatype.plan_cache_misses_per_op"] = perOp(func(c counters) int64 { return c.planMisses })
	v["datatype.pool_gets_per_op"] = perOp(func(c counters) int64 { return c.poolGets })
	v["transport.tcp_frames_per_op"] = perOp(func(c counters) int64 { return c.tcp.FramesSent })
	v["transport.tcp_bytes_per_op"] = perOp(func(c counters) int64 { return c.tcp.BytesSent })
	v["transport.tcp_vectored_per_op"] = perOp(func(c counters) int64 { return c.tcp.VectoredSends })
	v["transport.shm_frames_per_op"] = perOp(func(c counters) int64 { return c.shm.FramesSent })
	v["transport.shm_ring_full_stalls_per_op"] = perOp(func(c counters) int64 { return c.shm.RingFullStalls })
	v["transport.shm_stall_us_per_op"] = perOp(func(c counters) int64 { return c.shm.StallNanos }) / 1e3
	meshes := rep(5, func() {
		if m, err := newMesh(def.kind, def.np, arms[armDT].cfg()); err == nil {
			m.close()
		}
	})
	v["transport.mesh_setup_ms"] = p10(meshes) / 1e3
}

// solverMetrics measures the single-rank solver (kernels without a wire)
// and the two-rank TCP solver (the same kernels plus the whole stack),
// replays the multigrid chain and the small collectives on the latter's
// mesh, and returns the time of the service's jobs run bare on it.
func solverMetrics(tr *tracer, v map[string]float64, inst instance, sz sizes, seed int64, out *loopOut) (bareMs float64, err error) {
	mgW, _ := inst.(*mgInst)
	np1, np2 := out.plain[armDT], out.plain[armDT]
	first := out.firstOpMs
	var one, two *mgArm
	if mgW != nil && mgW.np == 1 {
		one = mgW.arms[armDT]
	} else {
		if one, err = newMGArm(kindInproc, 1, arms[armDT], seed, sz.mgExtent, sz.mgLevels); err != nil {
			return 0, err
		}
		firstSolve, err := solves(one, 1)
		if err == nil {
			np1, err = solves(one, 2)
		}
		one.m.close()
		if err != nil {
			return 0, fmt.Errorf("single-rank solver: %w", err)
		}
		first = firstSolve.total[0]
	}
	cycles := len(np1.step) / len(np1.total)
	v["mg.new_ms"] = one.newMs
	v["mg.cycle_ms"] = lowerQuartile(np1.step)
	v["mg.cycle_p50_ms"] = quantile(np1.step, 0.5)
	v["mg.cycle_p90_ms"] = quantile(np1.step, 0.9)
	v["mg.init_ms"] = lowerQuartile(np1.init)
	v["mg.first_op_excess_ms"] = first - assemble(lowerQuartile, np1.init, np1.step, cycles)

	if mgW != nil && mgW.np == 2 {
		two = mgW.arms[armDT]
	} else {
		if two, err = newMGArm(kindTCP, 2, arms[armDT], seed, sz.mgExtent, sz.mgLevels); err != nil {
			return 0, err
		}
		defer two.m.close()
		if _, err = solves(two, 1); err == nil {
			np2, err = solves(two, 1)
		}
		if err != nil {
			return 0, fmt.Errorf("two-rank solver: %w", err)
		}
	}
	v["mg.np2_overhead_ms_per_cycle"] = lowerQuartile(np2.step) - lowerQuartile(np1.step)/2
	for _, w := range two.m.worlds {
		w.EnableTrace()
	}
	withTracer, err := solves(two, 2)
	for _, w := range two.m.worlds {
		w.DisableTrace()
		w.ClearTrace()
	}
	if err != nil {
		return 0, fmt.Errorf("two-rank solver, tracer on: %w", err)
	}
	v["obs.trace_overhead_pct"] = 100 * (assemble(lowerQuartile, withTracer.init, withTracer.step, cycles)/assemble(lowerQuartile, np2.init, np2.step, cycles) - 1)
	if err := replayMGChain(tr, v, two); err != nil {
		return 0, fmt.Errorf("multigrid chain: %w", err)
	}
	if err := replaySmallCollectives(tr, v, two); err != nil {
		return 0, fmt.Errorf("small collectives: %w", err)
	}
	bareMs, err = bareJobs(two, sz.svcExtent, sz.svcLevels)
	if err != nil {
		return 0, fmt.Errorf("bare jobs: %w", err)
	}
	return bareMs, nil
}

// serviceMetrics boots fleets and runs solo jobs and batches of the
// service fixture: a two-daemon in-process fleet (svc.go).
func serviceMetrics(tr *tracer, v map[string]float64, sz sizes, seed int64, bareMs float64) error {
	boots := rep(3, func() {
		if fl, err := bootFleet(2, arms[armDT]); err == nil {
			fl.close()
		}
	})
	built, err := buildSvc(2, seed, sz.svcExtent, sz.svcLevels)
	if err != nil {
		return err
	}
	defer built.close()
	svc := built.(*svcInst)
	if err := svc.prepare(); err != nil {
		return err
	}
	var batches samples
	refused := 0
	const nBatches = 4
	for i := 0; i < nBatches; i++ {
		ts, err := svc.run(armDT)
		if err == nil {
			err = svc.verify(armDT, 0)
		}
		if errors.Is(err, errRefused) {
			refused++
			continue
		}
		if err != nil {
			return fmt.Errorf("service batch: %w", err)
		}
		if i > 0 { // the first batch warms the fleet
			batches.add(ts[0])
			svc.record(tr, armDT, i, 0, ts[0])
		}
	}
	var solo []float64
	for i := 0; i < 3; i++ {
		t, err := svc.submitAndWait(svc.arms[armDT], []int{1})
		if err != nil {
			return fmt.Errorf("solo job: %w", err)
		}
		tr.add("service.solo_job", t.start, t.end, -1, i, 0)
		solo = append(solo, ms(t.end.Sub(t.start)))
	}
	v["service.job_ms"] = p10(svc.jobMs)
	v["service.job_p50_ms"] = quantile(svc.jobMs, 0.5)
	v["service.job_p90_ms"] = quantile(svc.jobMs, 0.9)
	v["service.solo_job_ms"] = p10(solo)
	v["service.submit_us"] = p10(svc.submits)
	v["service.overhead_ms"] = p10(batches.step) - bareMs
	v["service.refused_per_op"] = float64(refused) / nBatches
	v["service.fleet_boot_ms"] = p10(boots) / 1e3
	return nil
}
