package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/service"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// batchJobs is the concurrency of the service workload: one op is this
// many jobs in flight at once.
const batchJobs = 4

// svcRtols gives the jobs of a batch different lengths, so submission
// order and scheduling fairness matter to the makespan.
var svcRtols = [batchJobs]float64{1e-5, 1e-6, 1e-7, 1e-8}

// fleet is a two-daemon in-process service: one TCP endpoint, Mux and
// Service per daemon, the nccdd -serve topology.
type fleet struct {
	eps   []*transport.TCP
	muxes []*transport.Mux
	svcs  []*service.Service
}

func bootFleet(np int, a arm) (*fleet, error) {
	eps, err := newTCPEndpoints(np)
	if err != nil {
		return nil, err
	}
	f := &fleet{eps: eps, muxes: make([]*transport.Mux, np), svcs: make([]*service.Service, np)}
	for r, ep := range eps {
		f.muxes[r] = transport.NewMux(ep)
	}
	err = perRank(np, func(r int) error {
		s, err := service.New(f.muxes[r], service.Config{Rank: r, MPI: a.cfg(), Mode: a.mode})
		f.svcs[r] = s
		return err
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close drains the fleet through the controller and closes the mesh.
func (f *fleet) close() {
	if f.svcs[0] != nil {
		f.svcs[0].Drain()
		for _, s := range f.svcs {
			if s != nil {
				s.Wait()
			}
		}
	}
	for _, m := range f.muxes {
		m.Close()
	}
}

// jobRun is one job of the batch last run.
type jobRun struct {
	spec         int // index into the batch's specs
	id           uint64
	submit, done time.Time
	submitted    time.Duration // time inside Submit
	status       service.JobStatus
	err          error // Submit's error
}

type svcArm struct {
	f       *fleet
	rng     *rand.Rand
	jobs    [batchJobs]jobRun
	n       int  // jobs submitted in the batch last run
	corrupt bool // damage the next batch's last history (tests)
}

// svcInst is the multi-tenant service workload: batches of concurrent
// small multigrid jobs through admission, the cycle scheduler and the Mux.
type svcInst struct {
	np      int
	specs   [batchJobs]service.JobSpec
	refs    [batchJobs][]float64
	arms    [2]*svcArm
	share   float64   // communication-matrix diagonal share of one job
	jobMs   []float64 // per-job latency inside datatype-arm batches
	submits []float64 // time inside Submit, us
}

func buildSvc(np int, seed int64, extent, levels int) (instance, error) {
	in := &svcInst{np: np}
	for i, rtol := range svcRtols {
		in.specs[i] = service.JobSpec{Extent: extent, Levels: levels, Rtol: rtol, MaxCycles: mgMaxCycles, Ranks: np}
	}
	for i, a := range arms {
		f, err := bootFleet(np, a)
		if err != nil {
			in.close()
			return nil, err
		}
		// Both arms draw the same sequence of submission orders.
		in.arms[i] = &svcArm{f: f, rng: rand.New(rand.NewSource(seed))}
	}
	return in, nil
}

// prepare solves every job spec once in-process, on the virtual-time
// transport, for the reference histories.
func (in *svcInst) prepare() error {
	for i, sp := range in.specs {
		w := core.NewUniformWorld(in.np, arms[armDT].cfg())
		p := bench.MultigridParams{Extent: sp.Extent, Levels: sp.Levels, Rtol: sp.Rtol, MaxCycles: sp.MaxCycles}
		res := bench.RunMultigridWorld(w, p, arms[armDT].mode)
		if res.Cycles == 0 || res.RelRes > sp.Rtol {
			return fmt.Errorf("reference job %d did not converge: %d cycles, relres %g", i, res.Cycles, res.RelRes)
		}
		in.refs[i] = res.History
		diag, total := diagonalBytes(w.CommMatrix())
		in.share = float64(diag) / float64(total)
	}
	return nil
}

func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "canceled"
}

// run submits one batch in the seed's next order.
func (in *svcInst) run(arm int) ([]opTiming, error) {
	a := in.arms[arm]
	t, err := in.submitAndWait(a, a.rng.Perm(batchJobs))
	return []opTiming{t}, err
}

// submitAndWait submits the specs named by order and polls every job's
// status each millisecond until all are terminal.  The returned interval
// is the makespan.
func (in *svcInst) submitAndWait(a *svcArm, order []int) (opTiming, error) {
	ctl := a.f.svcs[0]
	var t opTiming
	pending := 0
	t.start = time.Now()
	a.n = len(order)
	for slot, spec := range order {
		j := &a.jobs[slot]
		*j = jobRun{spec: spec, submit: time.Now()}
		j.id, j.err = ctl.Submit(in.specs[spec])
		j.submitted = time.Since(j.submit)
		if j.err == nil {
			pending++
		}
	}
	t.end = time.Now()
	for deadline := t.start.Add(time.Minute); pending > 0; {
		time.Sleep(time.Millisecond)
		now := time.Now()
		if now.After(deadline) {
			return t, fmt.Errorf("service batch still running after a minute")
		}
		for slot := range a.jobs[:a.n] {
			j := &a.jobs[slot]
			if j.err != nil || !j.done.IsZero() {
				continue
			}
			if st, ok := ctl.Status(j.id); ok && terminal(st.State) {
				j.status, j.done = st, now
				t.end = now
				pending--
			}
		}
	}
	if a.corrupt {
		a.corrupt = false
		if h := a.jobs[a.n-1].status.History; len(h) > 0 {
			h[len(h)-1] *= 1 + 1e-15
		}
	}
	return t, nil
}

func (in *svcInst) verify(arm, _ int) error {
	a := in.arms[arm]
	for slot := range a.jobs[:a.n] {
		j := &a.jobs[slot]
		if j.err != nil {
			if errors.Is(j.err, service.ErrOverloaded) {
				return fmt.Errorf("job %d: %w: %v", slot, errRefused, j.err)
			}
			return fmt.Errorf("job %d: submit: %w", slot, j.err)
		}
		if j.status.State != "completed" {
			return fmt.Errorf("job %d ended %s: %s", j.id, j.status.State, j.status.Error)
		}
		ref := in.refs[j.spec]
		if len(j.status.History) != len(ref) {
			return fmt.Errorf("job %d: %d cycles, reference took %d", j.id, len(j.status.History), len(ref))
		}
		for i, v := range ref {
			if j.status.History[i] != v {
				return fmt.Errorf("job %d: cycle %d residual %v, reference %v", j.id, i+1, j.status.History[i], v)
			}
		}
		if arm == armDT {
			in.jobMs = append(in.jobMs, ms(j.done.Sub(j.submit)))
			in.submits = append(in.submits, float64(j.submitted.Nanoseconds())/1e3)
		}
	}
	return nil
}

func (in *svcInst) corruptNext(arm int) { in.arms[arm].corrupt = true }

// record puts the batch on lane 0 and each job on a lane of its own: the
// jobs overlap in time, and spans on one lane must nest.
func (in *svcInst) record(tr *tracer, arm, op, _ int, t opTiming) {
	if arm != armDT {
		return
	}
	root := tr.add("service.batch", t.start, t.end, -1, op, 0)
	for slot := range in.arms[arm].jobs[:in.arms[arm].n] {
		j := &in.arms[arm].jobs[slot]
		tr.add("service.job", j.submit, j.done, root, op, 1+slot)
	}
}

func (in *svcInst) steps() int { return 1 }

// cycles is the V-cycle count of one batch.
func (in *svcInst) cycles() int {
	n := 0
	for _, h := range in.refs {
		n += len(h)
	}
	return n
}

func (in *svcInst) wire() (int64, transport.TCPStats, shm.Stats) {
	// Tenant worlds live inside the service; their fused sends are counted
	// where they reach the mesh, one SendVectored each.
	tcp := sumTCP(in.arms[armDT].f.eps)
	return tcp.VectoredSends, tcp, shm.Stats{}
}

func (in *svcInst) selfBytesShare() float64 { return in.share }

func (in *svcInst) close() {
	for _, a := range in.arms {
		if a != nil {
			a.f.close()
		}
	}
}
