// Package service turns a mesh of nccdd daemons into a multi-tenant
// solver service: jobs submitted over HTTP each get their own communicator
// namespace (a transport.Mux Sub) on the one shared peer mesh, an
// admission controller rejects work past resource watermarks with a typed
// ErrOverloaded, a weighted-round-robin credit scheduler time-slices the
// running jobs with a starvation bound, and faults are isolated per job —
// a crashed mesh rank aborts exactly the jobs mapped onto it, which heal
// from their own checkpoints once a supervisor respawns the process, while
// untouched jobs run on bitwise undisturbed.
//
// Control plane: one long-lived "control world" (job id 1) spans every
// mesh rank for the daemon's lifetime.  Mesh rank 0 is the controller —
// it owns the HTTP API, the job table, admission, placement and healing —
// and every rank (rank 0 included) runs a worker that starts, cancels and
// reports tenant jobs on control messages.  Messages are JSON on a single
// user tag; job completion reports travel rank→controller the same way,
// and float64 residual histories round-trip bitwise through JSON, so the
// controller's stored history is exactly the solver's.
package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"nccd/internal/bench"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// Job states reported by the API.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateCompleted = "completed"
	stateFailed    = "failed"
	stateCanceled  = "canceled"
	stateHealing   = "healing"
)

// isTerminalState reports whether a job in state s will never run again.
func isTerminalState(s string) bool {
	return s == stateCompleted || s == stateFailed || s == stateCanceled
}

// controlJob is the reserved mux job id of the control world; tenant jobs
// get ids from 2 up, never reused (released mux ids are tombstoned).
const controlJob = 1

// ctlTag is the user tag all control-plane messages travel on.
const ctlTag = 101

// maxAttempts bounds how many times a job is run (first attempt plus
// heals) before it is declared failed.
const maxAttempts = 3

// JobSpec is the client-submitted description of one solve.
type JobSpec struct {
	// Extent is the cubic grid size per dimension.
	Extent int `json:"extent"`
	// Levels is the multigrid depth (default 3).
	Levels int `json:"levels,omitempty"`
	// Rtol is the solve tolerance (default 1e-6).
	Rtol float64 `json:"rtol,omitempty"`
	// MaxCycles bounds the V-cycle count (default 30).
	MaxCycles int `json:"max_cycles,omitempty"`
	// Ranks is how many mesh ranks the job spans (default: the whole
	// mesh).
	Ranks int `json:"ranks,omitempty"`
	// Weight is the job's share in the cycle scheduler (default 1).
	Weight int `json:"weight,omitempty"`
}

func (sp JobSpec) withDefaults(meshSize int) JobSpec {
	if sp.Levels <= 0 {
		sp.Levels = 3
	}
	if sp.Rtol <= 0 {
		sp.Rtol = 1e-6
	}
	if sp.MaxCycles <= 0 {
		sp.MaxCycles = 30
	}
	if sp.Ranks <= 0 {
		sp.Ranks = meshSize
	}
	if sp.Weight <= 0 {
		sp.Weight = 1
	}
	return sp
}

// params is the solve the spec describes.
func (sp JobSpec) params() bench.MultigridParams {
	return bench.MultigridParams{
		Extent:    sp.Extent,
		Levels:    sp.Levels,
		Rtol:      sp.Rtol,
		MaxCycles: sp.MaxCycles,
	}
}

func (sp JobSpec) validate(meshSize int) error {
	if sp.Ranks > meshSize {
		return fmt.Errorf("job wants %d ranks, mesh has %d", sp.Ranks, meshSize)
	}
	return sp.params().Validate(sp.Ranks)
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID           uint64    `json:"id"`
	State        string    `json:"state"`
	Spec         JobSpec   `json:"spec"`
	Ranks        []int     `json:"ranks,omitempty"`
	Attempts     int       `json:"attempts"`
	Cycles       int       `json:"cycles,omitempty"`
	RelRes       float64   `json:"relres,omitempty"`
	Seconds      float64   `json:"seconds,omitempty"`
	History      []float64 `json:"history,omitempty"`
	Error        string    `json:"error,omitempty"`
	RestoredFrom int       `json:"restored_from,omitempty"`
}

// ctlMsg is the one wire shape of the control plane; Type selects which
// fields are meaningful.
type ctlMsg struct {
	Type   string  `json:"type"` // "start", "cancel", "drain", "report"
	Ext    uint64  `json:"ext,omitempty"`
	Int    uint64  `json:"int,omitempty"`
	Ranks  []int   `json:"ranks,omitempty"`
	Spec   JobSpec `json:"spec,omitempty"`
	Resume bool    `json:"resume,omitempty"`

	// Report fields.
	Rank    int       `json:"rank,omitempty"` // reporting mesh rank
	Status  string    `json:"status,omitempty"`
	Error   string    `json:"error,omitempty"`
	Cycles  int       `json:"cycles,omitempty"`
	RelRes  float64   `json:"relres,omitempty"`
	Seconds float64   `json:"seconds,omitempty"`
	History []float64 `json:"history,omitempty"`
	Base    int       `json:"base,omitempty"` // checkpoint iteration resumed from
}

// job is the controller's record of one tenant job.  Guarded by
// Service.mu.
type job struct {
	id         uint64
	spec       JobSpec
	state      string
	ranks      []int // mesh ranks, job-rank order
	intID      uint64
	attempts   int
	cancelReq  bool
	cancelSent bool

	// Per-attempt bookkeeping: which mesh ranks reported, which died.
	reported    map[int]ctlMsg
	failedRanks map[int]bool

	cycles       int
	relres       float64
	seconds      float64
	history      []float64
	errText      string
	restoredFrom int
	retired      bool // seen terminal: checkpoints removed, queued for eviction
}

// Config parameterizes a Service.
type Config struct {
	// Rank is this daemon's mesh rank; rank 0 hosts the controller.
	Rank int
	// MPI is the per-job world configuration (the Job label is stamped
	// per tenant).
	MPI mpi.Config
	// Mode selects the ghost-exchange backend of tenant solves.
	Mode petsc.ScatterMode
	// CkptDir, when non-empty, enables periodic per-job checkpointing
	// (and with it crash healing): job ext's ranks write collective
	// checkpoints into CkptDir/job<ext>, which the controller removes
	// once the job is terminal.  The directory must be shared by all
	// daemons.
	CkptDir string
	// CheckpointEvery is the V-cycle checkpoint period (default 2).
	CheckpointEvery int
	// Admission holds the watermarks.
	Admission AdmissionConfig
	// OnEvent, when non-nil, receives one-line progress events (the
	// daemon prints them for its supervisor).
	OnEvent func(line string)
}

// Service is one daemon's half of the multi-tenant solver service.
type Service struct {
	cfg Config
	mux *transport.Mux
	ctl *mpi.World
	sch *sched

	mu        sync.Mutex
	jobs      map[uint64]*job // controller only
	queue     []uint64
	retired   []uint64 // terminal jobs, longest-finished first (see retireTerminal)
	nextExt   uint64
	nextInt   uint64
	draining  bool
	drainSent bool
	downRanks map[int]bool

	localMu sync.Mutex
	local   map[uint64]*mpi.World // running tenant worlds by internal id
	localWG sync.WaitGroup

	reports    chan ctlMsg
	peerEvents chan peerEvent
	done       chan struct{}
	runErr     error
}

type peerEvent struct {
	rank int
	up   bool
}

// New builds the service over an unstarted mux, starts the mesh, and
// launches the control world.  Call Wait to block until the service
// drains.
func New(mux *transport.Mux, cfg Config) (*Service, error) {
	cfg.Admission = cfg.Admission.withDefaults()
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2
	}
	s := &Service{
		cfg:        cfg,
		mux:        mux,
		sch:        newSched(),
		jobs:       make(map[uint64]*job),
		nextExt:    1,
		nextInt:    controlJob + 1,
		downRanks:  make(map[int]bool),
		local:      make(map[uint64]*mpi.World),
		reports:    make(chan ctlMsg, 256),
		peerEvents: make(chan peerEvent, 64),
		done:       make(chan struct{}),
	}
	n := mux.Size()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	sub, err := mux.Sub(controlJob, ranks)
	if err != nil {
		return nil, err
	}
	ctlCfg := cfg.MPI
	ctlCfg.Job = 0
	ctl, err := mpi.NewWorldTransport(sub, simnet.Uniform(n, simnet.IBDDR()), ctlCfg)
	if err != nil {
		sub.Close()
		return nil, err
	}
	s.ctl = ctl
	mux.OnPeer(func(r int, up bool) {
		select {
		case s.peerEvents <- peerEvent{rank: r, up: up}:
		default:
		}
	})
	if err := mux.Start(); err != nil {
		ctl.Close()
		return nil, err
	}
	go func() {
		s.runErr = s.ctl.Run(s.controlBody)
		close(s.done)
	}()
	return s, nil
}

// Wait blocks until the control world exits (drain completed or the
// controller died) and returns its error.
func (s *Service) Wait() error {
	<-s.done
	return s.runErr
}

// Drain stops admission and asks the controller to cancel running jobs,
// broadcast shutdown, and exit.  Meaningful on rank 0; a worker daemon
// drains when the controller tells it to.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Submit admits a job (controller rank only): validation errors and typed
// *OverloadedError come back synchronously; an admitted job is queued and
// its id returned.
func (s *Service) Submit(spec JobSpec) (uint64, error) {
	if s.cfg.Rank != 0 {
		return 0, fmt.Errorf("service: submit on non-controller rank %d", s.cfg.Rank)
	}
	spec = spec.withDefaults(s.mux.Size())
	if err := spec.validate(s.mux.Size()); err != nil {
		return 0, err
	}
	if err := s.admit(spec); err != nil {
		return 0, err
	}
	s.mu.Lock()
	id := s.nextExt
	s.nextExt++
	s.jobs[id] = &job{id: id, spec: spec, state: stateQueued}
	s.queue = append(s.queue, id)
	s.mu.Unlock()
	s.event(fmt.Sprintf("JOB %d queued extent=%d ranks=%d", id, spec.Extent, spec.Ranks))
	return id, nil
}

// Status returns a job's current API view.
func (s *Service) Status(id uint64) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, false
	}
	return j.status(), true
}

// List returns every job's status, id-ascending.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// RequestCancel marks a job for cancellation; the controller propagates
// it on its next tick.
func (s *Service) RequestCancel(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("service: no job %d", id)
	}
	j.cancelReq = true
	return nil
}

func (j *job) status() JobStatus {
	return JobStatus{
		ID:           j.id,
		State:        j.state,
		Spec:         j.spec,
		Ranks:        append([]int(nil), j.ranks...),
		Attempts:     j.attempts,
		Cycles:       j.cycles,
		RelRes:       j.relres,
		Seconds:      j.seconds,
		History:      append([]float64(nil), j.history...),
		Error:        j.errText,
		RestoredFrom: j.restoredFrom,
	}
}

func (s *Service) event(line string) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(line)
	}
}

// controlBody is the rank body of the control world: the controller loop
// on mesh rank 0, the worker loop elsewhere.
func (s *Service) controlBody(c *mpi.Comm) error {
	if c.Rank() == 0 {
		return s.controller(c)
	}
	return s.worker(c)
}

// sendCtl delivers a control message to mesh rank r — locally when r is
// this rank, over the control world otherwise.  Send failures (the peer
// is down) are swallowed: peer death is handled by the failure path, not
// the messaging path.
func (s *Service) sendCtl(c *mpi.Comm, r int, m ctlMsg) {
	if r == s.cfg.Rank {
		s.applyCtl(m)
		return
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return
	}
	_ = mpi.Guard(func() error {
		c.Send(r, ctlTag, payload)
		return nil
	})
}

// applyCtl executes a control message on this rank.
func (s *Service) applyCtl(m ctlMsg) {
	switch m.Type {
	case "start":
		s.localWG.Add(1)
		go s.runJob(m)
	case "cancel":
		s.localMu.Lock()
		w := s.local[m.Int]
		s.localMu.Unlock()
		if w != nil {
			w.Cancel()
		}
		s.sch.Kick()
	}
}

// worker is the control loop of every non-controller rank: receive
// control messages from rank 0, apply them, and relay local job reports
// back.  Exits on the drain message, after local jobs finish.
func (s *Service) worker(c *mpi.Comm) error {
	for {
		s.flushReports(c)
		buf, _, err := c.RecvDeadline(0, ctlTag, 0.05)
		if err != nil {
			// Timeout is the idle tick; a failed rank 0 is fatal for the
			// fleet, but local jobs may still be draining — keep ticking
			// so their reports (and Readmit bookkeeping) stay live.
			s.ctl.Readmit()
			continue
		}
		var m ctlMsg
		if json.Unmarshal(buf, &m) != nil {
			continue
		}
		if m.Type == "drain" {
			break
		}
		s.applyCtl(m)
	}
	s.localWG.Wait()
	s.flushReports(c)
	return nil
}

// flushReports forwards locally generated job reports to the controller.
// On rank 0 the controller consumes the channel directly, so this is a
// worker-only path.
func (s *Service) flushReports(c *mpi.Comm) {
	for {
		select {
		case m := <-s.reports:
			payload, err := json.Marshal(m)
			if err != nil {
				continue
			}
			_ = mpi.Guard(func() error {
				c.Send(0, ctlTag, payload)
				return nil
			})
		default:
			return
		}
	}
}
