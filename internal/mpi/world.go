package mpi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// Process-global reliability and traffic metrics, summed over every world
// in the process.  Counters are single atomic adds, cheap enough to stay
// always-on; per-world breakdowns come from World.Stats and the tracer.
var (
	mMsgBytes    = obs.Metrics.Histogram("mpi.msg_bytes")
	mCrcRejects  = obs.Metrics.Counter("mpi.crc_rejects")
	mDupRejects  = obs.Metrics.Counter("mpi.dup_rejects")
	mRetransmits = obs.Metrics.Counter("mpi.retransmits")
)

// World hosts a fixed set of ranks on a simulated cluster.  Create one with
// NewWorld, then call Run one or more times; clocks and statistics persist
// across Run calls until ResetClocks.
type World struct {
	cluster *simnet.Cluster
	cfg     Config
	procs   []*proc

	// tr carries every message between ranks; wall caches tr.Wallclock().
	// The in-process transport hosts all ranks and preserves virtual-time
	// semantics exactly; wall-clock transports host a subset of the ranks
	// in this process (see wall.go) and support a single Run.
	tr   transport.Transport
	wall bool

	// states holds each rank's lifecycle (running/exited/dead) during a
	// Run; anyDown short-circuits liveness checks on the happy path.
	states  []atomic.Int32
	anyDown atomic.Bool
	// Self-healing state (see restore.go).  rejoinReady marks a failed rank
	// whose replacement is connected and waiting to be re-admitted by
	// Comm.Restore; epoch is the committed membership epoch.
	rejoinReady []atomic.Bool
	epoch       atomic.Uint64

	// runMu guards the in-flight Run's bookkeeping so Respawn can attach a
	// replacement goroutine to it (see restore.go).
	runMu   sync.Mutex
	runWG   *sync.WaitGroup
	runErrs []error
	runFn   func(c *Comm) error
	// progress counts deliveries, successful matches and state changes.
	// The watchdog declares a deadlock only after it stays frozen.
	progress atomic.Uint64

	// Receiver-side reliability counters (incremented on the sender's
	// goroutine during delivery, hence atomic rather than per-rank stats).
	checksumRejects  atomic.Int64
	duplicateRejects atomic.Int64

	mu      sync.Mutex
	crashed []int // ranks whose scheduled FaultPlan crash fired, death order

	// Restore's commit barriers, keyed by context (see Comm.agree).
	// agreeCond is broadcast on every event that can seal a slot: a join, a
	// rank death, a watchdog abort.
	agreeMu    sync.Mutex
	agreeCond  *sync.Cond
	agreeSlots map[uint64]*agreeSlot

	// revoked holds context ids killed by Comm.Revoke (ctx → struct{}).
	// A sync.Map so matchE can check it while holding a proc mutex.
	revoked    sync.Map
	anyRevoked atomic.Bool

	// canceledAll is the whole-world analogue of a revocation: every
	// blocking operation on every context of this world aborts with
	// ErrRevoked.  Set by World.Cancel, the teardown primitive a job host
	// uses to stop a tenant world without enumerating its derived
	// contexts.  Never cleared — a canceled world is done.
	canceledAll atomic.Bool

	// tracer records structured spans for every rank this world hosts.
	// Per-world (not process-global) because tests run several worlds in
	// one process; see internal/obs.
	tracer *obs.Tracer

	// matrix is the always-on per-peer traffic accounting (bytes, messages,
	// retransmissions, receive-wait time) behind World.CommMatrix and the
	// live dashboard.  Cells are atomics; rows for ranks hosted elsewhere
	// stay zero on wall-clock worlds.
	matrix *commMatrix

	wd *watchdog // live while a Run is in flight
}

// Rank lifecycle states.
const (
	stateRunning int32 = iota
	stateExited        // f returned nil; the rank is gone but not failed
	stateDead          // crashed, panicked or returned an error
)

// proc is the per-rank state: virtual clock, mailbox and statistics.
type proc struct {
	rank  int
	speed float64

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*envelope
	// wait describes the in-progress blocking receive (valid under mu
	// while blocked); the watchdog reads it to build deadlock reports.
	wait blockedWait
	// recvSeq[src] is the next reliable sequence number expected from world
	// rank src; anything below it is a duplicate.  A watermark suffices
	// because the sender decides every attempt before sending the next
	// message and the transports keep one sender's messages in order: every
	// copy of sequence s arrives before any copy of s+1.  A replacement of
	// src starts its sequences at zero again, so the watermark restarts with
	// it (onPeerUp).  Guarded by mu; written on the delivering goroutine.
	recvSeq []uint64

	// call names the blocking operation in progress, for diagnostics.
	// Written only by the owning goroutine; cross-goroutine readers see it
	// through the wait snapshot taken under mu.
	call string

	clock   float64
	stats   Stats
	skewSeq uint64
	commGen uint64 // monotone communicator-creation generation (see Split)
	// sendSeq numbers reliable messages per destination world rank.
	sendSeq []uint64
	// msgSeq numbers every outgoing message per destination world rank for
	// the observability layer's send↔recv span matching.  Starts at 1 so 0
	// always reads "no identity".  Unconditional (traced or not) so a run's
	// sequence numbers never depend on when tracing was switched on.
	msgSeq []uint64
	// lastWaitSec is the wall-clock seconds the rank's most recent matchE
	// blocked, measured only on wall-clock worlds with tracing enabled;
	// completeRecv consumes it for the recv span's wait attribute.
	lastWaitSec float64
	// crashAt is the scheduled FaultPlan crash time (+Inf = never).
	crashAt float64

	scratch  []byte    // pipeline buffer reused across SendType calls
	granules []granule // send cost steps, reused across sends (see Comm.resolve)

	// tracer is the world's span recorder (never nil).  Emission is safe
	// from any goroutine, which is what lets delivery-side events trace.
	tracer *obs.Tracer
}

// blockedWait records what a blocked rank is waiting for.
type blockedWait struct {
	active   bool
	deadline bool   // a RecvDeadline wait; self-recovering, never a deadlock
	call     string // blocking operation name
	ctx      uint64
	src      int // comm rank awaited (AnySource for wildcard)
	srcWorld int // world rank awaited, -1 for wildcard
	tag      int
	err      error // set by the watchdog to abort the wait
}

// envelope is one in-flight message.
type envelope struct {
	ctx      uint64 // communicator context id
	src, tag int    // src is the sender's rank within the communicator
	data     []byte
	arrival  float64 // virtual time at which the payload is fully available

	// Reliability metadata, set when fault injection is active on the link.
	// The sequence space is per (sender world rank, receiver), so the
	// comm-rank src alone would collide across communicators; reliable
	// envelopes therefore carry the sender's world rank explicitly.
	reliable bool
	wsrc     int    // sender world rank
	seq      uint64 // per (sender, receiver) sequence number
	sum      uint32 // CRC-32 of data; mismatches are dropped at delivery

	// mseq is the observability matching sequence (see proc.msgSeq).
	// Retransmitted copies of one logical message share one mseq.
	mseq uint64
}

// Tag wildcard values for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// internal tag space for collectives; user tags must stay below this.
const tagCollBase = 1 << 20

// NewWorld creates a world with one rank per cluster slot, on the
// in-process transport.
func NewWorld(cluster *simnet.Cluster, cfg Config) *World {
	w, err := NewWorldTransport(transport.NewInproc(cluster.Size()), cluster, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// NewWorldTransport creates a world whose messages travel over tr, which
// must span the same ranks as the cluster.  The transport is started here:
// its delivery handler feeds the rank mailboxes, its liveness callback the
// rank lifecycle (a death fails waits over, a rejoin arms Restore).  On a
// wall-clock transport the world hosts only the local ranks, runs no
// watchdog (there is no global quiescence to observe across processes), and
// supports only a single Run; see wall.go.
func NewWorldTransport(tr transport.Transport, cluster *simnet.Cluster, cfg Config) (*World, error) {
	n := cluster.Size()
	if n < 1 {
		return nil, errors.New("mpi: cluster must have at least one rank")
	}
	if tr.Size() != n {
		return nil, fmt.Errorf("mpi: transport spans %d ranks but cluster has %d", tr.Size(), n)
	}
	cfg = cfg.withDefaults()
	w := &World{cluster: cluster, cfg: cfg, tr: tr, wall: tr.Wallclock(), tracer: obs.NewTracer(0)}
	w.tracer.SetJob(cfg.Job)
	w.agreeCond = sync.NewCond(&w.agreeMu)
	w.agreeSlots = make(map[uint64]*agreeSlot)
	w.procs = make([]*proc, n)
	w.states = make([]atomic.Int32, n)
	w.rejoinReady = make([]atomic.Bool, n)
	for i := range w.procs {
		p := &proc{rank: i, speed: cluster.SpeedOf(i), crashAt: math.Inf(1), tracer: w.tracer}
		p.cond = sync.NewCond(&p.mu)
		p.sendSeq = make([]uint64, n)
		p.recvSeq = make([]uint64, n)
		p.msgSeq = make([]uint64, n)
		w.procs[i] = p
	}
	w.matrix = newCommMatrix(n)
	// A transport that can trace (the TCP endpoint) shares the world's
	// tracer, wired before Start so reader goroutines never see it change.
	if tt, ok := tr.(interface{ SetTracer(*obs.Tracer) }); ok {
		tt.SetTracer(w.tracer)
	}
	if err := tr.Start(w.onFrame, w.onPeer); err != nil {
		return nil, err
	}
	return w, nil
}

// Tracer returns the world's span recorder.  Enable it (or EnableTrace) to
// start recording; export with obs.WriteChromeTraceFile.
func (w *World) Tracer() *obs.Tracer { return w.tracer }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Config returns the configuration the world runs with.
func (w *World) Config() Config { return w.cfg }

// Cluster returns the cluster model the world runs on.
func (w *World) Cluster() *simnet.Cluster { return w.cluster }

// Run starts one goroutine per rank executing f and waits for all of them.
// Errors returned by f are joined and returned, each wrapped with its rank.
// A rank that panics — or that aborts on an uncaught typed communication
// error (ErrRankFailed, ErrTimeout, ErrDeadlock) — is marked dead, which
// unblocks every peer waiting on it with ErrRankFailed instead of hanging
// the world.  A crash scheduled by the cluster's FaultPlan terminates its
// rank the same way but is reported through CrashedRanks, not as an error:
// the injected fault is part of the experiment, and whether the surviving
// ranks cope with it is what the return value measures.
func (w *World) Run(f func(c *Comm) error) error {
	n := len(w.procs)
	w.startRun()
	errs := make([]error, n)
	var wg sync.WaitGroup
	// Publish the run's bookkeeping so Respawn (restore.go) can attach a
	// replacement rank goroutine to this Run while it is in flight.
	w.runMu.Lock()
	w.runWG, w.runErrs, w.runFn = &wg, errs, f
	w.runMu.Unlock()
	for r := 0; r < n; r++ {
		if !w.tr.Local(r) {
			continue
		}
		w.spawnRank(r, f, &wg, errs)
	}
	wg.Wait()
	w.runMu.Lock()
	w.runWG, w.runErrs, w.runFn = nil, nil, nil
	w.runMu.Unlock()
	w.stopRun()
	if w.wall {
		w.sayGoodbye()
	}
	var joined []error
	for r, e := range errs {
		if e != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", r, e))
		}
	}
	return errors.Join(joined...)
}

// spawnRank starts rank's goroutine for the current Run.  Both the initial
// launch and a Respawn go through here, so the lifecycle accounting — error
// capture, crash recording, final state transition — is identical for an
// original rank and its replacement.
func (w *World) spawnRank(rank int, f func(c *Comm) error, wg *sync.WaitGroup, errs []error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			state := stateExited
			if p := recover(); p != nil {
				state = stateDead
				switch v := p.(type) {
				case crashPanic:
					// maybeCrash marked the rank dead before it raised, and a
					// replacement may have been respawned and readmitted since:
					// the state is no longer this incarnation's to set.
					w.recordCrash(rank)
					return
				case commPanic:
					errs[rank] = v.err
				default:
					errs[rank] = fmt.Errorf("panicked: %v", p)
				}
			} else if errs[rank] != nil {
				state = stateDead
			}
			w.setState(rank, state)
		}()
		errs[rank] = f(&Comm{w: w, me: w.procs[rank], rank: rank})
	}()
}

// startRun resets per-run failure state and starts the watchdog.  On a
// wall-clock transport the state of a remote rank is whatever its goodbye
// frames and connection events last reported — a peer that already failed
// stays failed.
func (w *World) startRun() {
	fp := w.cluster.Faults
	anyDown := false
	for r := range w.states {
		if w.tr.Local(r) {
			w.states[r].Store(stateRunning)
			w.procs[r].crashAt = fp.CrashTime(r)
		} else if w.states[r].Load() != stateRunning {
			anyDown = true
		}
	}
	w.anyDown.Store(anyDown)
	for r := range w.rejoinReady {
		w.rejoinReady[r].Store(false)
	}
	// Revocations and agreement slots describe failures of one Run; a new
	// Run starts from a clean failure state, like the rank states above.
	w.revoked.Range(func(k, _ any) bool { w.revoked.Delete(k); return true })
	w.anyRevoked.Store(false)
	w.agreeMu.Lock()
	w.agreeSlots = make(map[uint64]*agreeSlot)
	w.agreeMu.Unlock()
	w.mu.Lock()
	w.crashed = nil
	w.mu.Unlock()
	w.progress.Add(1)
	if !w.wall {
		w.wd = newWatchdog(w)
	}
}

func (w *World) stopRun() {
	if w.wd != nil {
		w.wd.halt()
		w.wd = nil
	}
}

// setState transitions rank r and wakes every blocked rank so waits on r
// can fail over.
func (w *World) setState(r int, s int32) {
	w.states[r].Store(s)
	if s != stateRunning {
		w.anyDown.Store(true)
	}
	w.progress.Add(1)
	w.wakeAll()
}

// Cancel aborts every blocking operation on this world, now and in the
// future: sends and receives on any of its contexts raise ErrRevoked.  It
// is the teardown primitive for a world hosting one tenant of a multi-job
// service — a job cancel (or a drain) must unblock ranks parked inside
// collectives without knowing which derived contexts they are parked on.
// Idempotent, and never undone for the world's lifetime.
func (w *World) Cancel() {
	if w.canceledAll.Swap(true) {
		return
	}
	w.anyRevoked.Store(true) // make matchE re-check on its slow path
	w.progress.Add(1)
	w.wakeAll()
}

// Canceled reports whether Cancel was called.
func (w *World) Canceled() bool { return w.canceledAll.Load() }

// Readmit re-admits every failed rank whose replacement transport
// connection is already up (rejoin-ready), returning the ranks flipped
// back to running.  It is the standing-world counterpart of the readmission
// Comm.Restore performs during an epoch commit: a long-lived control world
// that rides through member deaths — reporting errors to a supervisor
// instead of aborting — calls Readmit once the supervisor has respawned
// the member, and resumes messaging it.
func (w *World) Readmit() []int {
	var back []int
	for r := range w.states {
		if w.states[r].Load() == stateRunning || !w.rejoinReady[r].Load() {
			continue
		}
		if w.tryReadmit(r) {
			back = append(back, r)
		}
	}
	if len(back) > 0 {
		w.recheckDown()
		w.wakeAll()
	}
	return back
}

// noteDown records that some rank went down (state already stored by the
// caller) and wakes every blocked rank.
func (w *World) noteDown() {
	w.anyDown.Store(true)
	w.progress.Add(1)
	w.wakeAll()
}

// wakeAll re-evaluates every blocked wait: a state change can fail a
// pending receive over, and a death can complete an in-flight agreement
// (the dead member no longer owes a contribution).
func (w *World) wakeAll() {
	for _, p := range w.procs {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	w.agreeMu.Lock()
	w.agreeCond.Broadcast()
	w.agreeMu.Unlock()
}

// down reports whether world rank r can no longer participate.  An exited
// rank is down — it will never send again — but because sends are
// synchronous deposits, everything it did send is already queued, so
// receivers check their queue before giving up on it.
func (w *World) down(r int) bool {
	return w.states[r].Load() != stateRunning
}

// deadRank reports whether world rank r failed (crashed, panicked or
// returned an error), as opposed to exiting cleanly.  Fail-fast paths key
// on this: a cleanly exited rank may simply have finished early, with its
// final messages still queued for slower peers.
func (w *World) deadRank(r int) bool {
	return w.states[r].Load() == stateDead
}

// Alive reports whether world rank r is still running (has neither
// finished, failed, nor crashed) in the current or most recent Run.
func (w *World) Alive(r int) bool { return !w.down(r) }

func (w *World) recordCrash(r int) {
	w.mu.Lock()
	w.crashed = append(w.crashed, r)
	w.mu.Unlock()
}

// CrashedRanks returns the ranks whose scheduled FaultPlan crash fired
// during the most recent Run, in death order.
func (w *World) CrashedRanks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.crashed...)
}

// ChecksumRejects returns how many delivered copies were discarded for
// failing checksum verification.
func (w *World) ChecksumRejects() int64 { return w.checksumRejects.Load() }

// DuplicateRejects returns how many delivered copies were discarded as
// duplicates of an already-accepted message.
func (w *World) DuplicateRejects() int64 { return w.duplicateRejects.Load() }

// Clock returns rank r's virtual clock in seconds.
func (w *World) Clock(r int) float64 { return w.procs[r].clock }

// MaxClock returns the largest virtual clock across ranks — the completion
// time of the last rank.
func (w *World) MaxClock() float64 {
	m := 0.0
	for _, p := range w.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// Stats returns a copy of rank r's statistics.
func (w *World) Stats(r int) Stats { return w.procs[r].stats }

// TotalStats returns statistics summed over all ranks.
func (w *World) TotalStats() Stats {
	var t Stats
	for _, p := range w.procs {
		t.Add(p.stats)
	}
	return t
}

// ResetClocks zeroes every rank's clock and statistics.  Call between
// measurement windows; it must not race with a Run in progress.
func (w *World) ResetClocks() {
	for _, p := range w.procs {
		p.clock = 0
		p.stats = Stats{}
	}
}

// deliver appends env to dst's mailbox, enforcing the reliability layer's
// receiver side: copies with checksum mismatches and duplicates of already
// accepted sequence numbers are discarded and their buffers recycled (the
// sender's modeled ack timeout covers retransmission).
func (w *World) deliver(dst int, env *envelope) {
	p := w.procs[dst]
	p.mu.Lock()
	if env.reliable {
		if crc32.ChecksumIEEE(env.data) != env.sum {
			p.mu.Unlock()
			w.checksumRejects.Add(1)
			mCrcRejects.Inc()
			w.rejectSpan(dst, env, "crc_reject")
			datatype.PutBuffer(env.data)
			return
		}
		if env.seq < p.recvSeq[env.wsrc] {
			p.mu.Unlock()
			w.duplicateRejects.Add(1)
			mDupRejects.Inc()
			w.rejectSpan(dst, env, "dup_reject")
			datatype.PutBuffer(env.data)
			return
		}
		p.recvSeq[env.wsrc] = env.seq + 1
	}
	p.queue = append(p.queue, env)
	p.cond.Broadcast()
	p.mu.Unlock()
	w.progress.Add(1)
}

// rejectSpan traces a receiver-side reliability rejection as an instant on
// the destination rank's lane.  Runs on the delivering goroutine — the
// tracer is safe for that.  In virtual mode the reject is stamped at the
// copy's arrival time; on a wall-clock transport the arrival stamp is a
// foreign virtual clock, so the local wall clock is used instead.
func (w *World) rejectSpan(dst int, env *envelope, kind string) {
	if !w.tracer.Enabled() {
		return
	}
	s := obs.Span{Rank: dst, Kind: kind, Peer: env.wsrc, Tag: env.tag,
		Bytes: int64(len(env.data)), Start: env.arrival, End: env.arrival}
	if w.wall {
		now := w.tracer.Now()
		s.Start, s.End, s.Clock = now, now, obs.ClockWall
	}
	w.tracer.Emit(s)
}

func (p *proc) scratchBuf(n int) []byte {
	if cap(p.scratch) < n {
		p.scratch = make([]byte, n)
	}
	return p.scratch[:n]
}

// Stats aggregates per-rank virtual-time and work accounting.  Times are in
// seconds of virtual time.
type Stats struct {
	PackSec    float64 // packing/unpacking data copies (incl. look-ahead scans)
	SearchSec  float64 // baseline re-search walks
	ComputeSec float64 // user Compute time
	SkewSec    float64 // injected jitter
	WaitSec    float64 // time blocked waiting for message arrival
	RetransSec float64 // ack timeouts spent before retransmissions

	MsgsSent  int64
	MsgsRecv  int64
	BytesSent int64
	BytesRecv int64

	Retransmits int64 // transmission attempts beyond the first
	DupsSent    int64 // duplicated deliveries injected by the fault plan
	CorruptSent int64 // corrupted deliveries injected by the fault plan

	// FusedSends is always zero: every message is packed into an owned
	// image.  The field stays declared only because the frozen benchmark
	// harness reads it; it goes with the harness's mpi.fused_sends_per_op.
	FusedSends int64

	Datatype datatype.Metrics
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PackSec += other.PackSec
	s.SearchSec += other.SearchSec
	s.ComputeSec += other.ComputeSec
	s.SkewSec += other.SkewSec
	s.WaitSec += other.WaitSec
	s.RetransSec += other.RetransSec
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.Retransmits += other.Retransmits
	s.DupsSent += other.DupsSent
	s.CorruptSent += other.CorruptSent
	s.Datatype.Add(other.Datatype)
}
