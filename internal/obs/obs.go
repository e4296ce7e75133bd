// Package obs is the unified observability layer: structured spans, a
// metrics registry, and Chrome-trace export, shared by every layer of the
// stack — both transports (inproc virtual-time and TCP wall-clock), the
// collectives, the datatype engine, the reliability protocol, and the
// multigrid/KSP solver stack.
//
// The design constraint that shapes everything here is that instrumentation
// stays wired into production hot paths permanently: a *disabled* tracer
// must cost one atomic load per site (see Enabled and the overhead guard in
// obs_test.go), and an *enabled* tracer must stay safe under heavy traffic,
// which the per-lane bounded ring buffers guarantee — memory is fixed at
// Enable time and the oldest spans are dropped, never the writer blocked.
//
// Spans carry their clock domain explicitly: the in-process transport and
// everything above it timestamps in virtual seconds (deterministic,
// cross-rank coupled), while the TCP transport timestamps in wall seconds
// since the tracer's epoch (real, per-process).  The Chrome exporter keeps
// the domains on separate lanes; a multi-process run lines up its ranks'
// wall epochs before rendering (DESIGN.md §11).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock identifies a span's time domain.
type Clock uint8

const (
	// ClockVirtual timestamps are deterministic virtual seconds from the
	// simnet cluster model (the inproc transport and the mpi layer above
	// any transport).
	ClockVirtual Clock = iota
	// ClockWall timestamps are real seconds since the tracer's epoch (the
	// TCP and shared-memory transports, the recovery protocol).
	ClockWall
)

// Attr is one key/value annotation on a span.  Values are strings so spans
// stay allocation-predictable; format numbers with strconv.
type Attr struct {
	Key string
	Val string
}

// Span is one traced operation.  End == Start marks an instant event (a
// retransmission, a CRC reject); End > Start a duration.
type Span struct {
	Rank  int
	Kind  string // operation class: "send", "smooth", "retransmit", ...
	Peer  int    // peer rank for point-to-point traffic, -1 otherwise
	Tag   int
	Bytes int64
	Start float64 // seconds in the span's clock domain
	End   float64
	Clock Clock
	// Job labels the tenant world the span belongs to when the process
	// hosts several (the multi-job service); zero for standalone runs.
	// Stamped automatically by a tracer with SetJob.
	Job   uint64
	Attrs []Attr
}

// Instant reports whether the span is an instant event.
func (s *Span) Instant() bool { return s.End <= s.Start }

// DefaultLaneCapacity bounds each lane's ring buffer.  At ~100 bytes per
// span this caps a 4-rank trace around 25 MB — generous for a solve, firmly
// bounded under adversarial traffic.
const DefaultLaneCapacity = 1 << 16

// ring is one lane's bounded span buffer.  Writers overwrite the oldest
// span when full; the drop is accounted on the tracer.
type ring struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

func (r *ring) push(s Span) (dropped bool) {
	r.mu.Lock()
	if r.next == len(r.buf) && !r.full && r.next < cap(r.buf) {
		// Grow-on-demand up to capacity keeps an idle lane cheap.
		r.buf = append(r.buf, s)
		r.next++
		r.mu.Unlock()
		return false
	}
	if r.next == cap(r.buf) {
		r.next = 0
		r.full = true
	}
	dropped = r.full
	if r.next < len(r.buf) {
		r.buf[r.next] = s
	} else {
		r.buf = append(r.buf, s)
	}
	r.next++
	r.mu.Unlock()
	return dropped
}

// snapshot returns the lane's spans oldest-first.
func (r *ring) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

func (r *ring) clear() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.full = false
	r.mu.Unlock()
}

// Tracer records spans into per-lane bounded rings.  All methods are safe
// for concurrent use; Emit is safe to call from transport reader goroutines
// while Spans or Clear runs — the contract World.Trace relies on.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	laneCap int
	job     atomic.Uint64 // tenant label stamped onto every emitted span

	mu      sync.Mutex
	lanes   map[int]*ring
	dropped atomic.Int64
}

// NewTracer returns a disabled tracer whose lanes hold at most laneCap
// spans each (0 = DefaultLaneCapacity).
func NewTracer(laneCap int) *Tracer {
	if laneCap <= 0 {
		laneCap = DefaultLaneCapacity
	}
	return &Tracer{epoch: time.Now(), laneCap: laneCap, lanes: make(map[int]*ring)}
}

// Enable starts recording.  Idempotent.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops recording; existing spans are kept.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer records.  This is the one-atomic-load
// fast path every instrumentation site checks first.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Now returns wall seconds since the tracer's epoch — the timestamp source
// for ClockWall spans.
func (t *Tracer) Now() float64 { return time.Since(t.epoch).Seconds() }

// SetJob labels every span this tracer emits from now on with the given
// tenant job id (zero clears).  A per-world tracer inside a multi-job
// service gets its job stamped once at world construction, so the
// instrumentation sites stay unchanged.
func (t *Tracer) SetJob(job uint64) { t.job.Store(job) }

// Emit records one span if the tracer is enabled.
func (t *Tracer) Emit(s Span) {
	if !t.enabled.Load() {
		return
	}
	if j := t.job.Load(); j != 0 && s.Job == 0 {
		s.Job = j
	}
	t.mu.Lock()
	r := t.lanes[s.Rank]
	if r == nil {
		r = &ring{buf: make([]Span, 0, t.laneCap)}
		t.lanes[s.Rank] = r
	}
	t.mu.Unlock()
	if r.push(s) {
		t.dropped.Add(1)
	}
}

// Dropped returns how many spans the bounded rings discarded.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Spans returns every recorded span: lanes in rank order, each lane
// oldest-first.  Safe while emission continues (each lane is snapshotted
// under its own lock).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	ranks := make([]int, 0, len(t.lanes))
	rings := make([]*ring, 0, len(t.lanes))
	for rank := range t.lanes {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		rings = append(rings, t.lanes[rank])
	}
	t.mu.Unlock()
	var out []Span
	for _, r := range rings {
		out = append(out, r.snapshot()...)
	}
	return out
}

// Clear drops every recorded span and resets the drop counter.  Safe while
// emission continues.
func (t *Tracer) Clear() {
	t.mu.Lock()
	rings := make([]*ring, 0, len(t.lanes))
	for _, r := range t.lanes {
		rings = append(rings, r)
	}
	t.mu.Unlock()
	for _, r := range rings {
		r.clear()
	}
	t.dropped.Store(0)
}
