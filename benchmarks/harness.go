package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// sizes fixes every shape a workload uses.  The seed never changes them,
// so counts stay exact from run to run.
type sizes struct {
	mgExtent, mgLevels   int // multigrid grid and depth (mg96_*)
	scatterN             int // doubles per rank in the Fig. 16 scatter
	svcExtent, svcLevels int // service job grid and depth
}

var fullSizes = sizes{mgExtent: 96, mgLevels: 4, scatterN: 1 << 16, svcExtent: 32, svcLevels: 3}

// mark is a phase boundary inside an op: the multigrid OnCycle hook.  The
// hook runs from at to resume, and what it runs is the reference sweep, so
// resume - at is one reading of the host's speed next to the phases on
// either side.
type mark struct {
	at, resume time.Time
}

// opTiming is what rank 0 (or the client) measured around one op.  An op
// without marks is a single phase.  refQuiet, when set, says the op took
// reference sweeps: one before start (refPre), one inside every mark and
// one after end (refPost), each of which takes refQuiet on a quiet host.
type opTiming struct {
	start, end      time.Time
	marks           []mark
	refPre, refPost time.Duration
	refQuiet        time.Duration
}

func ms(d time.Duration) float64   { return d.Seconds() * 1e3 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// samples are the timing samples of one arm, in ms.  Where the op took
// reference sweeps, init and step are corrected for the host's speed: a
// phase's time is divided by how much slower than refQuiet the sweeps on
// either side of it ran (README, "The reference sweep").  total is the
// wall clock less the time inside the marks.
type samples struct {
	init, step, total []float64
	slow              []float64 // per corrected phase, how many times refQuiet its sweeps took
}

func (s *samples) add(t opTiming) {
	total := t.end.Sub(t.start)
	for _, m := range t.marks {
		total -= m.resume.Sub(m.at)
	}
	s.total = append(s.total, ms(total))
	if len(t.marks) == 0 {
		s.step = append(s.step, ms(total))
		return
	}
	from, ref := t.start, t.refPre
	phase := func(to time.Time, refAfter time.Duration) float64 {
		d := ms(to.Sub(from))
		if t.refQuiet > 0 {
			slow := float64(ref+refAfter) / (2 * float64(t.refQuiet))
			s.slow = append(s.slow, slow)
			d /= slow
		}
		return d
	}
	for i, m := range t.marks {
		d := phase(m.at, m.resume.Sub(m.at))
		if i == 0 {
			s.init = append(s.init, d)
		} else {
			s.step = append(s.step, d)
		}
		from, ref = m.resume, m.resume.Sub(m.at)
	}
	s.step = append(s.step, phase(t.end, t.refPost))
}

// errRefused marks an op the program declined to run (service admission).
var errRefused = errors.New("refused")

// instance is one workload with both arms built and parked.
type instance interface {
	// prepare does the one-off work set-up sampling must not repeat, such
	// as reference solves.
	prepare() error
	// run executes the arm's next ops back to back (one, or a short burst
	// where a single op is too brief to hand to the ranks one at a time)
	// and returns their timings.  An error is a broken harness or mesh,
	// not a failed op.
	run(arm int) ([]opTiming, error)
	// verify reports what was wrong with the outputs of op i of the burst
	// last run on the arm.
	verify(arm, i int) error
	// corruptNext damages the outputs of the arm's next op before they are
	// verified; only the tests call it, to show that verify notices.
	corruptNext(arm int)
	// record adds the harness spans of op i of the burst last run.
	record(tr *tracer, arm, op, i int, t opTiming)
	// steps is the number of step phases in one op, and cycles the number
	// of V-cycles it runs.
	steps() int
	cycles() int
	// wire snapshots the datatype arm's fused sends and transport counters.
	wire() (fused int64, tcp transport.TCPStats, sh shm.Stats)
	// selfBytesShare is the datatype arm's communication-matrix diagonal
	// over its total.
	selfBytesShare() float64
	close()
}

// counters is a snapshot of every count the traced run reports per op.
type counters struct {
	msgs, bytes, fused, planMisses, poolGets int64
	tcp                                      transport.TCPStats
	shm                                      shm.Stats
}

var (
	msgBytesHist = obs.Metrics.Histogram("mpi.msg_bytes")
	poolGetsCtr  = obs.Metrics.Counter("datatype.pool_gets")
)

func snapshot(inst instance) counters {
	var c counters
	h := msgBytesHist.Snapshot()
	c.msgs, c.bytes = h.Count, h.Sum
	c.planMisses = datatype.PlanCacheStats().Misses
	c.poolGets = poolGetsCtr.Load()
	c.fused, c.tcp, c.shm = inst.wire()
	return c
}

// loopOut is everything the timed section produced.
type loopOut struct {
	plain, traced              [2]samples // per arm; traced only in a traced run
	attempted, failed, refused int
	allocs                     []float64  // process-wide mallocs per op, one value per datatype-arm burst
	setup                      []float64  // seconds per fresh build made between blocks
	deltas                     []counters // per datatype-arm burst, traced run only
	deltaOps                   []float64  // ops in each of those bursts
	firstOpMs                  float64    // the datatype arm's warm-up op
	timedSec                   float64
	heapMB                     float64
}

// runLoop warms each arm with one untimed op and then runs whole blocks of
// one op per arm, alternating arms so both see the same machine, until dur
// has passed.  Between blocks it builds the workload afresh, times that and
// throws the build away, `builds` times in all and at an even pace, so that
// set-up is sampled across the same stretch of the host's moods as the ops
// are.  In a traced run every second block records harness spans.  tamper,
// when non-nil, names the ops whose outputs are corrupted before
// verification.
func runLoop(inst instance, dur time.Duration, gcEvery int, build func() (instance, error), builds int, tr *tracer, tamper func(op int) bool) (loopOut, error) {
	var out loopOut
	op := 0
	sinceGC := gcEvery
	var before, after runtime.MemStats
	one := func(arm int, into *samples, traced bool) error {
		if sinceGC >= gcEvery {
			runtime.GC()
			sinceGC = 0
		}
		if tamper != nil && tamper(op+1) {
			inst.corruptNext(arm)
		}
		var c0 counters
		if arm == armDT {
			if tr != nil {
				c0 = snapshot(inst)
			}
			runtime.ReadMemStats(&before)
		}
		burst, err := inst.run(arm)
		if err != nil {
			return err
		}
		if arm == armDT {
			runtime.ReadMemStats(&after)
		}
		sinceGC += len(burst)
		good := 0
		for i, t := range burst {
			op++
			out.attempted++
			if err := inst.verify(arm, i); err != nil {
				out.failed++
				if errors.Is(err, errRefused) {
					out.refused++
				}
				if out.failed <= 3 {
					fmt.Fprintf(os.Stderr, "op %d (%s arm) failed verification: %v\n", op, arms[arm].name, err)
				}
				continue // the op's time is discarded
			}
			good++
			if into == nil {
				if arm == armDT && i == 0 {
					out.firstOpMs = ms(t.end.Sub(t.start))
				}
				continue
			}
			into.add(t)
			if traced {
				inst.record(tr, arm, op, i, t)
			}
		}
		if arm == armDT && into != nil && good == len(burst) {
			n := float64(len(burst))
			out.allocs = append(out.allocs, float64(after.Mallocs-before.Mallocs)/n)
			if tr != nil {
				out.deltas = append(out.deltas, snapshot(inst).sub(c0))
				out.deltaOps = append(out.deltaOps, n)
			}
		}
		return nil
	}
	for arm := range arms {
		if err := one(arm, nil, false); err != nil {
			return out, err
		}
	}
	start := time.Now()
	for block := 0; time.Since(start) < dur || (tr != nil && block < 2); block++ {
		traced := tr != nil && block%2 == 1
		for arm := range arms {
			into := &out.plain[arm]
			if traced {
				into = &out.traced[arm]
			}
			if err := one(arm, into, traced); err != nil {
				return out, err
			}
		}
		due := float64(builds) * float64(time.Since(start)) / float64(dur)
		for build != nil && len(out.setup) < builds && float64(len(out.setup)) < due {
			sec, fresh, err := timedBuild(build)
			if err != nil {
				return out, fmt.Errorf("set-up: %w", err)
			}
			fresh.close()
			out.setup = append(out.setup, sec)
		}
	}
	out.timedSec = time.Since(start).Seconds()
	// Two collections: the first only moves pooled buffers to the pools'
	// victim caches, the second frees them, so what is left is live state.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	out.heapMB = float64(after.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(inst)
	return out, nil
}

func (a counters) sub(b counters) counters {
	a.msgs -= b.msgs
	a.bytes -= b.bytes
	a.fused -= b.fused
	a.planMisses -= b.planMisses
	a.poolGets -= b.poolGets
	a.tcp.FramesSent -= b.tcp.FramesSent
	a.tcp.BytesSent -= b.tcp.BytesSent
	a.tcp.VectoredSends -= b.tcp.VectoredSends
	a.shm.FramesSent -= b.shm.FramesSent
	a.shm.RingFullStalls -= b.shm.RingFullStalls
	a.shm.StallNanos -= b.shm.StallNanos
	return a
}

// sumTCP adds the counters of the endpoints this harness reports.
func sumTCP(eps []*transport.TCP) transport.TCPStats {
	var s transport.TCPStats
	for _, ep := range eps {
		e := ep.Stats()
		s.FramesSent += e.FramesSent
		s.BytesSent += e.BytesSent
		s.VectoredSends += e.VectoredSends
	}
	return s
}

func sumShm(eps []*shm.Transport) shm.Stats {
	var s shm.Stats
	for _, ep := range eps {
		e := ep.Stats()
		s.FramesSent += e.FramesSent
		s.RingFullStalls += e.RingFullStalls
		s.StallNanos += e.StallNanos
	}
	return s
}

// timedBuild builds the workload from nothing and times it, in seconds.  A
// build is everything an op needs: meshes (listeners, dial, handshake or
// segment), worlds, solver hierarchies or scatters or service fleets, and
// vectors, for both arms.  The heap's free pages go back to the operating
// system first, as in a young process: otherwise a build is quick or slow
// by how much of the last one's memory the runtime happens to hold yet.
func timedBuild(build func() (instance, error)) (float64, instance, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := build()
	return time.Since(t0).Seconds(), inst, err
}
