package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"nccd/internal/simnet"
)

// faultWorld builds an n-rank world whose cluster carries the fault plan.
func faultWorld(n int, cfg Config, fp *simnet.FaultPlan) *World {
	cl := simnet.Uniform(n, simnet.IBDDR())
	cl.Faults = fp
	return NewWorld(cl, cfg)
}

// lossyPlan is the standard property-test plan: a few percent of drop,
// duplication and corruption on every link.
func lossyPlan(seed uint64) *simnet.FaultPlan {
	return &simnet.FaultPlan{Seed: seed, Drop: 0.03, Duplicate: 0.02, Corrupt: 0.01}
}

// repeat runs a workload several times so even sparse fault rates hit it,
// returning the last iteration's output (every iteration must agree with
// the clean run anyway, since the comparison runs the same loop).
func repeat(f func(*Comm) []byte) func(*Comm) []byte {
	return func(c *Comm) []byte {
		var out []byte
		for i := 0; i < 10; i++ {
			out = f(c)
		}
		return out
	}
}

// gatherOutputs runs f on every rank and collects the per-rank results.
func gatherOutputs(t *testing.T, n int, cfg Config, fp *simnet.FaultPlan, f func(*Comm) []byte) ([][]byte, *World) {
	t.Helper()
	w := faultWorld(n, cfg, fp)
	outs := make([][]byte, n)
	if err := w.Run(func(c *Comm) error {
		outs[c.Rank()] = f(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return outs, w
}

// faultCases enumerates the collective workloads that must survive message
// loss, duplication and corruption bytewise-unchanged.  Each returns the
// rank's observable result.
func faultCases(n int) []struct {
	name string
	cfg  Config
	f    func(*Comm) []byte
} {
	// Nonuniform counts with one outlier, so AGAdaptive's detection and
	// the Alltoallw bins both engage.
	counts := make([]int, n)
	for r := range counts {
		counts[r] = 64 + 96*r
	}
	counts[n/2] = 64 * 64 // outlier

	rankData := func(c *Comm, size int) []byte {
		d := make([]byte, size)
		for i := range d {
			d[i] = byte(c.Rank()*31 + i)
		}
		return d
	}

	agv := func(cfg Config) func(*Comm) []byte {
		return func(c *Comm) []byte {
			_, total := prefix(nil, counts)
			recv := make([]byte, total)
			c.Allgatherv(rankData(c, counts[c.Rank()]), counts, recv)
			return recv
		}
	}
	a2a := func(cfg Config) func(*Comm) []byte {
		return func(c *Comm) []byte {
			// Rank i sends (i*7+j*3)%251 bytes to rank j; a few pairs are
			// zero so the binned zero-bin engages.
			sendCounts := make([]int, n)
			recvCounts := make([]int, n)
			for j := 0; j < n; j++ {
				sendCounts[j] = (c.Rank()*7 + j*3) % 251 * 8
				recvCounts[j] = (j*7 + c.Rank()*3) % 251 * 8
			}
			sendTotal := 0
			for _, v := range sendCounts {
				sendTotal += v
			}
			recvTotal := 0
			for _, v := range recvCounts {
				recvTotal += v
			}
			sendbuf := rankData(c, sendTotal)
			recvbuf := make([]byte, recvTotal)
			c.Alltoallv(sendbuf, sendCounts, recvbuf, recvCounts)
			return recvbuf
		}
	}
	f64bytes := func(v []float64) []byte {
		out := make([]byte, 0, 8*len(v))
		for _, x := range v {
			out = append(out, []byte(fmt.Sprintf("%.17g,", x))...)
		}
		return out
	}

	base := Baseline()
	opt := Optimized()
	withAGV := func(cfg Config, a AllgathervAlgo) Config { cfg.Allgatherv = a; return cfg }

	return []struct {
		name string
		cfg  Config
		f    func(*Comm) []byte
	}{
		{"allgatherv-auto", withAGV(base, AGAuto), agv(base)},
		{"allgatherv-adaptive", withAGV(opt, AGAdaptive), agv(opt)},
		{"allgatherv-ring", withAGV(base, AGRing), agv(base)},
		{"allgatherv-recdbl", withAGV(base, AGRecursiveDoubling), agv(base)},
		{"allgatherv-dissem", withAGV(base, AGDissemination), agv(base)},
		{"alltoallw-roundrobin", base, a2a(base)},
		{"alltoallw-binned", opt, a2a(opt)},
		{"bcast", base, func(c *Comm) []byte {
			payload := make([]byte, 4096)
			if c.Rank() == 2 {
				for i := range payload {
					payload[i] = byte(i * 7)
				}
			}
			return c.Bcast(2, payload)
		}},
		{"reduce-allreduce", base, func(c *Comm) []byte {
			v := []float64{float64(c.Rank() + 1), float64(c.Rank() * c.Rank()), 1}
			c.Allreduce(v, OpSum)
			u := []float64{float64(c.Rank())}
			c.Reduce(0, u, OpMax)
			if c.Rank() == 0 {
				v = append(v, u...)
			}
			return f64bytes(v)
		}},
		{"barrier-scan", base, func(c *Comm) []byte {
			for i := 0; i < 5; i++ {
				c.Barrier()
			}
			v := []float64{float64(c.Rank() + 1)}
			c.Scan(v, OpSum)
			return f64bytes(v)
		}},
		{"gatherv", base, func(c *Comm) []byte {
			return c.Gatherv(1, rankData(c, counts[c.Rank()]), counts)
		}},
	}
}

// TestCollectivesBytewiseIdenticalUnderFaults is the core reliability
// property: with retransmission, checksum rejection and dedup, every
// collective's result under 1% loss + duplication + corruption is
// bytewise identical to the clean run's.
func TestCollectivesBytewiseIdenticalUnderFaults(t *testing.T) {
	const n = 8
	for _, tc := range faultCases(n) {
		t.Run(tc.name, func(t *testing.T) {
			clean, _ := gatherOutputs(t, n, tc.cfg, nil, repeat(tc.f))
			faulty, w := gatherOutputs(t, n, tc.cfg, lossyPlan(1234), repeat(tc.f))
			for r := 0; r < n; r++ {
				if !bytes.Equal(clean[r], faulty[r]) {
					t.Fatalf("rank %d: faulty output differs from clean run", r)
				}
			}
			if w.TotalStats().Retransmits == 0 {
				t.Fatal("fault plan injected no retransmissions; property test vacuous")
			}
		})
	}
}

// TestFaultRunsDeterministic: same seed, same workload → identical virtual
// clocks and fault counters; the fault stream must not depend on goroutine
// scheduling.
func TestFaultRunsDeterministic(t *testing.T) {
	const n = 8
	tc := faultCases(n)[1] // adaptive allgatherv
	type snapshot struct {
		clock    float64
		retrans  int64
		cksum    int64
		dups     int64
		corrupts int64
	}
	shoot := func() snapshot {
		_, w := gatherOutputs(t, n, tc.cfg, lossyPlan(99), repeat(tc.f))
		st := w.TotalStats()
		return snapshot{w.MaxClock(), st.Retransmits, w.ChecksumRejects(), w.DuplicateRejects(), st.CorruptSent}
	}
	a, b := shoot(), shoot()
	if a != b {
		t.Fatalf("two runs with the same seed diverged: %+v vs %+v", a, b)
	}
	if a.retrans == 0 {
		t.Fatal("no retransmissions; determinism test vacuous")
	}
}

// TestChecksumAndDedupCounters exercises the receiver-side defenses
// directly: corrupted copies must be rejected by checksum, duplicated
// copies by sequence dedup, and payloads must still arrive intact.
func TestChecksumAndDedupCounters(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 5, Duplicate: 0.3, Corrupt: 0.3}
	w := faultWorld(2, Baseline(), fp)
	const msgs = 300
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 3, []byte{byte(i), byte(i >> 8), 0xAB})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			d, _ := c.Recv(0, 3)
			if len(d) != 3 || d[0] != byte(i) || d[1] != byte(i>>8) || d[2] != 0xAB {
				return fmt.Errorf("message %d corrupted or reordered: %v", i, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.ChecksumRejects() == 0 {
		t.Fatal("corruption plan produced no checksum rejects")
	}
	if w.DuplicateRejects() == 0 {
		t.Fatal("duplication plan produced no dedup rejects")
	}
	if w.TotalStats().RetransSec <= 0 {
		t.Fatal("corrupt deliveries charged no retransmission time")
	}
}

// TestDedupStateStaysBounded: duplicate suppression is a per-source
// watermark, so 10^5 reliable messages under 5% duplication leave the
// receiver holding one counter per rank — not one entry per message — and
// still reject exactly the copies the plan injected.
func TestDedupStateStaysBounded(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 11, Duplicate: 0.05}
	w := faultWorld(3, Baseline(), fp)
	const msgs, window = 50000, 500 // per sender; acked per window to keep the mailbox short
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 1 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 3, []byte{byte(i), byte(i >> 8)})
				if (i+1)%window == 0 {
					c.Recv(1, 4)
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			for _, src := range []int{0, 2} {
				if d, _ := c.Recv(src, 3); len(d) != 2 || d[0] != byte(i) || d[1] != byte(i>>8) {
					return fmt.Errorf("message %d from %d corrupted or reordered: %v", i, src, d)
				}
			}
			if (i+1)%window == 0 {
				c.Send(0, 4, nil)
				c.Send(2, 4, nil)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.TotalStats()
	if st.DupsSent == 0 || w.DuplicateRejects() != st.DupsSent {
		t.Fatalf("%d duplicates injected, %d rejected", st.DupsSent, w.DuplicateRejects())
	}
	got := w.procs[1].recvSeq
	if len(got) != w.Size() || got[0] != msgs || got[2] != msgs {
		t.Fatalf("receiver watermarks %v, want %d from ranks 0 and 2", got, msgs)
	}
}

// TestSendTimeoutExhaustsRetries: a fully dead link raises ErrTimeout at
// the sender after maxAttempts (16) transmissions.
func TestSendTimeoutExhaustsRetries(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 1, Drop: 1.0, Links: []simnet.Link{{Src: 0, Dst: 1}}}
	w := faultWorld(2, Baseline(), fp)
	err := w.Run(func(c *Comm) error {
		return Guard(func() error {
			if c.Rank() == 0 {
				c.Send(1, 0, []byte("into the void"))
				return errors.New("send on a dead link succeeded")
			}
			c.Recv(0, 0)
			return errors.New("recv on a dead link succeeded")
		})
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("sender did not time out: %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Attempts != 16 {
		t.Fatalf("timeout does not report 16 attempts: %v", err)
	}
	// The receiver observed the sender's failure rather than hanging.
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("receiver did not observe rank failure: %v", err)
	}
	if got := w.TotalStats().Retransmits; got != 15 {
		t.Fatalf("expected 15 retransmissions before giving up, got %d", got)
	}
	// Every retransmission waited out the backed-off ack timeout:
	// 50 µs × (2^15 − 1) of virtual time.
	if got, want := w.TotalStats().RetransSec, 50e-6*(1<<15-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("retransmission wait %v s, want %v s", got, want)
	}
}

// shortWatchdog sets the watchdog's period and patience for one test, so a
// deadlock is found in milliseconds.
func shortWatchdog(t *testing.T, interval time.Duration, patience int) {
	oldInterval, oldPatience := watchdogInterval, watchdogPatience
	watchdogInterval, watchdogPatience = interval, patience
	t.Cleanup(func() { watchdogInterval, watchdogPatience = oldInterval, oldPatience })
}

// TestWatchdogDetectsTagMismatchDeadlock: two ranks receive on mismatched
// tags; instead of hanging forever the watchdog names the blocked ranks
// and the wait-for cycle.
func TestWatchdogDetectsTagMismatchDeadlock(t *testing.T) {
	shortWatchdog(t, 5*time.Millisecond, 2)
	w := testWorld(2, Baseline())
	err := w.Run(func(c *Comm) error {
		// Rank 0 waits on tag 5, rank 1 on tag 6; nobody ever sends.
		c.Recv(1-c.Rank(), 5+c.Rank())
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("watchdog did not fire: %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("expected both ranks in the report: %+v", de)
	}
	for _, b := range de.Blocked {
		if b.Call != "Recv" {
			t.Fatalf("blocked call misreported: %+v", b)
		}
	}
	if len(de.Cycle) != 2 || de.Cycle[0] != 0 {
		t.Fatalf("wait-for cycle misreported: %+v", de.Cycle)
	}
}

// TestWatchdogSilentOnLiveRun: a run that keeps making progress (with
// deliberate slow wall-clock pauses) must never trip the detector.
func TestWatchdogSilentOnLiveRun(t *testing.T) {
	shortWatchdog(t, 2*time.Millisecond, 1)
	w := testWorld(4, Baseline())
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 8; i++ {
			if c.Rank() == 0 {
				time.Sleep(4 * time.Millisecond) // peers park in the barrier
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watchdog fired on a live run: %v", err)
	}
}

// TestRecvDeadline covers the three outcomes: success, timeout (virtual
// clock charged, wall clock bounded by the timeout itself), and peer
// failure.
func TestRecvDeadline(t *testing.T) {
	cfg := Baseline()
	t.Run("success", func(t *testing.T) {
		w := testWorld(2, cfg)
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 4, []byte("on time"))
				return nil
			}
			d, src, err := c.RecvDeadline(0, 4, 0.5)
			if err != nil || string(d) != "on time" || src != 0 {
				return fmt.Errorf("got %q/%d/%v", d, src, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		w := testWorld(2, cfg)
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				// Stay alive (so the peer times out rather than seeing a
				// failure), then absorb the peer's wrap-up message.
				c.Recv(1, 9)
				return nil
			}
			before := c.Clock()
			_, _, err := c.RecvDeadline(0, 4, 0.25)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("expected timeout, got %v", err)
			}
			if got := c.Clock() - before; got < 0.25 {
				return fmt.Errorf("timeout charged only %v virtual seconds", got)
			}
			c.Send(0, 9, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wall-bound", func(t *testing.T) {
		// A default-config world (250 ms watchdog interval) and no sender:
		// the wait ends when the 20 ms timeout says, not an interval later.
		w := testWorld(2, cfg)
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(1, 9)
				return nil
			}
			start := time.Now()
			_, _, err := c.RecvDeadline(0, 4, 0.02)
			if waited := time.Since(start); !errors.Is(err, ErrTimeout) || waited >= 150*time.Millisecond {
				return fmt.Errorf("RecvDeadline(0.02) returned %v after %v, want ErrTimeout within 150ms", err, waited)
			}
			c.Send(0, 9, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("peer-failure", func(t *testing.T) {
		w := testWorld(2, cfg)
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return nil // exits without sending: the wait is hopeless
			}
			_, _, err := c.RecvDeadline(0, 4, 0.5)
			if !errors.Is(err, ErrRankFailed) {
				return fmt.Errorf("expected rank failure, got %v", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCollectivesFailFastOnDeadPeer: on a communicator with a dead member,
// Allgatherv under every policy, Alltoallw under both algorithms and a
// persistent Exchange built before the death raise ErrRankFailed or
// ErrRevoked on every survivor, even where the dead member owes no bytes,
// and no survivor hangs.  Recovery is Restore's job, not the collectives'.
func TestCollectivesFailFastOnDeadPeer(t *testing.T) {
	type op struct {
		name string
		cfg  Config
		run  func(c *Comm, e *Exchange)
	}
	counts := []int{8, 0, 16, 24} // the dead rank 1 owes nothing
	allgatherv := func(c *Comm, _ *Exchange) {
		c.Allgatherv(make([]byte, counts[c.Rank()]), counts, make([]byte, 48))
	}
	alltoallv := func(c *Comm, _ *Exchange) {
		n := c.Size()
		cnt := []int{8, 8, 8, 8}
		c.Alltoallv(make([]byte, 8*n), cnt, make([]byte, 8*n), cnt)
	}
	exchange := func(_ *Comm, e *Exchange) {
		e.Start(make([]byte, 32), make([]byte, 32))
		e.Wait()
	}
	var ops []op
	for _, algo := range []AllgathervAlgo{AGAuto, AGAdaptive, AGRing, AGRecursiveDoubling, AGDissemination} {
		cfg := Optimized()
		cfg.Allgatherv = algo
		ops = append(ops, op{"allgatherv/" + algo.String(), cfg, allgatherv})
	}
	for _, algo := range []AlltoallwAlgo{ATRoundRobin, ATBinned} {
		cfg := Optimized()
		cfg.Alltoallw = algo
		ops = append(ops, op{"alltoallw/" + algo.String(), cfg, alltoallv},
			op{"exchange/" + algo.String(), cfg, exchange})
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			w := faultWorld(4, o.cfg, &simnet.FaultPlan{CrashAt: map[int]float64{1: 0}})
			err := w.Run(func(c *Comm) error {
				spec := make([]TypeSpec, c.Size())
				for r := range spec {
					spec[r] = TypeSpec{Type: Bytes(8), Count: 1, Displ: 8 * r}
				}
				e := c.AlltoallwInit(spec, spec)
				if c.Rank() == 1 {
					c.Barrier() // crashes at entry
					return errors.New("scheduled crash did not fire")
				}
				// Each survivor observes the failure directly, on a wait
				// on the dead rank itself.
				if err := Guard(func() error { c.Recv(1, 7); return nil }); !errors.Is(err, ErrRankFailed) {
					return fmt.Errorf("crash went unnoticed: %v", err)
				}
				err := Guard(func() error { o.run(c, e); return nil })
				if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrRevoked) {
					return fmt.Errorf("rank %d: %s with a dead member returned %v", c.Rank(), o.name, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
