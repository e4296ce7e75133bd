package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/transport"
)

// RecoveryReport is the self-healing benchmark written to
// BENCH_recovery.json: what failure detection costs when nothing is wrong,
// how fast it fires when something is, and how long the full
// respawn → rejoin → restore loop takes end to end.
type RecoveryReport struct {
	// Failure-detector configuration the measurements ran under.
	HeartbeatIntervalMS float64 `json:"heartbeat_interval_ms"`
	MissThreshold       int     `json:"miss_threshold"`
	FailAfter           int     `json:"fail_after"`

	// Detection: wall-clock time from a peer going silent (heartbeats
	// paused, connection intact — the hung-process case a dead TCP
	// connection never reports) to suspicion, and to the hard failure.
	DetectionMS    float64 `json:"detection_ms"`
	HardFailureMS  float64 `json:"hard_failure_ms"`
	DetectionBeats int64   `json:"detection_beats"` // beats exchanged while measuring

	// Steady-state overhead of the detector on a healthy idle link.
	BeatsPerSecPerPeer float64 `json:"beats_per_sec_per_peer"`
	BeatBytesPerSec    float64 `json:"beat_bytes_per_sec_per_peer"`

	// In-process chaos run: a mid-solve rank kill, ridden out by
	// Respawn + Restore + checkpoint resume.
	InprocMTTRMS          float64 `json:"inproc_mttr_ms"`
	InprocRespawns        int     `json:"inproc_respawns"`
	InprocHistoryMatches  bool    `json:"inproc_history_matches"`
	InprocRestoredAtCycle int     `json:"inproc_restored_at_cycle"`
	InprocTotalCycles     int     `json:"inproc_total_cycles"`

	// Multi-process chaos run over TCP, filled by the mgsolve launcher
	// (zero when the report comes from RunRecovery alone).
	TCPMTTRMS      float64 `json:"tcp_mttr_ms,omitempty"`
	TCPRespawns    int     `json:"tcp_respawns,omitempty"`
	TCPWorldSize   int     `json:"tcp_world_size,omitempty"`
	TCPKilledRank  int     `json:"tcp_killed_rank,omitempty"`
	TCPRestoredAt  int     `json:"tcp_restored_at_cycle,omitempty"`
	TCPTotalCycles int     `json:"tcp_total_cycles,omitempty"`

	// Checkpoint I/O cost on the chaos run's decomposition.  The write-
	// volume numbers are the point of two-phase aggregation: the worst rank
	// ships its owned bytes and writes its aggregation share, well under
	// the global vector a replicated spill would write on every rank.
	CkptGlobalBytes            int64   `json:"ckpt_global_bytes,omitempty"`
	CkptCollectiveMaxRankBytes int64   `json:"ckpt_collective_max_rank_bytes,omitempty"`
	CkptStripeBytes            int64   `json:"ckpt_stripe_bytes,omitempty"`
	CkptAggregators            int     `json:"ckpt_aggregators,omitempty"`
	CkptCollectiveWriteMS      float64 `json:"ckpt_collective_write_ms,omitempty"`
	CkptCollectiveSieveMS      float64 `json:"ckpt_collective_sieve_ms,omitempty"`
	// The in-process chaos run repeated on a multi-stripe, two-aggregator
	// layout (the first run's vector fits one default stripe): the healed
	// history must stay bitwise-identical there too.
	CkptCollectiveHistoryMatches bool `json:"ckpt_collective_history_matches,omitempty"`
	CkptCollectiveRestoredAt     int  `json:"ckpt_collective_restored_at_cycle,omitempty"`
}

// beatWireBytes is a heartbeat frame's wire footprint: 4-byte length
// prefix, 9-byte body (kind + epoch), 4-byte CRC.
const beatWireBytes = 17

// measureDetection brings up a healthy 2-endpoint heartbeating mesh on
// loopback, lets it idle to measure steady-state beat traffic, then pauses
// one side's heartbeats — the deterministic stand-in for a SIGSTOPped
// process whose TCP connection stays open — and times how long the other
// side takes to suspect and then hard-fail it.
func measureDetection(hb transport.HeartbeatConfig) (rep RecoveryReport, err error) {
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for r := 0; r < 2; r++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return rep, lerr
		}
		defer ln.Close()
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	suspectCh := make(chan time.Time, 4)
	downCh := make(chan time.Time, 4)
	eps := make([]*transport.TCP, 2)
	startErrs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		cfg := transport.TCPConfig{
			Rank: r, Size: 2, WorldID: 0xbeef, Addrs: addrs, Listener: lns[r],
			AckTimeout: 50 * time.Millisecond, DialTimeout: 5 * time.Second,
			Heartbeat: hb,
		}
		tr, terr := transport.NewTCP(cfg)
		if terr != nil {
			return rep, terr
		}
		defer tr.Close()
		down := func(peer int) {}
		if r == 0 {
			tr.SetHealth(transport.HealthFuncs{Suspect: func(peer int, suspect bool, silent time.Duration) {
				if suspect {
					select {
					case suspectCh <- time.Now():
					default:
					}
				}
			}})
			down = func(peer int) {
				select {
				case downCh <- time.Now():
				default:
				}
			}
		}
		eps[r] = tr
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			startErrs[r] = tr.Start(func(to int, hdr transport.Header, payload []byte) {}, down)
		}(r)
	}
	wg.Wait()
	for r, serr := range startErrs {
		if serr != nil {
			return rep, fmt.Errorf("bench: endpoint %d: %w", r, serr)
		}
	}

	rep.HeartbeatIntervalMS = float64(hb.Interval) / float64(time.Millisecond)
	rep.MissThreshold = hb.Miss
	rep.FailAfter = hb.FailAfter

	// Steady state: idle long enough for the beat rate to dominate setup.
	idle := 20 * hb.Interval
	time.Sleep(idle)
	st := eps[0].Stats()
	rep.DetectionBeats = st.BeatsSent + st.BeatsRecv
	rep.BeatsPerSecPerPeer = float64(st.BeatsSent) / idle.Seconds()
	rep.BeatBytesPerSec = rep.BeatsPerSecPerPeer * beatWireBytes

	// Hang endpoint 1 and time the detector.
	hung := time.Now()
	eps[1].PauseHeartbeats(true)
	select {
	case at := <-suspectCh:
		rep.DetectionMS = at.Sub(hung).Seconds() * 1e3
	case <-time.After(100 * time.Duration(hb.FailAfter) * hb.Interval):
		return rep, fmt.Errorf("bench: detector never suspected the hung peer")
	}
	select {
	case at := <-downCh:
		rep.HardFailureMS = at.Sub(hung).Seconds() * 1e3
	case <-time.After(100 * time.Duration(hb.FailAfter) * hb.Interval):
		return rep, fmt.Errorf("bench: detector never hard-failed the hung peer")
	}
	return rep, nil
}

// measureCkptIO times the collective two-phase checkpoint write and its
// data-sieving restore on one in-process world, reps checkpoints each, with
// barriers bracketing the timed loops so stragglers are charged honestly.
func measureCkptIO(n int, p MultigridParams, rep *RecoveryReport) error {
	const reps = 4
	dir, err := os.MkdirTemp("", "nccd-ckpt-coll-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	return w.Run(func(c *mpi.Comm) error {
		s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
		s.Solve(b, x, p.Rtol, 4) // a representative mid-solve iterate
		da := s.DA(0)
		total := da.NaturalBytes()

		// The stripe size is scaled down to the benchmark problem so the
		// round-robin deal spreads stripes over both aggregators — the same
		// shape a production-sized vector gets from the 256 KiB default.
		stripe := total / (4 * int64(c.Size()))
		if stripe < 4096 {
			stripe = 4096
		}
		const naggr = 2
		cst, err := ckptio.NewStore(dir, nil, ckptio.Options{StripeBytes: stripe, Aggregators: naggr})
		if err != nil {
			return err
		}
		cst.Bind(da.Comm(), total, da.NaturalSegments())
		c.Barrier()
		t0 := time.Now()
		for k := 1; k <= reps; k++ {
			if err := cst.PutOwned(k, 0.5, 1, x.Array()); err != nil {
				return err
			}
		}
		c.Barrier()
		collWrite := time.Since(t0).Seconds() * 1e3 / reps
		dst := make([]float64, len(x.Array()))
		t0 = time.Now()
		for k := 0; k < reps; k++ {
			if _, _, err := cst.ReadOwned(reps, dst); err != nil {
				return err
			}
		}
		c.Barrier()
		collSieve := time.Since(t0).Seconds() * 1e3 / reps

		// Write volume per checkpoint: this rank's owned bytes shipped plus
		// the stripes it aggregates.
		l := ckptio.NewLayout(total, stripe, naggr, c.Size())
		share := int64(0)
		for st := 0; st < l.NStripes(); st++ {
			if l.StripeOwner(st) == c.Rank() {
				_, sn := l.StripeRange(st)
				share += sn
			}
		}
		mine := float64(int64(len(x.Array()))*8 + share)
		maxRank := c.AllreduceScalar(mine, mpi.OpMax)

		if c.Rank() == 0 {
			rep.CkptGlobalBytes = total
			rep.CkptCollectiveMaxRankBytes = int64(maxRank)
			rep.CkptStripeBytes = l.StripeBytes
			rep.CkptAggregators = len(l.Aggr)
			rep.CkptCollectiveWriteMS = collWrite
			rep.CkptCollectiveSieveMS = collSieve
		}
		return nil
	})
}

// RunRecovery produces the self-healing benchmark: heartbeat detection
// latency and steady-state cost on a real TCP link, plus the in-process
// mid-solve kill → respawn → restore → resume MTTR with its bitwise history
// verification.  The launcher adds the multi-process TCP chaos numbers on
// top before writing the report.
func RunRecovery(n int, p MultigridParams, hb transport.HeartbeatConfig) (RecoveryReport, error) {
	if hb.Interval <= 0 {
		hb.Interval = 10 * time.Millisecond
	}
	if hb.Miss <= 0 {
		hb.Miss = 3
	}
	if hb.FailAfter <= 0 {
		hb.FailAfter = 3 * hb.Miss
	}
	rep, err := measureDetection(hb)
	if err != nil {
		return rep, err
	}
	run, err := RunMultigridSelfHeal(n, p, n/2, 0.5, nil, ckptio.Options{})
	if err != nil {
		return rep, err
	}
	rep.InprocMTTRMS = run.MTTRSeconds * 1e3
	rep.InprocRespawns = run.Respawns
	rep.InprocHistoryMatches = run.HistoryMatches
	rep.InprocRestoredAtCycle = run.Result.RestoredAt
	rep.InprocTotalCycles = run.Result.Cycles
	if !run.HistoryMatches {
		return rep, fmt.Errorf("bench: healed run's history diverged from the fault-free reference")
	}

	// The same chaos run with the checkpoint file cut into many stripes
	// dealt over two aggregators: a restore then sieves several stripes
	// per rank, and must stay bitwise-identical.
	crun, err := RunMultigridSelfHeal(n, p, n/2, 0.5, nil,
		ckptio.Options{StripeBytes: 4096, Aggregators: 2})
	if err != nil {
		return rep, err
	}
	rep.CkptCollectiveHistoryMatches = crun.HistoryMatches
	rep.CkptCollectiveRestoredAt = crun.Result.RestoredAt
	if !crun.HistoryMatches {
		return rep, fmt.Errorf("bench: multi-stripe healed run's history diverged from the fault-free reference")
	}

	if err := measureCkptIO(n, p, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// WriteRecoveryJSON writes the report to path (BENCH_recovery.json).
func WriteRecoveryJSON(path string, rep RecoveryReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
