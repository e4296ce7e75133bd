package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

// rankSpansPath names rank r's raw span file under the span directory.
func rankSpansPath(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("spans.rank%d.json", r))
}

// mergeSpans concatenates the processes' span files onto one time axis and
// sums their drop counts.  Virtual spans already share an axis and stay
// put.  Each process's tracer counts wall seconds from its own epoch, so
// each file's wall spans shift to line its first wall span up with the
// earliest file's; the deltas within a file are kept.
func mergeSpans(files []obs.SpanFile) ([]obs.Span, int64) {
	firstWall := func(f obs.SpanFile) float64 {
		first := math.Inf(1)
		for _, s := range f.Spans {
			if s.Clock == obs.ClockWall {
				first = min(first, s.Start)
			}
		}
		return first
	}
	earliest := math.Inf(1)
	for _, f := range files {
		earliest = min(earliest, firstWall(f))
	}
	var spans []obs.Span
	var dropped int64
	for _, f := range files {
		shift := firstWall(f) - earliest
		for _, s := range f.Spans {
			if s.Clock == obs.ClockWall {
				s.Start -= shift
				s.End -= shift
			}
			spans = append(spans, s)
		}
		dropped += f.Dropped
	}
	return spans, dropped
}

// launchConfig parameterizes the multi-process run: the spec every daemon
// is given, plus the launcher's own settings.
type launchConfig struct {
	n        int              // total rank count (nodes × spec.PerNode)
	daemon   string           // nccdd path; empty = auto-locate
	spec     bench.DaemonSpec // forwarded to every daemon by name
	trace    string           // Chrome trace output path; "" = none
	analyze  bool             // run the cross-rank analyzer over the ranks' spans
	spansDir string           // per-rank raw-span directory (set internally for -trace and -analyze)
	selfheal bool             // daemons heal from a shared checkpoint directory
	chaos    bool             // SIGKILL killRank after its first checkpoint write (chaosTrigger), expect full recovery
	killRank int
}

// fleet is one world of nccdd rank daemons on localhost: the binary, the
// ranks' listen addresses, the world id, and the live processes,
// so the launcher can take every child down with it — on a rank failure, a
// chaos kill gone wrong, or a signal — instead of leaving orphaned nccdd
// processes holding ports.
type fleet struct {
	daemon  string
	addrs   []string
	worldID uint64

	mu   sync.Mutex
	cmds map[int]*exec.Cmd
}

// newFleet locates the daemon binary (explicit, or found by locateDaemon)
// and picks n free ports.
func newFleet(explicit string, n int) (*fleet, error) {
	daemon, err := locateDaemon(explicit)
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, fmt.Errorf("allocating ports: %w", err)
	}
	return &fleet{daemon: daemon, addrs: addrs, worldID: uint64(os.Getpid()), cmds: make(map[int]*exec.Cmd)}, nil
}

// kill SIGKILLs rank's live daemon, if it has one, for a chaos trigger,
// and says so.  spawn reaps it.
func (f *fleet) kill(rank int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Printf("chaos: SIGKILL rank %d\n", rank)
	if cmd := f.cmds[rank]; cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}

// signal sends sig to every live daemon.  Reaping stays with spawn's
// cmd.Wait, so no zombie outlives the launcher.
func (f *fleet) signal(sig os.Signal) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, cmd := range f.cmds {
		if cmd.Process != nil {
			_ = cmd.Process.Signal(sig)
		}
	}
}

// daemonProc is one spawned nccdd rank.  done yields cmd.Wait's result
// once its stdout has been drained.
type daemonProc struct {
	rank int
	done chan error
}

// spawn starts rank's daemon with the flags every mode shares plus extra,
// streams each stdout line through onLine, and reaps it: the process is
// live in f from start until cmd.Wait returns.
func (f *fleet) spawn(rank int, extra []string, onLine func(line string)) (*daemonProc, error) {
	args := append([]string{
		"-rank", fmt.Sprint(rank),
		"-n", fmt.Sprint(len(f.addrs)),
		"-addrs", strings.Join(f.addrs, ","),
		"-world", fmt.Sprint(f.worldID),
	}, extra...)
	cmd := exec.Command(f.daemon, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.cmds[rank] = cmd
	f.mu.Unlock()
	p := &daemonProc{rank: rank, done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			onLine(sc.Text())
		}
		p.done <- cmd.Wait()
		f.mu.Lock()
		delete(f.cmds, rank)
		f.mu.Unlock()
	}()
	return p, nil
}

// killTrigger is a supervisor's fault injection, fed every daemon's stdout
// lines as (rank, line).  At the first line cue accepts it kills victim,
// once; after the kill, the first CYCLE line of a later epoch stops the
// MTTR clock.
type killTrigger struct {
	victim int
	cue    func(rank int, line string) bool
	kill   func(rank int)

	mu                  sync.Mutex
	killedAt, resumedAt time.Time
}

// chaosTrigger is -chaos's: victim dies at its "CYCLE 0 <every+1>" line,
// when its first checkpoint write has run, committed or aborted.
func chaosTrigger(victim, every int, kill func(int)) *killTrigger {
	cue := fmt.Sprintf("CYCLE 0 %d", every+1)
	return &killTrigger{victim: victim, kill: kill, cue: func(rank int, line string) bool {
		return rank == victim && line == cue
	}}
}

// feed takes one line rank printed, from any daemon's scanner goroutine.
func (t *killTrigger) feed(rank int, line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.killedAt.IsZero() && t.cue(rank, line):
		t.killedAt = time.Now()
		t.kill(t.victim)
	case !t.killedAt.IsZero() && t.resumedAt.IsZero() && strings.HasPrefix(line, "CYCLE ") && !strings.HasPrefix(line, "CYCLE 0 "):
		t.resumedAt = time.Now()
	}
}

// fired reports whether the kill ran, and the time from it to the first
// line of a later epoch (0 before one).
func (t *killTrigger) fired() (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.resumedAt.IsZero() {
		return !t.killedAt.IsZero(), 0
	}
	return true, t.resumedAt.Sub(t.killedAt)
}

// runLauncher spawns lc.n nccdd rank daemons on localhost, collects their
// results, replays the identical problem on the in-process virtual-time
// transport, and verifies that both converge through the same residual
// history.  With lc.chaos it additionally SIGKILLs lc.killRank after its
// first checkpoint write (chaosTrigger), relaunches it as a -rejoin
// replacement, and requires the healed full-size run to reproduce the
// reference history from the restored cycle on.  Returns the process exit
// code.
func runLauncher(lc launchConfig) int {
	fl, err := newFleet(lc.daemon, lc.n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	if lc.selfheal && lc.spec.CkptDir == "" {
		dir, err := os.MkdirTemp("", "nccd-ckpt-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: checkpoint dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.spec.CkptDir = dir
	}
	if lc.spec.PerNode > 1 {
		// The co-located daemons of each node attach the same segment
		// file; the directory outlives respawned replacements and is
		// reaped with the launcher.
		dir, err := os.MkdirTemp("", "nccd-shm-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: segment dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.spec.ShmDir = dir
	}
	if lc.trace != "" || lc.analyze {
		dir, err := os.MkdirTemp("", "nccd-spans-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: span dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.spansDir = dir
	}
	// Take the children down with us: on SIGINT/SIGTERM every daemon is
	// killed, spawn reaps them, and the launcher exits
	// nonzero.  Same on any single rank failing — survivors would
	// otherwise block forever on the dead peer's port.
	aborted := false
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "mgsolve: %v: killing rank daemons\n", s)
		aborted = true
		fl.signal(os.Kill)
	}()

	if lc.spec.PerNode > 1 {
		fmt.Printf("spawning %d rank daemons (%s) on %d nodes x %d ranks: shared memory within a node, TCP between\n",
			lc.n, fl.daemon, lc.n/lc.spec.PerNode, lc.spec.PerNode)
	} else {
		fmt.Printf("spawning %d rank daemons (%s) over TCP localhost\n", lc.n, fl.daemon)
	}
	trig := chaosTrigger(lc.killRank, lc.spec.CkptEvery, fl.kill)

	reports := make([]*bench.RankReport, lc.n)
	procErrs := make([]error, lc.n)
	var wg sync.WaitGroup
	for r := 0; r < lc.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			onLine := func(line string) {
				if lc.chaos {
					trig.feed(r, line)
				}
			}
			rep, derr := runDaemon(fl, r, lc, nil, onLine)
			if killed, _ := trig.fired(); derr != nil && r == lc.killRank && killed {
				// Expected death: relaunch the rank as a replacement on the
				// same address, joining the bumped epoch.
				fmt.Printf("chaos: respawning rank %d as a rejoin replacement\n", r)
				rep, derr = runDaemon(fl, r, lc, []string{"-rejoin", "-epoch", "1"}, onLine)
			}
			reports[r], procErrs[r] = rep, derr
			if derr != nil {
				// One dead rank means the run cannot complete: take the
				// rest down instead of leaving them orphaned.
				fl.signal(os.Kill)
			}
		}(r)
	}
	wg.Wait()

	if aborted {
		fmt.Fprintln(os.Stderr, "mgsolve: aborted by signal; all rank daemons killed")
		return 1
	}
	failed := false
	for r := 0; r < lc.n; r++ {
		if procErrs[r] != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d: %v\n", r, procErrs[r])
			failed = true
		}
	}
	if failed {
		return 1
	}
	killed, mttr := trig.fired()
	if lc.chaos && !killed {
		fmt.Fprintf(os.Stderr, "mgsolve: chaos kill never fired (rank %d finished before iteration %d)\n", lc.killRank, lc.spec.CkptEvery+1)
		return 1
	}

	r0 := reports[0]
	fmt.Printf("tcp result: %d cycles, relres %.3e, %.3fs wall\n", r0.Cycles, r0.RelRes, r0.Seconds)
	var frames int64
	var rel bench.Reliability
	for _, rep := range reports {
		frames += rep.Stats.FramesSent
		rel.Add(rep.Reliability)
	}
	fmt.Printf("wire: %d frames sent, %d corrupted, %d duplicated, %d retransmits, %d CRC rejects\n",
		frames, rel.CorruptSent, rel.DupsSent, rel.Retransmits, rel.CRCRejects)
	if lc.spec.PerNode > 1 {
		var shm struct{ frames, bytes, stalls, stallNs int64 }
		for _, rep := range reports {
			if s := rep.ShmStats; s != nil {
				shm.frames += s.FramesSent
				shm.bytes += s.BytesSent
				shm.stalls += s.RingFullStalls
				shm.stallNs += s.StallNanos
			}
		}
		fmt.Printf("shm: %d frames, %d ring bytes, %d full-ring stalls (%.3fs)\n",
			shm.frames, shm.bytes, shm.stalls, float64(shm.stallNs)/1e9)
	}

	if lc.spansDir != "" {
		files := make([]obs.SpanFile, lc.n)
		for r := range files {
			if files[r], err = obs.ReadSpansFile(rankSpansPath(lc.spansDir, r)); err != nil {
				fmt.Fprintf(os.Stderr, "mgsolve: rank %d spans: %v\n", r, err)
				return 1
			}
		}
		opts := analyze.Options{Wall: true, Ranks: lc.n}
		if code := finishTrace(files, opts, lc.trace, lc.analyze, os.Stdout, os.Stderr); code != 0 {
			return code
		}
	}

	// Every rank solved the same system; their histories must agree with
	// each other before being compared against the reference.
	for r := 1; r < lc.n; r++ {
		if err := bench.CheckHistory(reports[r].History, r0.History, 0); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d diverged from rank 0: %v\n", r, err)
			return 1
		}
	}
	if lc.chaos {
		return verifyChaos(lc, reports, mttr)
	}
	return verifyAgainstReference(lc, r0.History, 0)
}

// verifyAgainstReference requires history to equal the in-process
// reference run's from cycle `from` on, bitwise.
func verifyAgainstReference(lc launchConfig, history []float64, from int) int {
	fmt.Printf("verifying against in-process reference run...\n")
	if err := referenceCheck(lc.spec.CoreArm())(lc.spec.MultigridParams, history, from); err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: tcp run: %v\n", err)
		return 1
	}
	fmt.Printf("OK: tcp and in-process runs converged through identical residual histories (%d cycles, compared from cycle %d)\n", from+len(history), from)
	return 0
}

// referenceCheck returns the one check of a history of p against the
// in-process virtual-time run of p under arm on one rank: equal, bit for
// bit, to the reference's iterations from `from` on (a healed run's history
// starts after its restore point).  The solve's History does not depend on
// the rank count, so each problem is replayed once and every run of it, at
// any rank count, is checked against that.
func referenceCheck(arm core.Arm) func(p bench.MultigridParams, history []float64, from int) error {
	refs := make(map[bench.MultigridParams][]float64)
	return func(p bench.MultigridParams, history []float64, from int) error {
		ref, ok := refs[p]
		if !ok {
			ref = bench.RunMultigridWorld(core.NewUniformWorld(1, arm.Config), p, arm.Mode).History
			refs[p] = ref
		}
		if err := bench.CheckHistory(history, ref, from); err != nil {
			return fmt.Errorf("diverged from the in-process reference (from cycle %d): %w", from, err)
		}
		return nil
	}
}

// verifyChaos checks the healed run end to end: full size, committed
// epoch, agreed restore point, reference-identical resumed history.
func verifyChaos(lc launchConfig, reports []*bench.RankReport, mttr time.Duration) int {
	base := reports[0].RestoredAt
	for r, rep := range reports {
		if !rep.Healed || rep.Recoveries < 1 {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d did not heal (healed=%v recoveries=%d)\n", r, rep.Healed, rep.Recoveries)
			return 1
		}
		if rep.FinalSize != lc.n {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d finished at size %d, want full %d\n", r, rep.FinalSize, lc.n)
			return 1
		}
		if rep.Epoch == 0 {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d never committed an epoch bump\n", r)
			return 1
		}
		if rep.RestoredAt != base {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d restored at %d, rank 0 at %d — availability agreement violated\n", r, rep.RestoredAt, base)
			return 1
		}
	}
	fmt.Printf("chaos: healed at full size %d, epoch %d, restored from cycle %d, MTTR %.3fs\n",
		lc.n, reports[0].Epoch, base, mttr.Seconds())
	return verifyAgainstReference(lc, reports[0].History, base)
}

// runDaemon runs one rank daemon of the one-shot solve to completion,
// streams its progress lines through onLine, and parses its RESULT line.
func runDaemon(fl *fleet, rank int, lc launchConfig, extra []string, onLine func(line string)) (*bench.RankReport, error) {
	args := lc.spec.Args()
	if lc.spec.ShmDir != "" {
		args = append(args, "-shmdir", lc.spec.ShmDir)
	}
	if lc.spansDir != "" {
		args = append(args, "-spans", rankSpansPath(lc.spansDir, rank))
	}
	var rep *bench.RankReport
	var perr error
	p, err := fl.spawn(rank, append(args, extra...), func(line string) {
		if rest, ok := strings.CutPrefix(line, "RESULT "); ok {
			rep = &bench.RankReport{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				perr = fmt.Errorf("parsing result: %w", err)
			}
			return
		}
		onLine(line)
		fmt.Printf("[rank %d] %s\n", rank, line)
	})
	if err != nil {
		return nil, err
	}
	if err := <-p.done; err != nil {
		return nil, fmt.Errorf("daemon exited: %w", err)
	}
	if perr != nil {
		return nil, perr
	}
	if rep == nil {
		return nil, fmt.Errorf("daemon printed no RESULT line")
	}
	return rep, nil
}

// freeAddrs picks n distinct free localhost ports.  The ports are released
// before the daemons re-bind them — the window is small and collisions on
// a quiet CI host are rare; a clash surfaces as a daemon bind error.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// locateDaemon finds the nccdd binary: the explicit flag, next to this
// executable, or on PATH.
func locateDaemon(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "nccdd")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("nccdd"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find the nccdd daemon: build it with `go build ./cmd/nccdd` and pass -daemon, place it next to mgsolve, or add it to PATH")
}
