package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/service"
)

// Per-outcome exit codes of the service client and stress supervisor, so a
// calling script can tell WHY a job run came back nonzero: the service
// refused the work (back off and retry), the solve failed (investigate),
// or somebody canceled it (expected).
const (
	exitOverloaded = 3
	exitFailed     = 4
	exitCanceled   = 5
)

// --- HTTP client helpers -------------------------------------------------

func postJob(base string, spec service.JobSpec) (id uint64, code int, retryAfter string, err error) {
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	code = resp.StatusCode
	retryAfter = resp.Header.Get("Retry-After")
	if code == http.StatusAccepted {
		var sr struct {
			ID uint64 `json:"id"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&sr); derr != nil {
			return 0, code, retryAfter, derr
		}
		return sr.ID, code, retryAfter, nil
	}
	b, _ := io.ReadAll(resp.Body)
	return 0, code, retryAfter, fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(b)))
}

func getJob(base string, id uint64) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%d: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func listJobs(base string) ([]service.JobStatus, error) {
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []service.JobStatus
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func cancelJob(base string, id uint64) error {
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%d/cancel", base, id), "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cancel job %d: %s", id, resp.Status)
	}
	return nil
}

func isTerminal(state string) bool {
	switch state {
	case "completed", "failed", "canceled":
		return true
	}
	return false
}

func waitTerminal(base string, id uint64, timeout time.Duration) (service.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := getJob(base, id)
		if err == nil && isTerminal(st.State) {
			return st, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("job %d still %q after %v", id, st.State, timeout)
			}
			return st, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runServeSubmit is the single-job service client (-submit URL): POST one
// job, wait for a terminal state, and exit with the per-outcome code.
func runServeSubmit(base string, p bench.MultigridParams) int {
	base = strings.TrimSuffix(base, "/")
	spec := service.JobSpec{Extent: p.Extent, Levels: p.Levels, Rtol: p.Rtol, MaxCycles: p.MaxCycles}
	id, code, retryAfter, err := postJob(base, spec)
	if code == http.StatusTooManyRequests {
		fmt.Fprintf(os.Stderr, "mgsolve: service overloaded (Retry-After: %ss): %v\n", retryAfter, err)
		return exitOverloaded
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	fmt.Printf("submitted job %d\n", id)
	st, err := waitTerminal(base, id, 10*time.Minute)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	switch st.State {
	case "completed":
		fmt.Printf("job %d completed: %d cycles, relres %.3e, %.3fs (attempts %d, restored from %d)\n",
			id, st.Cycles, st.RelRes, st.Seconds, st.Attempts, st.RestoredFrom)
		return 0
	case "canceled":
		fmt.Fprintf(os.Stderr, "mgsolve: job %d canceled: %s\n", id, st.Error)
		return exitCanceled
	default:
		fmt.Fprintf(os.Stderr, "mgsolve: job %d failed: %s\n", id, st.Error)
		return exitFailed
	}
}

// --- stress supervisor ---------------------------------------------------

// serveSmallJobs is the number of small concurrent jobs a -servestress run
// submits beside the huge one.
const serveSmallJobs = 8

// serveTrigger is -servestress's kill: the last of n ranks (rank 0 hosts
// the controller) dies once rank 0, the huge job's first rank, reports the
// job's cycle 6, by when the job has checkpoints behind it (a period of 2).
// huge holds the job's id, 0 until it is known.
func serveTrigger(n int, huge *atomic.Uint64, kill func(int)) *killTrigger {
	return &killTrigger{victim: n - 1, kill: kill, cue: func(rank int, line string) bool {
		id := huge.Load()
		return rank == 0 && id != 0 && line == fmt.Sprintf("EVENT JOB %d cycle 6", id)
	}}
}

// runServeStress drives the multi-tenant smoke end to end: spawn an n-rank
// (n >= 3) nccdd -serve fleet given spec, submit one huge and
// serveSmallJobs small concurrent jobs, SIGKILL the last rank once the huge
// job has durable checkpoints, respawn it as a -rejoin replacement, and
// require
//
//   - every job mapped onto the dead rank to heal and complete, the huge
//     one resuming from its own checkpoint (restored_from > 0),
//   - every job NOT mapped onto it to complete undisturbed in one attempt,
//   - all completed histories to match in-process references bitwise,
//   - a deliberately oversized submission to bounce with 429 + Retry-After,
//   - a cancel request to land as state "canceled",
//   - SIGTERM to drain the whole fleet to clean zero exits.
func runServeStress(n int, daemon string, spec bench.DaemonSpec) int {
	fl, err := newFleet(daemon, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	ckptDir, err := os.MkdirTemp("", "nccd-svc-ckpt-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: checkpoint dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(ckptDir)
	defer fl.signal(os.Kill)
	spec.CkptDir, spec.CkptEvery = ckptDir, 2
	args := append(spec.Args(), "-serve", "127.0.0.1:0")

	var hugeID atomic.Uint64
	trig := serveTrigger(n, &hugeID, fl.kill)
	victim := trig.victim
	apiCh := make(chan string, 1)
	onLine := func(rank int, line string) {
		fmt.Printf("[svc %d] %s\n", rank, line)
		if a, ok := strings.CutPrefix(line, "SERVICE "); ok && rank == 0 {
			select {
			case apiCh <- a:
			default:
			}
		}
		trig.feed(rank, line)
	}

	spawn := func(r int, extra ...string) (*daemonProc, error) {
		return fl.spawn(r, append(slices.Clip(args), extra...), func(line string) { onLine(r, line) })
	}
	fmt.Printf("spawning %d nccdd -serve daemons over TCP localhost\n", n)
	procs := make([]*daemonProc, n)
	for r := 0; r < n; r++ {
		procs[r], err = spawn(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: spawning rank %d: %v\n", r, err)
			return 1
		}
	}
	var api string
	select {
	case a := <-apiCh:
		api = "http://" + a
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "mgsolve: no SERVICE line from rank 0 within 30s")
		return 1
	}
	fmt.Printf("job API at %s\n", api)

	// One huge job spanning the whole mesh (low rtol so it runs its full
	// cycle budget — long enough to be mid-flight when the rank dies) and
	// serveSmallJobs quick two-rank jobs, some of which land on the victim.
	hugeSpec := service.JobSpec{Extent: 48, Levels: 3, Rtol: 1e-30, MaxCycles: 40, Ranks: n, Weight: 3}
	smallSpec := service.JobSpec{Extent: 16, Levels: 3, Rtol: 1e-10, MaxCycles: 20, Ranks: 2}
	hid, code, _, err := postJob(api, hugeSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: submitting huge job (HTTP %d): %v\n", code, err)
		return 1
	}
	hugeID.Store(hid)
	smallIDs := make([]uint64, 0, serveSmallJobs)
	for i := 0; i < serveSmallJobs; i++ {
		id, code, _, err := postJob(api, smallSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: submitting small job %d (HTTP %d): %v\n", i, code, err)
			return 1
		}
		smallIDs = append(smallIDs, id)
	}
	fmt.Printf("submitted huge job %d and %d small jobs %v\n", hid, len(smallIDs), smallIDs)

	// Overload probe: a job whose estimated footprint alone crosses the
	// active-bytes watermark must bounce with the typed 429 + Retry-After.
	_, code, retryAfter, err := postJob(api, service.JobSpec{Extent: 360, Ranks: n})
	if code != http.StatusTooManyRequests || retryAfter == "" {
		fmt.Fprintf(os.Stderr, "mgsolve: overload probe: want 429 with Retry-After, got HTTP %d (Retry-After %q, err %v)\n",
			code, retryAfter, err)
		return exitOverloaded
	}
	fmt.Printf("overload probe bounced as designed: HTTP 429, Retry-After %ss\n", retryAfter)

	// Cancel probe: submit and immediately cancel; whichever state the
	// controller catches it in (queued or running), it must land canceled.
	cancelID, code, _, err := postJob(api, service.JobSpec{Extent: 16, Levels: 3, Rtol: 1e-30, MaxCycles: 200, Ranks: 2})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: submitting cancel probe (HTTP %d): %v\n", code, err)
		return 1
	}
	if err := cancelJob(api, cancelID); err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}

	// Mid-run fault injection: the trigger SIGKILLs the victim; once it is
	// reaped, respawn it as a rejoin replacement.
	select {
	case <-procs[victim].done:
	case <-time.After(2 * time.Minute):
		fmt.Fprintln(os.Stderr, "mgsolve: huge job never reached cycle 6 within 2m")
		return 1
	}
	if killed, _ := trig.fired(); !killed {
		fmt.Fprintf(os.Stderr, "mgsolve: victim rank %d exited before the kill\n", victim)
		return 1
	}
	fmt.Printf("chaos: respawning rank %d as a -rejoin replacement\n", victim)
	procs[victim], err = spawn(victim, "-rejoin", "-epoch", "1")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: respawning rank %d: %v\n", victim, err)
		return 1
	}

	// Wait for every job to reach a terminal state.
	allIDs := append(append([]uint64{hid}, smallIDs...), cancelID)
	deadline := time.Now().Add(5 * time.Minute)
	for {
		jobs, lerr := listJobs(api)
		if lerr == nil {
			doneCount := 0
			for _, st := range jobs {
				if isTerminal(st.State) {
					doneCount++
				}
			}
			if doneCount == len(allIDs) {
				break
			}
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "mgsolve: jobs not all terminal within 5m")
			if jobs, lerr := listJobs(api); lerr == nil {
				for _, st := range jobs {
					fmt.Fprintf(os.Stderr, "  job %d: %s (attempts %d)\n", st.ID, st.State, st.Attempts)
				}
			}
			return 1
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Collect final statuses, then drain the fleet before the (CPU-heavy)
	// reference runs.
	final := make(map[uint64]service.JobStatus)
	for _, id := range allIDs {
		st, gerr := getJob(api, id)
		if gerr != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: %v\n", gerr)
			return 1
		}
		final[id] = st
	}
	fmt.Println("draining fleet with SIGTERM")
	fl.signal(syscall.SIGTERM)
	for _, p := range procs {
		select {
		case werr := <-p.done:
			if werr != nil {
				fmt.Fprintf(os.Stderr, "mgsolve: rank %d exited uncleanly after drain: %v\n", p.rank, werr)
				return 1
			}
		case <-time.After(60 * time.Second):
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d did not drain within 60s\n", p.rank)
			return 1
		}
	}
	fmt.Println("fleet drained: every daemon exited 0")

	return verifyServeOutcomes(spec.CoreArm(), victim, final, hid, smallIDs, cancelID)
}

// verifyServeOutcomes checks the collected terminal statuses against the
// fault-isolation and bitwise-reproducibility contracts.
func verifyServeOutcomes(arm core.Arm, victim int, final map[uint64]service.JobStatus,
	hid uint64, smallIDs []uint64, cancelID uint64) int {
	onVictim := func(st service.JobStatus) bool {
		for _, r := range st.Ranks {
			if r == victim {
				return true
			}
		}
		return false
	}

	if st := final[cancelID]; st.State != "canceled" {
		fmt.Fprintf(os.Stderr, "mgsolve: cancel probe %d ended %q, want canceled (error %q)\n", cancelID, st.State, st.Error)
		return exitCanceled
	}
	fmt.Printf("cancel probe %d landed canceled\n", cancelID)

	solved := append([]uint64{hid}, smallIDs...)
	untouched := 0
	for _, id := range solved {
		st := final[id]
		switch st.State {
		case "completed":
		case "canceled":
			fmt.Fprintf(os.Stderr, "mgsolve: job %d unexpectedly canceled: %s\n", id, st.Error)
			return exitCanceled
		default:
			fmt.Fprintf(os.Stderr, "mgsolve: job %d ended %q: %s\n", id, st.State, st.Error)
			return exitFailed
		}
		if !onVictim(st) {
			untouched++
			if st.Attempts != 1 {
				fmt.Fprintf(os.Stderr, "mgsolve: job %d avoided the dead rank (ranks %v) yet ran %d attempts — fault isolation broken\n",
					id, st.Ranks, st.Attempts)
				return exitFailed
			}
		}
	}
	huge := final[hid]
	if !onVictim(huge) {
		fmt.Fprintf(os.Stderr, "mgsolve: huge job %d not mapped onto killed rank %d (ranks %v) — kill missed its target\n",
			hid, victim, huge.Ranks)
		return 1
	}
	if huge.Attempts < 2 || huge.RestoredFrom <= 0 {
		fmt.Fprintf(os.Stderr, "mgsolve: huge job %d should have healed from its checkpoint (attempts %d, restored_from %d)\n",
			hid, huge.Attempts, huge.RestoredFrom)
		return exitFailed
	}
	fmt.Printf("huge job %d healed: attempt %d resumed from checkpoint cycle %d\n", hid, huge.Attempts, huge.RestoredFrom)
	if untouched == 0 {
		fmt.Fprintln(os.Stderr, "mgsolve: every small job landed on the killed rank; nothing exercised the isolation path (rerun)")
		return 1
	}
	fmt.Printf("%d job(s) never touched the killed rank and completed in one attempt\n", untouched)

	// Bitwise verification: one in-process reference per distinct problem.
	// Residual histories are decomposition- and transport-independent, so
	// the service runs must reproduce them exactly; a healed job's history
	// covers the cycles after its restore point.
	fmt.Println("verifying residual histories against in-process references...")
	check := referenceCheck(arm)
	for _, id := range solved {
		st := final[id]
		p := bench.MultigridParams{Extent: st.Spec.Extent, Levels: st.Spec.Levels,
			Rtol: st.Spec.Rtol, MaxCycles: st.Spec.MaxCycles}
		if err := check(p, st.History, st.RestoredFrom); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: job %d: %v\n", id, err)
			return exitFailed
		}
	}
	fmt.Printf("OK: all %d solved jobs reproduced their in-process reference histories bitwise\n", len(solved))
	return 0
}
