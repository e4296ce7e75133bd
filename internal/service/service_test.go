package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/transport"
)

// startServices brings up an n-daemon service fleet in one process: one
// TCP mesh endpoint + Mux + Service per "daemon", exactly the nccdd -serve
// topology.  Returns the services; the caller drains rank 0 and Waits.
func startServices(t *testing.T, n int, mutate func(rank int, c *Config)) []*Service {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	armCfg, mode, err := bench.ArmByName("compiled")
	if err != nil {
		t.Fatal(err)
	}
	svcs := make([]*Service, n)
	muxes := make([]*transport.Mux, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		tcp, terr := transport.NewTCP(transport.TCPConfig{
			Rank: r, Size: n, WorldID: 0x51c, Addrs: addrs, Listener: lns[r],
			DialTimeout: 5 * time.Second,
		})
		if terr != nil {
			t.Fatalf("rank %d: %v", r, terr)
		}
		muxes[r] = transport.NewMux(tcp)
		cfg := Config{Rank: r, MPI: armCfg, Mode: mode,
			OnEvent: func(line string) { t.Logf("[rank %d] %s", r, line) }}
		if mutate != nil {
			mutate(r, &cfg)
		}
		wg.Add(1)
		go func(r int, cfg Config) {
			defer wg.Done()
			svcs[r], errs[r] = New(muxes[r], cfg)
		}(r, cfg)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("service rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range muxes {
			m.Close()
		}
	})
	return svcs
}

// slowFirstJob wraps rank 0's event hook next (nil for none) so that job 1
// pauses pause at every iteration.  Conjugate gradients reach any rtol these
// tests give within a few dozen iterations, so a job that must outlast a
// test's other steps is made slow rather than long.
func slowFirstJob(pause time.Duration, next func(string)) func(string) {
	return func(line string) {
		if strings.HasPrefix(line, "JOB 1 cycle ") {
			time.Sleep(pause)
		}
		if next != nil {
			next(line)
		}
	}
}

// waitState polls until job id reaches want, failing fast when it lands in
// a different terminal state.
func waitState(t *testing.T, s *Service, id uint64, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if ok && st.State == want {
			return st
		}
		if ok && isTerminalState(st.State) && st.State != want {
			t.Fatalf("job %d landed %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %q after %v, want %q", id, st.State, timeout, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// drainAll drains the fleet through rank 0 and requires every service's
// control world to exit cleanly.
func drainAll(t *testing.T, svcs []*Service, timeout time.Duration) {
	t.Helper()
	svcs[0].Drain()
	done := make(chan error, len(svcs))
	for _, s := range svcs {
		go func(s *Service) { done <- s.Wait() }(s)
	}
	deadline := time.After(timeout)
	for range svcs {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("service exited uncleanly after drain: %v", err)
			}
		case <-deadline:
			t.Fatal("fleet did not drain in time")
		}
	}
}

func refHistoryFor(t *testing.T, ranks int, spec JobSpec) []float64 {
	t.Helper()
	armCfg, mode, err := bench.ArmByName("compiled")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.params()
	return bench.RunMultigridWorld(core.NewUniformWorld(ranks, armCfg), p, mode).History
}

func sameHistory(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cycles vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("cycle %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestServiceEndToEnd exercises the whole tenant lifecycle on a 3-daemon
// in-process fleet: submit → run → completed with a bitwise-reference
// history, concurrent jobs on overlapping rank sets, typed overload
// rejection, the HTTP API surface, cancellation, and the drain protocol.
func TestServiceEndToEnd(t *testing.T) {
	svcs := startServices(t, 3, nil)
	s0 := svcs[0]

	// One full-mesh job, verified bitwise against an in-process reference.
	spec := JobSpec{Extent: 16, Levels: 3, Rtol: 1e-8, MaxCycles: 12}
	id, err := s0.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitState(t, s0, id, stateCompleted, 60*time.Second)
	if st.Cycles == 0 || len(st.History) != st.Cycles {
		t.Fatalf("completed job has cycles=%d history=%d", st.Cycles, len(st.History))
	}
	if err := sameHistory(st.History, refHistoryFor(t, 3, st.Spec)); err != nil {
		t.Fatalf("service run diverged from in-process reference: %v", err)
	}

	// Submissions are controller-only.
	if _, err := svcs[1].Submit(spec); err == nil {
		t.Fatal("worker rank accepted a submission")
	}

	// A batch of concurrent jobs across different rank subsets; all must
	// complete and reproduce their references.
	batch := []JobSpec{
		{Extent: 16, Levels: 3, Rtol: 1e-8, MaxCycles: 10},
		{Extent: 16, Levels: 3, Rtol: 1e-8, MaxCycles: 10},
		{Extent: 16, Levels: 3, Rtol: 1e-8, MaxCycles: 10, Ranks: 2},
		{Extent: 8, Levels: 2, Rtol: 1e-8, MaxCycles: 8, Ranks: 2, Weight: 2},
	}
	ids := make([]uint64, len(batch))
	for i, sp := range batch {
		if ids[i], err = s0.Submit(sp); err != nil {
			t.Fatalf("submit batch[%d]: %v", i, err)
		}
	}
	for i, jid := range ids {
		st := waitState(t, s0, jid, stateCompleted, 120*time.Second)
		if err := sameHistory(st.History, refHistoryFor(t, len(st.Ranks), st.Spec)); err != nil {
			t.Fatalf("batch job %d diverged: %v", i, err)
		}
	}

	// Overload: a spec whose estimated footprint alone crosses the
	// active-bytes watermark comes back as the typed error.
	_, err = s0.Submit(JobSpec{Extent: 360})
	var over *OverloadedError
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &over) || over.RetryAfter <= 0 {
		t.Fatalf("oversized submit returned %v, want *OverloadedError wrapping ErrOverloaded", err)
	}

	// A malformed spec is refused outright, not as overload.
	if _, err := s0.Submit(JobSpec{Extent: 16, MaxCycles: bench.MaxCycles + 1}); err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit with max_cycles over the limit returned %v, want a validation error", err)
	}

	// The same paths over HTTP.
	srv := httptest.NewServer(s0.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"extent":360}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("oversized POST: status %d Retry-After %q, want 429 with a header", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	// A bad problem shape is a 400 carrying the shared validator's message.
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"extent":100,"levels":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "extent 100 not divisible by 2^(levels-1) = 8"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Fatalf("bad-shape POST: status %d body %q, want 400 containing %q", resp.StatusCode, body, want)
	}
	// A field JobSpec does not have, a retired option or a typo, is a 400
	// naming it, not a job run without it.
	for _, tc := range []struct{ body, field string }{
		{`{"extent":16,"chebyshev":true}`, "chebyshev"},
		{`{"extent":16,"maxcycles":10}`, "maxcycles"},
	} {
		resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := `unknown field \"` + tc.field + `\"`; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Fatalf("POST %s: status %d body %q, want 400 containing %q", tc.body, resp.StatusCode, body, want)
		}
	}
	// A spec followed by a second value or by junk is a 400 and queues no
	// job: the decoder would otherwise read the first value and drop the rest.
	s0.mu.Lock()
	jobsBefore := len(s0.jobs)
	s0.mu.Unlock()
	for _, trailing := range []string{`{"extent":16}{"extent":999}`, `{"extent":16} junk`} {
		resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(trailing))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := "trailing data"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Fatalf("POST %s: status %d body %q, want 400 containing %q", trailing, resp.StatusCode, body, want)
		}
	}
	s0.mu.Lock()
	jobsAfter := len(s0.jobs)
	s0.mu.Unlock()
	if jobsAfter != jobsBefore {
		t.Fatalf("POSTs with trailing data queued %d jobs", jobsAfter-jobsBefore)
	}
	// A body over the 1 MiB limit is a 413 with a one-line error, however
	// much more the client meant to send.
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"extent":16,"pad":"`+strings.Repeat("x", maxSpecBytes)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "job spec larger than 1048576 bytes"; resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), want) {
		t.Fatalf("oversized-body POST: status %d body %q, want 413 containing %q", resp.StatusCode, body, want)
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"extent":16,"max_cycles":400,"rtol":1e-30,"ranks":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(fmt.Sprintf("%s/jobs/%d", srv.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var view JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil || view.ID != sub.ID {
		t.Fatalf("GET /jobs/%d: err %v view %+v", sub.ID, err, view)
	}
	resp.Body.Close()

	// Cancel the long-running HTTP job through the API; whatever state the
	// controller catches it in, it must land canceled.
	resp, err = http.Post(fmt.Sprintf("%s/jobs/%d/cancel", srv.URL, sub.ID), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitState(t, s0, sub.ID, stateCanceled, 60*time.Second)

	// Unknown job ids 404.
	resp, err = http.Get(srv.URL + "/jobs/99999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", resp.StatusCode)
	}
	resp.Body.Close()

	drainAll(t, svcs, 60*time.Second)

	// Post-drain admission refuses with the typed overload error.
	if _, err := s0.Submit(spec); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post-drain submit returned %v, want ErrOverloaded", err)
	}
}

// TestServiceQueueWatermark: a full queue bounces submissions with the
// typed overload error before they reach the mesh.
func TestServiceQueueWatermark(t *testing.T) {
	svcs := startServices(t, 2, func(rank int, c *Config) {
		c.Admission.MaxQueue = 1
		c.Admission.MaxRunning = 1
		c.Admission.RetryAfter = 3 * time.Second
		if rank == 0 {
			c.OnEvent = slowFirstJob(100*time.Millisecond, c.OnEvent)
		}
	})
	s0 := svcs[0]
	long := JobSpec{Extent: 16, Levels: 3, Rtol: 1e-30, MaxCycles: 300}
	// First fills the single running slot, second the single queue slot;
	// the third must bounce.
	first, err := s0.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s0, first, stateRunning, 30*time.Second)
	second, err := s0.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	var over *OverloadedError
	_, err = s0.Submit(long)
	if !errors.As(err, &over) {
		t.Fatalf("third submit returned %v, want queue-full overload", err)
	}
	if over.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want the configured 3s", over.RetryAfter)
	}

	// Drain is graceful: the running job finishes, the queued one is
	// canceled before it starts.
	drainAll(t, svcs, 120*time.Second)
	if st, _ := s0.Status(first); st.State != stateCompleted {
		t.Fatalf("running job drained to %q, want completed", st.State)
	}
	if st, _ := s0.Status(second); st.State != stateCanceled {
		t.Fatalf("queued job drained to %q, want canceled", st.State)
	}
}

// TestServiceReapsCheckpoints: a long-lived service must not keep a
// terminal job's checkpoint files forever.  The controller removes a job's
// checkpoint directory once the job completes or is canceled, and leaves a
// still-running job's directory alone.
func TestServiceReapsCheckpoints(t *testing.T) {
	root := t.TempDir()
	svcs := startServices(t, 2, func(rank int, c *Config) {
		c.CkptDir = root
		c.CheckpointEvery = 1
		if rank == 0 {
			c.OnEvent = slowFirstJob(200*time.Millisecond, c.OnEvent)
		}
	})
	s0 := svcs[0]
	waitDir := func(id uint64, wantExists bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			commits, _ := filepath.Glob(filepath.Join(s0.jobCkptDir(id), "*.commit"))
			_, err := os.Stat(s0.jobCkptDir(id))
			if wantExists && len(commits) > 0 || !wantExists && os.IsNotExist(err) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d checkpoint dir: exists=%v commits=%d, want exists=%v", id, err == nil, len(commits), wantExists)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	long, err := s0.Submit(JobSpec{Extent: 16, Levels: 3, Rtol: 1e-30, MaxCycles: 100000})
	if err != nil {
		t.Fatal(err)
	}
	short, err := s0.Submit(JobSpec{Extent: 16, Levels: 3, Rtol: 1e-30, MaxCycles: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDir(long, true)
	waitState(t, s0, short, stateCompleted, 60*time.Second)
	waitDir(short, false)
	if st, _ := s0.Status(long); st.State != stateRunning {
		t.Fatalf("long job is %q, want still running", st.State)
	}
	waitDir(long, true)

	if err := s0.RequestCancel(long); err != nil {
		t.Fatal(err)
	}
	waitState(t, s0, long, stateCanceled, 60*time.Second)
	waitDir(long, false)
	drainAll(t, svcs, 60*time.Second)
}

// TestServiceEvictsOldTerminalJobs: the job table of a long-lived service
// is bounded.  With one job running throughout, more jobs than the table
// remembers are submitted and finish (canceled before they start, so none
// costs a solve); the table settles at the running job plus the newest
// maxTerminalJobs finished ones, the longest-finished are the ones gone and
// answer 404, and the running job — the oldest record of all — is there at
// every look.
func TestServiceEvictsOldTerminalJobs(t *testing.T) {
	const extra = 50
	svcs := startServices(t, 2, func(rank int, c *Config) {
		c.Admission.MaxQueue = maxTerminalJobs + extra
		c.Admission.MaxRunning = 2 // the long job, and a slot so the queue keeps moving
		c.OnEvent = nil
		if rank == 0 {
			c.OnEvent = slowFirstJob(200*time.Millisecond, nil)
		}
	})
	s0 := svcs[0]
	long, err := s0.Submit(JobSpec{Extent: 16, Levels: 3, Rtol: 1e-30, MaxCycles: 100000})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s0, long, stateRunning, 30*time.Second)

	ids := make([]uint64, maxTerminalJobs+extra)
	for i := range ids {
		for { // the queue drains a tick at a time
			var over *OverloadedError
			if ids[i], err = s0.Submit(JobSpec{Extent: 4, Levels: 1}); !errors.As(err, &over) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s0.RequestCancel(ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		list := s0.List()
		live := 0
		for _, st := range list {
			if !isTerminalState(st.State) {
				live++
			}
		}
		if st, ok := s0.Status(long); !ok || st.State != stateRunning {
			t.Fatalf("running job %d: present=%v state=%q while the table was being evicted", long, ok, st.State)
		}
		if live == 1 && len(list) == maxTerminalJobs+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("table holds %d jobs (%d live), want %d terminal + the running one", len(list), live, maxTerminalJobs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Oldest first.  A job the controller happened to start between its
	// Submit and its RequestCancel finished later than its neighbours, so
	// only the never-started ones are compared by id.
	srv := httptest.NewServer(s0.Handler())
	defer srv.Close()
	var newestGone uint64
	gone := 0
	for _, id := range ids {
		if _, ok := s0.Status(id); ok {
			continue
		}
		gone++
		newestGone = id
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET evicted job %d: status %d, want 404", id, resp.StatusCode)
		}
	}
	if gone != extra {
		t.Fatalf("%d jobs evicted, want %d", gone, extra)
	}
	for _, st := range s0.List() {
		if st.Error == "canceled before start" && st.ID < newestGone {
			t.Fatalf("job %d was evicted while the older job %d, finished no later, was kept", newestGone, st.ID)
		}
	}
	if _, ok := s0.Status(ids[len(ids)-1]); !ok {
		t.Fatalf("the newest finished job %d was evicted", ids[len(ids)-1])
	}

	if err := s0.RequestCancel(long); err != nil {
		t.Fatal(err)
	}
	waitState(t, s0, long, stateCanceled, 60*time.Second)
	drainAll(t, svcs, 60*time.Second)
}
