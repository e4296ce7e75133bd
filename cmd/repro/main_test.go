package main

import (
	"bytes"
	"strings"
	"testing"

	"nccd/internal/bench"
)

// The figures run on the deterministic virtual clock, so these are exact
// comparisons, not tolerances.

func TestFig12QuickIsBenchFig12(t *testing.T) {
	var want bytes.Buffer
	bench.Fig12(quickSweep.transposeSizes, quickSweep.transposeIters).Print(&want)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "12", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("-fig 12 -quick printed\n%s\nwant exactly\n%s", stdout.String(), want.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr %q", stderr.String())
	}
}

func TestFigAllQuickPrintsEveryFigureInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick sweep")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "all", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	// Every table header `repro -quick` printed before -fig existed.
	rest := stdout.String()
	for _, header := range []string{
		"Reproducing: Nonuniformly Communicating Noncontiguous Data (IPDPS 2007)",
		"FIG12:", "FIG13A:", "FIG13B:", "FIG14A:", "FIG14B:", "FIG15:", "FIG16:", "FIG17:",
		"total harness time:",
	} {
		i := strings.Index(rest, header)
		if i < 0 {
			t.Fatalf("header %q missing, or out of order, in\n%s", header, stdout.String())
		}
		rest = rest[i+len(header):]
	}
	for _, extension := range []string{"ABLATE-", "=== Alltoallw", "FAULT-OVERHEAD:", "FAULTSIM:"} {
		if strings.Contains(stdout.String(), extension) {
			t.Errorf("-fig all printed the %s extension tables", extension)
		}
	}
}

// TestSweepsFitTheirWorlds: both sweeps' multigrid problems decompose over
// every rank count they run on.  A crash row heals back to full size, so it
// runs on faultProcs ranks only.
func TestSweepsFitTheirWorlds(t *testing.T) {
	for _, s := range []*sweep{&fullSweep, &quickSweep} {
		for _, n := range s.mgProcs {
			if err := s.mg.Validate(n); err != nil {
				t.Errorf("Figure 17 on %d ranks: %v", n, err)
			}
		}
		if err := s.fault.Validate(s.faultProcs); err != nil {
			t.Errorf("faults on %d ranks: %v", s.faultProcs, err)
		}
	}
}

// runFig runs one figure and fails the test unless it exits 0.
func runFig(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q, stdout\n%s", args, code, stderr.String(), stdout.String())
	}
	return stdout.String()
}

// TestFigTimelineQuick: the 8-rank ring draws a chart per algorithm whose
// horizons are the ones the virtual clock has always given, a lane per rank,
// and the analyzer matches every message.
func TestFigTimelineQuick(t *testing.T) {
	out := runFig(t, "-fig", "timeline", "-quick")
	for _, want := range []string{"horizon: 46.4 us", "horizon: 12.3 us", "rank   7 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "0 unmatched sends, 0 unmatched recvs"); got != 2 {
		t.Errorf("%d of 2 analyzer reports match every message:\n%s", got, out)
	}
}

// TestFigFaultsRecoveryDemoRuns: at both ends of the crash-rank range the
// respawned world resumes from a checkpoint, the root rank's crash included,
// and every crash row converges.
func TestFigFaultsRecoveryDemoRuns(t *testing.T) {
	out := runFig(t, "-fig", "faults", "-quick")
	for _, want := range []string{"rank 3 crashes at 50%", "rank 0 crashes at 50%", "restart from checkpoint of cycle 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "RESULT: solve converged after mid-solve rank crash via respawn and Comm.Restore()"); got != 3 {
		t.Errorf("%d of 3 crash rows converged:\n%s", got, out)
	}
}

// TestFigFaultsCrashBeforeFirstCheckpointRestarts: a crash before the first
// checkpoint leaves nothing to restore; the regrown world solves again from
// cycle 0 instead of panicking.
func TestFigFaultsCrashBeforeFirstCheckpointRestarts(t *testing.T) {
	out := runFig(t, "-fig", "faults", "-quick")
	_, row, ok := strings.Cut(out, "rank 3 crashes at 1%")
	if !ok {
		t.Fatalf("output lacks the 1%% crash row:\n%s", out)
	}
	for _, want := range []string{"regrow to 4 ranks, restart from scratch", "RESULT: solve converged after mid-solve rank crash"} {
		if !strings.Contains(row, want) {
			t.Errorf("1%% crash row lacks %q:\n%s", want, out)
		}
	}
}

// TestFigIOMatrix: every checkpoint I/O fault cell heals with a
// bitwise-identical history.
func TestFigIOMatrix(t *testing.T) {
	out := runFig(t, "-fig", "iomatrix")
	if got := strings.Count(out, " ok: "); got != 6 || strings.Contains(out, "FAIL") {
		t.Errorf("%d of 6 cells ok:\n%s", got, out)
	}
}

func TestUnknownFigExitsTwoWithOneLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
		t.Fatalf("stderr is not one line: %q", msg)
	}
	for _, f := range figures {
		if !strings.Contains(msg, f.name) {
			t.Errorf("stderr %q does not name accepted value %q", msg, f.name)
		}
	}
	if !strings.Contains(msg, "all") {
		t.Errorf("stderr %q does not name accepted value \"all\"", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected stdout %q", stdout.String())
	}
}
