package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsTwoWithOneLine: every flag value that used to reach a
// world — and die there with a goroutine dump, or crash a rank nobody holds
// and report "no recovery exercised" — is one stderr line and exit 2, with
// nothing run.
func TestBadInputExitsTwoWithOneLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // what the line must name
	}{
		{[]string{"-procs", "0"}, "-procs 0"},
		{[]string{"-procs", "-3"}, "-procs -3"},
		{[]string{"-procs", "4", "-crash-rank", "9"}, "-crash-rank 9"},
		{[]string{"-procs", "4", "-crash-rank", "4"}, "-crash-rank 4"},
		{[]string{"-procs", "4", "-crash-rank", "-2"}, "-crash-rank -2"},
		{[]string{"-crash-frac", "0"}, "-crash-frac 0"},
		{[]string{"-crash-frac", "-0.5"}, "-crash-frac -0.5"},
		{[]string{"-crash-frac", "NaN"}, "-crash-frac NaN"},
		{[]string{"-extent", "100", "-levels", "4"}, "extent 100 not divisible"},
		{[]string{"-extent", "2"}, "extent 2 too small"},
		{[]string{"-levels", "0"}, "levels 0 too small"},
		// 8 ranks fit a 4^3 grid as 2x2x2; the 7 survivors do not.  (One
		// level of 4^3 is the coarsest level, which rank 0 holds alone.)
		{[]string{"-procs", "8", "-extent", "4", "-levels", "2"}, "7 ranks on the 4^3 grid of level 0"},
		{[]string{"-iomatrix", "-procs", "0"}, "-procs 0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "faultsim: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"faultsim: \" line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: stdout %q", tc.args, stdout.String())
		}
	}
}

// TestRecoveryDemoRuns drives the smallest valid demo end to end, at both
// ends of the crash-rank range.
func TestRecoveryDemoRuns(t *testing.T) {
	for _, rank := range []string{"0", "3"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-procs", "4", "-crash-rank", rank, "-extent", "8", "-levels", "2", "-iters", "1"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q, stdout\n%s", args, code, stderr.String(), stdout.String())
		}
		if !strings.Contains(stdout.String(), "RESULT: solve converged after mid-solve rank crash via Comm.Shrink()") {
			t.Errorf("%v: no recovery exercised:\n%s", args, stdout.String())
		}
	}
}

// TestCrashBeforeFirstCheckpointRestarts: a crash before the first
// checkpoint leaves nothing to restore; the survivors solve again from
// cycle 0 on the shrunk communicator instead of panicking.
func TestCrashBeforeFirstCheckpointRestarts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-procs", "4", "-extent", "16", "-levels", "2", "-crash-frac", "0.01", "-iters", "1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q, stdout\n%s", args, code, stderr.String(), stdout.String())
	}
	for _, want := range []string{"shrink to 3 survivors, restart from scratch", "RESULT: solve converged after mid-solve rank crash"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: no %q in\n%s", args, want, stdout.String())
		}
	}
}
