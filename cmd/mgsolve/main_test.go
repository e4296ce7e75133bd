package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsTwoWithOneLine: an invocation no run could use — a node
// with no ranks, a chaos victim outside the world, an arm nobody knows, no
// mode, a shape that does not fit, a fault probability outside [0, 1) (at 1
// the daemons retransmit for ever), a checkpoint fault spec nobody can
// parse, a checkpoint period, aggregator count or stripe below 1, a
// negative heartbeat, a service fleet too small to lose a rank — is one
// stderr line and exit 2.  The daemon path does not exist, so reaching the
// launcher would be exit 1: exit 2 proves nothing was spawned.
func TestBadInputExitsTwoWithOneLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // what the line must name
	}{
		{[]string{"-tcp", "2", "-pernode=0"}, "-pernode 0"},
		{[]string{"-tcp", "2", "-pernode=-1"}, "-pernode -1"},
		{[]string{"-tcp", "2", "-chaos"}, "-killrank 2 out of range [0,2)"},
		{[]string{"-tcp", "2", "-pernode=2", "-chaos", "-killrank", "4"}, "-killrank 4 out of range [0,4)"},
		{[]string{"-tcp", "2", "-chaos", "-killrank", "-1"}, "-killrank -1"},
		{[]string{"-tcp", "2", "-arm=nosuch"}, `unknown arm "nosuch"`},
		{[]string{"-servestress", "2", "-arm=nosuch"}, `unknown arm "nosuch"`},
		{[]string{"-servestress", "2"}, "-servestress 2 too small"},
		{[]string{"-servestress", "4", "-pernode=2"}, "-pernode 2"},
		{[]string{"-servestress", "4", "-drop=0.5"}, "-drop 0.5"},
		{[]string{"-servestress", "4", "-corrupt=0.1"}, "-corrupt 0.1"},
		{[]string{"-servestress", "4", "-dup=0.1"}, "-dup 0.1"},
		{[]string{"-servestress", "4", "-delaymean=1e-05"}, "-delaymean 1e-05"},
		{[]string{"-servestress", "4", "-aggr=7"}, "-aggr 7"},
		{[]string{"-servestress", "4", "-stripe=4096"}, "-stripe 4096"},
		{[]string{"-servestress", "4", "-iofault=eio=0.5"}, "-iofault eio=0.5"},
		{[]string{"-np", "2", "-analyze", "-arm=nosuch"}, `unknown arm "nosuch"`},
		{nil, "no mode selected"},
		{[]string{"-tcp", "2", "-extent=100", "-levels=4"}, "extent 100 not divisible"},
		{[]string{"-np", "0", "-analyze"}, "ranks 0 too small"},
		{[]string{"-np", "1", "-extent=8", "-levels=2", "-maxcycles=0", "-trace", "t.json"}, "max_cycles 0 too small"},
		{[]string{"-tcp", "2", "-rtol=-1"}, "rtol -1 not positive"},
		{[]string{"-tcp", "2", "-drop=1"}, "drop probability 1 not in [0, 1)"},
		{[]string{"-tcp", "2", "-drop=-0.5"}, "drop probability -0.5"},
		{[]string{"-tcp", "2", "-corrupt=1.5"}, "corrupt probability 1.5"},
		{[]string{"-tcp", "2", "-dup=nan"}, "duplicate probability NaN"},
		{[]string{"-tcp", "2", "-delaymean=-1"}, "mean delay -1"},
		{[]string{"-tcp", "2", "-selfheal", "-iofault=bogus=1"}, `unknown key "bogus"`},
		{[]string{"-tcp", "2", "-selfheal", "-iofault=short=2"}, "probability 2 not in [0, 1)"},
		{[]string{"-tcp", "2", "-selfheal", "-iofault=short=-1"}, "probability -1 not in [0, 1)"},
		{[]string{"-tcp", "2", "-selfheal", "-iofault=enospc=-1"}, `"enospc=-1"`},
		{[]string{"-tcp", "2", "-selfheal", "-ckptevery=0"}, "-ckptevery 0 too small"},
		{[]string{"-tcp", "2", "-selfheal", "-aggr=-1"}, "-aggr -1 too small"},
		{[]string{"-tcp", "2", "-selfheal", "-stripe=0"}, "-stripe 0 too small"},
		{[]string{"-tcp", "2", "-hb=-1ms"}, "-hb -1ms negative"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-daemon", "/nonexistent"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mgsolve: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"mgsolve: \" line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: stdout %q", tc.args, stdout.String())
		}
	}
}

// TestDeletedFlagsRefused: every reference check runs, the -servestress
// victim is the last rank and its small-job count is a constant.
func TestDeletedFlagsRefused(t *testing.T) {
	for _, flag := range []string{"-noverify", "-servekill", "-servejobs"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 refusing it", flag, code, stderr.String())
		}
	}
}

// TestAnalyzeExcusesDroppedSpans: a long in-process solve fills rank 0's
// span ring, so the tracer drops spans and some message edges lose a half:
// eight ranks of the baseline arm, whose round-robin exchanges contact every
// rank, on four levels.
// -analyze must pass the drop count to the analyzer, name the drop in the
// report and exit 0, as a -tcp run does.
func TestAnalyzeExcusesDroppedSpans(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-np", "8", "-extent", "16", "-levels", "4", "-arm", "baseline", "-maxcycles", "159", "-rtol", "1e-300", "-analyze"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "spans dropped by ring buffers") {
		t.Fatalf("report does not name the drop:\n%s", stdout.String())
	}
}
