package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsTwoWithOneLine: a rank outside its world, an address list
// of the wrong length, an arm nobody knows, a shape that does not fit or a
// fault flag out of range, a checkpoint period, aggregator count or stripe
// below 1, a negative heartbeat, a node layout the world does not divide
// into or with no segment directory, or a replacement with no checkpoint
// directory to resume from or at the first attempt's epoch 0, is one stderr
// line and exit 2, before a listener is opened: nothing is printed on
// stdout, where the launcher reads the daemon's protocol lines.
func TestBadInputExitsTwoWithOneLine(t *testing.T) {
	two := []string{"-n", "2", "-addrs", "127.0.0.1:1,127.0.0.1:2"}
	serve := append([]string{"-rank", "0", "-serve", "127.0.0.1:0"}, two...)
	for _, tc := range []struct {
		args []string
		want string // what the line must name
	}{
		{nil, "need -rank"},
		{append([]string{"-rank", "2"}, two...), "-rank in [0,2)"},
		{append([]string{"-rank", "-1"}, two...), "-rank in [0,2)"},
		{[]string{"-rank", "0", "-n", "2", "-addrs", "127.0.0.1:1"}, "2 comma-separated -addrs"},
		{append([]string{"-rank", "0", "-arm=nosuch"}, two...), `unknown arm "nosuch"`},
		{append([]string{"-rank", "1", "-extent=100", "-levels=4"}, two...), "extent 100 not divisible"},
		{append([]string{"-rank", "1", "-levels=0"}, two...), "levels 0 too small"},
		{append([]string{"-rank", "0", "-drop=1"}, two...), "drop probability 1 not in [0, 1)"},
		{append([]string{"-rank", "0", "-corrupt=-0.5"}, two...), "corrupt probability -0.5"},
		{append([]string{"-rank", "0", "-dup=nan"}, two...), "duplicate probability NaN"},
		{append([]string{"-rank", "0", "-delaymean=-1"}, two...), "mean delay -1"},
		{append([]string{"-rank", "0", "-iofault=bogus=1"}, two...), `unknown key "bogus"`},
		{append([]string{"-rank", "0", "-iofault=fsync=1"}, two...), "probability 1 not in [0, 1)"},
		{append([]string{"-rank", "0", "-iofault=crash=-3"}, two...), `"crash=-3"`},
		{append([]string{"-rank", "0", "-ckptevery=0"}, two...), "-ckptevery 0 too small"},
		{append([]string{"-rank", "0", "-aggr=0"}, two...), "-aggr 0 too small"},
		{append([]string{"-rank", "0", "-stripe=-4096"}, two...), "-stripe -4096 too small"},
		{append([]string{"-rank", "0", "-hb=-25ms"}, two...), "-hb -25ms negative"},
		{append([]string{"-rank", "1", "-rejoin"}, two...), "-rejoin needs -ckpt"},
		{append([]string{"-rank", "1", "-rejoin", "-epoch", "1"}, two...), "-rejoin needs -ckpt"},
		{append([]string{"-rank", "1", "-rejoin", "-ckpt", "/nonexistent"}, two...), "-epoch 1 or later"},
		{[]string{"-rank", "0", "-n", "3", "-addrs", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "-pernode=2"}, "-pernode 2 does not divide the world's 3 ranks"},
		{append([]string{"-rank", "0", "-pernode=2"}, two...), "-pernode 2 needs -shmdir"},
		{append([]string{"-pernode=2", "-shmdir", "/nonexistent"}, serve...), "-pernode 2"},
		{append([]string{"-drop=0.5"}, serve...), "-drop 0.5"},
		{append([]string{"-corrupt=0.1"}, serve...), "-corrupt 0.1"},
		{append([]string{"-dup=0.1"}, serve...), "-dup 0.1"},
		{append([]string{"-delaymean=1e-05"}, serve...), "-delaymean 1e-05"},
		{append([]string{"-aggr=7"}, serve...), "-aggr 7"},
		{append([]string{"-stripe=4096"}, serve...), "-stripe 4096"},
		{append([]string{"-iofault=eio=0.5"}, serve...), "-iofault eio=0.5"},
		{append([]string{"-spans=/tmp/x.spans"}, serve...), "-spans /tmp/x.spans"},
		{append([]string{"-metrics=127.0.0.1:0"}, serve...), "-metrics 127.0.0.1:0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "nccdd: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"nccdd: \" line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: stdout %q", tc.args, stdout.String())
		}
	}
}

// TestNoSelfHealFlag: healing is -ckpt's alone; -selfheal is not a flag,
// and neither is -crashat (a scheduled crash is the in-process figures'),
// -trace (the launcher renders the trace from -spans files) or -dash
// (every -metrics listener serves /dash).
func TestNoSelfHealFlag(t *testing.T) {
	for _, flag := range []string{"-selfheal", "-crashat", "-trace", "-dash"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-rank", "0", "-n", "1", "-addrs", "127.0.0.1:1", flag}
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 refusing %s", args, code, stderr.String(), flag)
		}
	}
}
