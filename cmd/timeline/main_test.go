package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsTwoWithOneLine: a chart of no ranks or no columns is one
// stderr line and exit 2, with no world built.
func TestBadInputExitsTwoWithOneLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // what the line must name
	}{
		{[]string{"-ranks", "0"}, "-ranks 0"},
		{[]string{"-ranks", "-4"}, "-ranks -4"},
		{[]string{"-width", "0"}, "-width 0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "timeline: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"timeline: \" line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: stdout %q", tc.args, stdout.String())
		}
	}
}

// TestChartsBothAlgorithms: the smallest ring draws a chart per algorithm
// whose horizons are the ones the virtual clock has always given, a lane per
// rank, and the analyzer matches every message.
func TestChartsBothAlgorithms(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ranks", "8", "-width", "40", "-analyze"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"horizon: 46.4 us", "horizon: 12.3 us", "rank   7 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "0 unmatched sends, 0 unmatched recvs"); got != 2 {
		t.Errorf("%d of 2 analyzer reports match every message:\n%s", got, out)
	}
}
