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
	for _, extension := range []string{"ABLATE-", "-AMR:"} {
		if strings.Contains(stdout.String(), extension) {
			t.Errorf("-fig all printed the %s extension tables", extension)
		}
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
