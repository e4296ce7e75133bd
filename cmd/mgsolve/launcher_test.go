package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
)

// TestKillTrigger feeds both supervisors' triggers daemon lines, no
// process involved.  -chaos kills its victim at epoch 0's iteration
// ckptevery+1, whether or not a checkpoint ever committed (no line reports
// one), once, and never on another rank's line; the first line of a later
// epoch stops the MTTR clock.  -servestress kills the last rank at rank 0's
// huge-job cycle 6.
func TestKillTrigger(t *testing.T) {
	const victim, every = 2, 3
	var kills []int
	trig := chaosTrigger(victim, every, func(r int) { kills = append(kills, r) })
	for it := 1; it <= every; it++ {
		trig.feed(victim, fmt.Sprintf("CYCLE 0 %d", it))
	}
	for r := 0; r < 4; r++ {
		if r != victim {
			trig.feed(r, fmt.Sprintf("CYCLE 0 %d", every+1))
		}
	}
	if killed, _ := trig.fired(); len(kills) != 0 || killed {
		t.Fatalf("killed %v before the victim reported iteration %d", kills, every+1)
	}
	trig.feed(victim, fmt.Sprintf("CYCLE 0 %d", every+1))
	trig.feed(victim, fmt.Sprintf("CYCLE 0 %d", every+2))
	trig.feed(victim, fmt.Sprintf("CYCLE 0 %d", every+1))
	if killed, _ := trig.fired(); len(kills) != 1 || kills[0] != victim || !killed {
		t.Fatalf("kills %v, want rank %d once", kills, victim)
	}
	if _, mttr := trig.fired(); mttr != 0 {
		t.Fatalf("MTTR %v before any epoch-1 line", mttr)
	}
	trig.feed(0, "wire: 1 frames sent")
	if !trig.resumedAt.IsZero() {
		t.Fatal("a line that is no CYCLE line stopped the MTTR clock")
	}
	trig.feed(0, "CYCLE 1 1")
	stopped := trig.resumedAt
	if stopped.IsZero() || stopped.Before(trig.killedAt) {
		t.Fatalf("first epoch-1 line did not stop the MTTR clock (killed %v, resumed %v)", trig.killedAt, stopped)
	}
	trig.feed(victim, "CYCLE 1 2")
	if trig.resumedAt != stopped || len(kills) != 1 {
		t.Fatalf("later lines moved the MTTR clock or killed again (kills %v)", kills)
	}

	const n = 4
	var huge atomic.Uint64
	kills = nil
	serve := serveTrigger(n, &huge, func(r int) { kills = append(kills, r) })
	serve.feed(0, "EVENT JOB 7 cycle 6") // the huge job's id is not known yet
	huge.Store(7)
	serve.feed(0, "EVENT JOB 7 cycle 5")
	serve.feed(0, "EVENT JOB 8 cycle 6")
	serve.feed(1, "EVENT JOB 7 cycle 6")
	if len(kills) != 0 {
		t.Fatalf("killed %v before rank 0 reported the huge job's cycle 6", kills)
	}
	serve.feed(0, "EVENT JOB 7 cycle 6")
	serve.feed(0, "EVENT JOB 7 cycle 7")
	if killed, _ := serve.fired(); len(kills) != 1 || kills[0] != n-1 || !killed {
		t.Fatalf("kills %v, want rank %d once", kills, n-1)
	}
}

// TestMergeSpansAlignsWall: two ranks whose tracers' wall epochs differ by
// 100 s land on one axis, rank 1's first wall span at rank 0's, each rank
// keeping the deltas within its own file; a virtual span stays where it
// was, and the drop counts add up.
func TestMergeSpansAlignsWall(t *testing.T) {
	files := []obs.SpanFile{
		{Dropped: 1, Spans: []obs.Span{
			{Rank: 0, Kind: "tcp_send", Start: 100.0, End: 100.5, Clock: obs.ClockWall},
			{Rank: 0, Kind: "compute", Start: 1, End: 2, Clock: obs.ClockVirtual},
			{Rank: 0, Kind: "tcp_recv", Start: 100.75, End: 101, Clock: obs.ClockWall},
		}},
		{Dropped: 2, Spans: []obs.Span{
			{Rank: 1, Kind: "tcp_recv", Start: 200.25, End: 200.75, Clock: obs.ClockWall},
			{Rank: 1, Kind: "compute", Start: 3, End: 4, Clock: obs.ClockVirtual},
			{Rank: 1, Kind: "tcp_send", Start: 201.25, End: 201.25, Clock: obs.ClockWall},
		}},
	}
	spans, dropped := mergeSpans(files)
	want := []obs.Span{
		{Rank: 0, Kind: "tcp_send", Start: 100.0, End: 100.5, Clock: obs.ClockWall},
		{Rank: 0, Kind: "compute", Start: 1, End: 2, Clock: obs.ClockVirtual},
		{Rank: 0, Kind: "tcp_recv", Start: 100.75, End: 101, Clock: obs.ClockWall},
		{Rank: 1, Kind: "tcp_recv", Start: 100.0, End: 100.5, Clock: obs.ClockWall},
		{Rank: 1, Kind: "compute", Start: 3, End: 4, Clock: obs.ClockVirtual},
		{Rank: 1, Kind: "tcp_send", Start: 101.0, End: 101.0, Clock: obs.ClockWall},
	}
	if dropped != 3 || !reflect.DeepEqual(spans, want) {
		t.Fatalf("merged %v (dropped %d), want %v (dropped 3)", spans, dropped, want)
	}

	// The merged spans render as one valid trace, every rank on pid 0.
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if code := finishTrace(files, analyze.Options{Wall: true, Ranks: 2}, path, false, &stdout, &stderr); code != 0 {
		t.Fatalf("finishTrace exit %d: %s", code, stderr.String())
	}
	evs, err := obs.ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make(map[[2]int]bool)
	for _, e := range evs {
		if e.Ph == "M" {
			lanes[[2]int{e.Pid, e.Tid}] = true
		}
	}
	for _, tid := range []int{0, 1, 1000, 1001} {
		if !lanes[[2]int{0, tid}] {
			t.Errorf("no lane pid 0 tid %d among %v", tid, lanes)
		}
	}
}
