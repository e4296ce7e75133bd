package obs

import (
	"path/filepath"
	"testing"
)

func nestedSpans() []Span {
	return []Span{
		// rank 0 virtual: outer solve containing two inner phases, plus an
		// instant between them and a zero-duration span (also an instant).
		{Rank: 0, Kind: "solve", Start: 0, End: 10, Clock: ClockVirtual},
		{Rank: 0, Kind: "smooth", Start: 1, End: 4, Clock: ClockVirtual},
		{Rank: 0, Kind: "retransmit", Start: 4.5, End: 4.5, Clock: ClockVirtual},
		{Rank: 0, Kind: "restrict", Start: 5, End: 9, Clock: ClockVirtual},
		// Same-timestamp nesting: outer opens at 5 too (shorter inner already
		// present above; here inner closes exactly when outer closes).
		{Rank: 0, Kind: "pack", Start: 5, End: 9, Clock: ClockVirtual},
		// rank 1 wall lane.
		{Rank: 1, Kind: "tcp_send", Start: 0.5, End: 0.7, Clock: ClockWall, Peer: 0, Tag: 3, Bytes: 128},
	}
}

func TestWriteValidateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeTraceFile(path, nestedSpans(), 0); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(evs); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	counts := CountEvents(evs)
	for _, kind := range []string{"solve", "smooth", "restrict", "pack", "retransmit", "tcp_send"} {
		if counts[kind] == 0 {
			t.Fatalf("kind %q missing from trace (counts %v)", kind, counts)
		}
	}
	// Metadata must name every populated lane.
	lanes := 0
	for i := range evs {
		if evs[i].Ph == "M" && evs[i].Name == "thread_name" {
			lanes++
		}
	}
	if lanes != 2 { // rank 0 virtual, rank 1 wall
		t.Fatalf("got %d lane metadata events, want 2", lanes)
	}
}

func TestValidateRejectsCorruptTraces(t *testing.T) {
	cases := []struct {
		name string
		evs  []chromeEvent
	}{
		{"unknown phase", []chromeEvent{{Name: "x", Ph: "Z", Ts: 0}}},
		{"empty name", []chromeEvent{{Name: "", Ph: "B", Ts: 0}}},
		{"backwards ts", []chromeEvent{
			{Name: "a", Ph: "B", Ts: 5}, {Name: "a", Ph: "E", Ts: 6},
			{Name: "b", Ph: "B", Ts: 2}, {Name: "b", Ph: "E", Ts: 3},
		}},
		{"unbalanced end", []chromeEvent{{Name: "a", Ph: "E", Ts: 0}}},
		{"unclosed begin", []chromeEvent{{Name: "a", Ph: "B", Ts: 0}}},
		{"mismatched nesting", []chromeEvent{
			{Name: "a", Ph: "B", Ts: 0}, {Name: "b", Ph: "B", Ts: 1},
			{Name: "a", Ph: "E", Ts: 2}, {Name: "b", Ph: "E", Ts: 3},
		}},
	}
	for _, tc := range cases {
		if err := ValidateChromeTrace(tc.evs); err == nil {
			t.Errorf("%s: validator accepted a corrupt trace", tc.name)
		}
	}
}

// TestChromeExportShmLanes exports a mixed shm/tcp wall-clock trace and
// checks the shm spans land on the wall lane of their rank (tid =
// wallTidBase + rank), identity attrs included, and validate cleanly.
func TestChromeExportShmLanes(t *testing.T) {
	spans := []Span{
		{Rank: 0, Kind: "shm_send", Peer: 1, Bytes: 64, Start: 1.0, End: 1.001,
			Clock: ClockWall, Attrs: []Attr{{Key: "ctx", Val: "ab"}, {Key: "mseq", Val: "3"}}},
		{Rank: 1, Kind: "shm_recv", Peer: 0, Bytes: 64, Start: 1.002, End: 1.002, Clock: ClockWall},
		{Rank: 1, Kind: "tcp_send", Peer: 2, Bytes: 32, Start: 1.003, End: 1.004, Clock: ClockWall},
	}
	path := filepath.Join(t.TempDir(), "shm.json")
	if err := WriteChromeTraceFile(path, spans, 0); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(evs); err != nil {
		t.Fatalf("shm trace fails validation: %v", err)
	}
	found := 0
	for i := range evs {
		if evs[i].Ph == "M" {
			continue
		}
		switch evs[i].Name {
		case "shm_send":
			if evs[i].Tid != wallTidBase {
				t.Fatalf("shm_send on tid %d, want %d", evs[i].Tid, wallTidBase)
			}
			if evs[i].Ph == "B" && evs[i].Args["mseq"] != "3" {
				t.Fatalf("shm_send lost identity args: %v", evs[i].Args)
			}
			found++
		case "shm_recv", "tcp_send":
			if evs[i].Tid != wallTidBase+1 {
				t.Fatalf("%s on tid %d, want %d", evs[i].Name, evs[i].Tid, wallTidBase+1)
			}
			found++
		}
	}
	if found < 3 {
		t.Fatalf("only %d of 3 wall spans exported", found)
	}
}
