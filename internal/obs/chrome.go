package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Chrome trace-event export (the "JSON Array Format" Perfetto and
// chrome://tracing load).  Spans are stored complete in the rings and
// lowered to begin/end ("B"/"E") pairs only here, so the output is balanced
// by construction even after ring overwrites; instants become "i" events.
//
// Lane mapping: a rank's virtual-clock spans land on tid = rank, its
// wall-clock spans on tid = wallTidBase + rank.  Virtual and wall
// timestamps share a file but never share a lane, so within-lane ordering
// is always meaningful.  A multi-process run's spans arrive with their wall
// clocks already lined up across ranks (mgsolve does that before it
// renders), so one pid holds every rank.

const wallTidBase = 1000

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`    // instant scope
	Args map[string]string `json:"args,omitempty"` // annotations
}

// chromeFile is the on-disk wrapper object.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func spanTid(s *Span) int {
	if s.Clock == ClockWall {
		return wallTidBase + s.Rank
	}
	return s.Rank
}

func spanArgs(s *Span) map[string]string {
	var a map[string]string
	put := func(k, v string) {
		if a == nil {
			a = make(map[string]string, 4+len(s.Attrs))
		}
		a[k] = v
	}
	if s.Peer >= 0 {
		put("peer", strconv.Itoa(s.Peer))
	}
	if s.Tag != 0 {
		put("tag", strconv.Itoa(s.Tag))
	}
	if s.Bytes != 0 {
		put("bytes", strconv.FormatInt(s.Bytes, 10))
	}
	for _, at := range s.Attrs {
		put(at.Key, at.Val)
	}
	return a
}

// spanEvents lowers one span to its trace events.
func spanEvents(s *Span, pid int) []chromeEvent {
	tid := spanTid(s)
	args := spanArgs(s)
	ts := s.Start * 1e6
	if s.Instant() {
		return []chromeEvent{{Name: s.Kind, Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t", Args: args}}
	}
	return []chromeEvent{
		{Name: s.Kind, Ph: "B", Ts: ts, Pid: pid, Tid: tid, Args: args},
		{Name: s.Kind, Ph: "E", Ts: s.End * 1e6, Pid: pid, Tid: tid},
	}
}

// sortedEvent pairs a lowered event with the nesting keys the sort needs:
// the source span's duration and its emission index.
type sortedEvent struct {
	ev   chromeEvent
	dur  float64
	span int
}

// sortEvents orders events the way trace viewers (and our validator)
// require: per (pid, tid) by timestamp; at equal timestamps E before i
// before B so adjacent spans don't overlap; among same-timestamp Bs the
// longer (outer) span opens first, among Es the shorter (inner) closes
// first.  Identical intervals fall back on emission order — earlier-emitted
// opens first and closes last — which is arbitrary but consistent, so
// begin/end stay stack-balanced.
func sortEvents(evs []sortedEvent) {
	phOrder := func(ph string) int {
		switch ph {
		case "E":
			return 0
		case "i":
			return 1
		case "B":
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		x, y := &evs[a], &evs[b]
		if x.ev.Pid != y.ev.Pid {
			return x.ev.Pid < y.ev.Pid
		}
		if x.ev.Tid != y.ev.Tid {
			return x.ev.Tid < y.ev.Tid
		}
		if x.ev.Ts != y.ev.Ts {
			return x.ev.Ts < y.ev.Ts
		}
		if po, qo := phOrder(x.ev.Ph), phOrder(y.ev.Ph); po != qo {
			return po < qo
		}
		switch x.ev.Ph {
		case "B":
			if x.dur != y.dur {
				return x.dur > y.dur
			}
			return x.span < y.span
		case "E":
			if x.dur != y.dur {
				return x.dur < y.dur
			}
			return x.span > y.span
		}
		return false
	})
}

// laneMeta emits thread_name metadata so viewers label the lanes.
func laneMeta(evs []chromeEvent) []chromeEvent {
	type key struct{ pid, tid int }
	seen := make(map[key]bool)
	var meta []chromeEvent
	for i := range evs {
		k := key{evs[i].Pid, evs[i].Tid}
		if seen[k] {
			continue
		}
		seen[k] = true
		name := fmt.Sprintf("rank %d (virtual)", k.tid)
		if k.tid >= wallTidBase {
			name = fmt.Sprintf("rank %d (wall)", k.tid-wallTidBase)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]string{"name": name},
		})
	}
	return meta
}

// WriteChromeTrace lowers spans to Chrome trace-event JSON on w.  pid
// labels the process lane group (0 for single-process traces).
func WriteChromeTrace(w io.Writer, spans []Span, pid int) error {
	var sevs []sortedEvent
	for i := range spans {
		s := &spans[i]
		for _, e := range spanEvents(s, pid) {
			sevs = append(sevs, sortedEvent{ev: e, dur: s.End - s.Start, span: i})
		}
	}
	sortEvents(sevs)
	evs := make([]chromeEvent, len(sevs))
	for i := range sevs {
		evs[i] = sevs[i].ev
	}
	evs = append(laneMeta(evs), evs...)
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs})
}

// WriteChromeTraceFile writes spans as a Chrome trace to path.
func WriteChromeTraceFile(path string, spans []Span, pid int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans, pid); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChromeTraceFile parses a Chrome trace file written by this package
// (or any {"traceEvents": [...]} array-format file).
func ReadChromeTraceFile(path string) ([]chromeEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cf chromeFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cf.TraceEvents, nil
}
