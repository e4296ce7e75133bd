package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"nccd/internal/obs"
)

// span is one timed call into a public function of the program, recorded
// by the harness from outside.  Spans of one op share its id; parent is
// the index of the enclosing span, -1 at the root.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int
	rank       int
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent, op, rank int) int {
	t.spans = append(t.spans, span{name, start, end, parent, op, rank})
	return len(t.spans) - 1
}

// timed runs fn as a child span of parent and returns the new span's index.
func (t *tracer) timed(name string, parent, op, rank int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, start, time.Now(), parent, op, rank)
}

// writeChrome writes the spans as Chrome trace-event JSON in the form the
// repo's own tooling reads (obs.ValidateChromeTraceFile, cmd/timeline).
func (t *tracer) writeChrome(path string) error {
	if len(t.spans) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	t0 := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	out := make([]obs.Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = obs.Span{
			Rank: s.rank, Kind: s.name, Peer: -1, Clock: obs.ClockWall,
			Start: s.start.Sub(t0).Seconds(), End: s.end.Sub(t0).Seconds(),
			Attrs: []obs.Attr{
				{Key: "op", Val: strconv.Itoa(s.op)},
				{Key: "parent", Val: strconv.Itoa(s.parent)},
			},
		}
	}
	return obs.WriteChromeTraceFile(path, out, 0)
}

// budgetRow is one span name's line of the layer budget.
type budgetRow struct {
	name, parent   string
	count          int
	p10Us, selfUs  float64
	shareOfRootPct float64
}

// budget folds the spans into one row per name: count, lower-decile
// duration, self time and the self time's share of the root span it nests
// under.  Self time is the lower decile of a name's durations minus the
// lower decile of what its children cover; children that overlap in time,
// such as the jobs of a batch, cover their union.
func (t *tracer) budget() []budgetRow {
	type interval struct{ lo, hi time.Time }
	kids := make(map[int][]interval)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	covered := func(iv []interval) float64 {
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo.Before(iv[b].lo) })
		total := 0.0
		for i := 0; i < len(iv); {
			lo, hi := iv[i].lo, iv[i].hi
			for i++; i < len(iv) && !iv[i].lo.After(hi); i++ {
				if iv[i].hi.After(hi) {
					hi = iv[i].hi
				}
			}
			total += usOf(hi.Sub(lo))
		}
		return total
	}
	rootOf := func(i int) int {
		for t.spans[i].parent >= 0 {
			i = t.spans[i].parent
		}
		return i
	}
	type acc struct {
		durs, covers []float64
		root, parent string
	}
	byName := map[string]*acc{}
	var order []string
	for i, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &acc{root: t.spans[rootOf(i)].name}
			if s.parent >= 0 {
				a.parent = t.spans[s.parent].name
			}
			byName[s.name] = a
			order = append(order, s.name)
		}
		a.durs = append(a.durs, usOf(s.end.Sub(s.start)))
		a.covers = append(a.covers, covered(kids[i]))
	}
	sort.Strings(order)
	rows := make([]budgetRow, 0, len(order))
	for _, name := range order {
		a := byName[name]
		row := budgetRow{name: name, parent: a.parent, count: len(a.durs), p10Us: p10(a.durs)}
		row.selfUs = row.p10Us - p10(a.covers)
		if r := byName[a.root]; r != nil && p10(r.durs) > 0 {
			// Every instance of this name under one root instance counts
			// towards that root's time.
			perRoot := float64(len(a.durs)) / float64(len(r.durs))
			row.shareOfRootPct = 100 * row.selfUs * perRoot / p10(r.durs)
		}
		rows = append(rows, row)
	}
	return rows
}

// shortParents lists the nested chains in which a parent's lower decile
// is more than 5% below its child's: spans measured from outside are
// separate calls, so only noise or a wrong nesting can make that happen.
func shortParents(rows []budgetRow) []string {
	p10Of := map[string]float64{}
	for _, r := range rows {
		p10Of[r.name] = r.p10Us
	}
	var bad []string
	for _, r := range rows {
		if r.parent != "" && p10Of[r.parent] < 0.95*r.p10Us {
			bad = append(bad, fmt.Sprintf("%s (%.1f us) is shorter than its child %s (%.1f us)", r.parent, p10Of[r.parent], r.name, r.p10Us))
		}
	}
	return bad
}

// printBudget renders the layer budget table of a traced run.
func printBudget(w io.Writer, workload string, rows []budgetRow) {
	fmt.Fprintf(w, "layer budget, %s (times are lower deciles)\n", workload)
	fmt.Fprintf(w, "  %-34s %8s %12s %12s %9s\n", "span", "count", "p10 us", "self us", "% of op")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %8d %12.1f %12.1f %8.1f%%\n", r.name, r.count, r.p10Us, r.selfUs, r.shareOfRootPct)
	}
}
