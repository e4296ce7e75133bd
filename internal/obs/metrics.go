package obs

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics registry: cheap always-on counters and fixed-bucket
// histograms, plus snapshot functions for subsystems that already keep
// their own typed counters (the plan cache, the TCP endpoint).  Counters
// and histograms are single atomic adds on the hot path — cheap enough to
// stay unconditional — while snapshot functions are evaluated only when a
// snapshot is taken (the nccdd debug endpoint, a test, a report).

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count: bucket i counts observations v
// with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).  63 buckets cover the
// whole int64 range, so no observation is ever out of bounds.
const histBuckets = 63

// Histogram is a fixed power-of-two-bucket histogram of int64 observations
// (message sizes, pack volumes).  Observe is two atomic adds plus one
// bucket add.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one observation.  Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Smallest i with 2^i >= v.
	i := 0
	for vv := v - 1; vv > 0; vv >>= 1 {
		i++
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// BucketCount is one non-empty histogram bucket: N observations with value
// <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time view of a histogram, with empty
// buckets omitted.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: int64(1) << uint(i), N: n})
		}
	}
	return s
}

// Registry names and snapshots a process's metrics.  Counter and Histogram
// are get-or-create, so hot paths grab their metric once at package init
// and pay only the atomic add per operation; the map is never touched on
// the hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() any),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc installs (or replaces) a snapshot function evaluated at
// Snapshot time.  The returned value must be JSON-marshalable.
func (r *Registry) RegisterFunc(name string, f func() any) {
	r.mu.Lock()
	r.funcs[name] = f
	r.mu.Unlock()
}

// Unregister removes a snapshot function.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.funcs, name)
	r.mu.Unlock()
}

// Snapshot returns every metric's current value keyed by name: counters as
// int64, histograms as HistogramSnapshot, snapshot functions evaluated.
// The result marshals directly as the debug endpoint's JSON body.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string]func() any, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.RUnlock()

	out := make(map[string]any, len(counters)+len(hists)+len(funcs))
	for n, c := range counters {
		out[n] = c.Load()
	}
	for n, h := range hists {
		out[n] = h.Snapshot()
	}
	for n, f := range funcs {
		out[n] = f()
	}
	addRankTotals(out)
	return out
}

// rankMetric splits a per-rank metric name ("transport.tcp.rank3.frames")
// into its base form with the rank component removed; jobMetric does the
// same for the per-job component of multi-tenant service metrics
// ("mpi.comm_matrix.job7.total").
var (
	rankMetric = regexp.MustCompile(`^(.*)\.rank\d+($|\..*)`)
	jobMetric  = regexp.MustCompile(`^(.*)\.job\d+($|\..*)`)
)

// addRankTotals folds per-rank metric families into aggregate entries: for
// every family of names differing only in a ".rankN" component, a
// "<base>.total" entry is added holding the field-wise sum.  Raw per-rank
// entries are kept; the totals ride alongside so a dashboard reading a
// many-rank snapshot does not have to know the world size.  Values are
// JSON-round-tripped before summing, so typed snapshot-function results
// aggregate the same way they marshal.
//
// Per-job families fold the same way, in two layers: the rank pass turns
// "mpi.comm_matrix.job7.rank1" into "mpi.comm_matrix.job7.total" (sum over
// the job's ranks), and the job pass then folds the per-job totals across
// jobs into "mpi.comm_matrix.total" — so one snapshot answers both "how
// much did job 7 move" and "how much did the service move".
func addRankTotals(out map[string]any) {
	foldFamilies(out, rankMetric)
	foldFamilies(out, jobMetric)
}

// foldFamilies adds a "<base>.total" sum for every family of names
// differing only in the component matched by re.  Existing entries are
// never overwritten.
func foldFamilies(out map[string]any, re *regexp.Regexp) {
	groups := make(map[string][]any)
	for name, v := range out {
		m := re.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		base := m[1] + m[2] + ".total"
		// Collapse a doubled ".total.total" when the matched component was
		// already followed by ".total" (the job pass over rank totals).
		base = strings.ReplaceAll(base, ".total.total", ".total")
		groups[base] = append(groups[base], v)
	}
	for base, vals := range groups {
		if _, taken := out[base]; taken || len(vals) == 0 {
			continue
		}
		total := toJSON(vals[0])
		for _, v := range vals[1:] {
			total = sumJSON(total, toJSON(v))
		}
		out[base] = total
	}
}

// toJSON normalizes a value to the generic JSON shape (map[string]any,
// []any, float64, ...) so heterogeneous typed values sum structurally.
func toJSON(v any) any {
	b, err := json.Marshal(v)
	if err != nil {
		return v
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return v
	}
	return out
}

// sumJSON adds two generic JSON values field-wise: numbers add, objects
// merge recursively, arrays add element-wise (trailing elements of the
// longer array are kept), anything else keeps the first value.
func sumJSON(a, b any) any {
	switch av := a.(type) {
	case float64:
		if bv, ok := b.(float64); ok {
			return av + bv
		}
	case map[string]any:
		if bv, ok := b.(map[string]any); ok {
			for k, v := range bv {
				if cur, ok := av[k]; ok {
					av[k] = sumJSON(cur, v)
				} else {
					av[k] = v
				}
			}
			return av
		}
	case []any:
		if bv, ok := b.([]any); ok {
			n := len(av)
			if len(bv) > n {
				n = len(bv)
			}
			out := make([]any, n)
			for i := 0; i < n; i++ {
				switch {
				case i >= len(av):
					out[i] = bv[i]
				case i >= len(bv):
					out[i] = av[i]
				default:
					out[i] = sumJSON(av[i], bv[i])
				}
			}
			return out
		}
	}
	return a
}

// WriteSnapshotFile writes the registry's JSON snapshot to path, the
// offline counterpart of the ServeMetrics debug endpoint.
func (r *Registry) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Metrics is the process-global registry.
var Metrics = NewRegistry()
