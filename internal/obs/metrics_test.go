package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_sent").Add(3)
	r.Counter("frames_sent").Inc()
	r.Histogram("msg_bytes").Observe(100)
	r.Histogram("msg_bytes").Observe(1000)
	r.Histogram("msg_bytes").Observe(-5) // clamps to 0
	r.RegisterFunc("cache", func() any { return map[string]int{"hits": 7} })

	snap := r.Snapshot()
	if got := snap["frames_sent"]; got != int64(4) {
		t.Fatalf("frames_sent = %v, want 4", got)
	}
	h, ok := snap["msg_bytes"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("msg_bytes is %T", snap["msg_bytes"])
	}
	if h.Count != 3 || h.Sum != 1100 {
		t.Fatalf("histogram count/sum = %d/%d, want 3/1100", h.Count, h.Sum)
	}
	// 100 lands in the le=128 bucket, 1000 in le=1024, 0 in le=1.
	want := map[int64]int64{1: 1, 128: 1, 1024: 1}
	for _, b := range h.Buckets {
		if want[b.Le] != b.N {
			t.Fatalf("bucket le=%d n=%d, want %v", b.Le, b.N, want)
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Fatalf("missing buckets: %v", want)
	}

	r.Unregister("cache")
	if _, ok := r.Snapshot()["cache"]; ok {
		t.Fatal("Unregister left the snapshot func")
	}

	// The snapshot must be JSON-marshalable as-is (the HTTP body contract).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

// TestRankTotalAggregation checks that per-rank metric families gain a
// summed ".total" sibling: counters add, snapshot-func structs add
// field-wise through their JSON form, and non-rank names are untouched.
func TestRankTotalAggregation(t *testing.T) {
	type wire struct {
		Frames int64   `json:"frames"`
		Bytes  int64   `json:"bytes"`
		Rate   float64 `json:"rate"`
	}
	r := NewRegistry()
	r.RegisterFunc("transport.tcp.rank0", func() any { return wire{Frames: 3, Bytes: 100, Rate: 1.5} })
	r.RegisterFunc("transport.tcp.rank1", func() any { return wire{Frames: 5, Bytes: 200, Rate: 0.5} })
	r.Counter("transport.shm.rank0.drops").Add(2)
	r.Counter("transport.shm.rank3.drops").Add(7)
	r.Counter("plain_counter").Add(9)

	snap := r.Snapshot()
	tcp, ok := snap["transport.tcp.total"].(map[string]any)
	if !ok {
		t.Fatalf("transport.tcp.total is %T", snap["transport.tcp.total"])
	}
	if tcp["frames"] != float64(8) || tcp["bytes"] != float64(300) || tcp["rate"] != 2.0 {
		t.Fatalf("tcp total = %v", tcp)
	}
	if got := snap["transport.shm.drops.total"]; got != float64(9) {
		t.Fatalf("shm drops total = %v, want 9", got)
	}
	// Raw per-rank entries survive alongside.
	if _, ok := snap["transport.tcp.rank0"]; !ok {
		t.Fatal("raw per-rank entry removed")
	}
	if _, ok := snap["plain_counter.total"]; ok {
		t.Fatal("non-rank metric grew a total")
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("retransmits").Add(42)
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, body)
	}
	if got["retransmits"] != float64(42) {
		t.Fatalf("retransmits = %v, want 42", got["retransmits"])
	}
}

// TestJobTotalAggregation checks the two-layer service rollup: per-job
// per-rank comm matrices fold into a per-job ".total", and the per-job
// totals fold once more into the family-wide ".total" (the ".total.total"
// spelling is collapsed).
func TestJobTotalAggregation(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpi.comm_matrix.job7.rank0").Add(3)
	r.Counter("mpi.comm_matrix.job7.rank1").Add(4)
	r.Counter("mpi.comm_matrix.job9.rank1").Add(10)

	snap := r.Snapshot()
	if got := snap["mpi.comm_matrix.job7.total"]; got != float64(7) {
		t.Fatalf("job7 total = %v, want 7", got)
	}
	if got := snap["mpi.comm_matrix.job9.total"]; got != float64(10) {
		t.Fatalf("job9 total = %v, want 10", got)
	}
	if got := snap["mpi.comm_matrix.total"]; got != float64(17) {
		t.Fatalf("family total = %v, want 17", got)
	}
	if _, ok := snap["mpi.comm_matrix.total.total"]; ok {
		t.Fatal("collapsed .total.total spelling leaked into the snapshot")
	}
	// Raw per-job per-rank entries survive alongside the rollups.
	if _, ok := snap["mpi.comm_matrix.job7.rank0"]; !ok {
		t.Fatal("raw per-job entry removed")
	}
}
