package analyze_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
	"nccd/internal/simnet"
)

func span(rank int, kind string, peer, tag int, bytes int64, start, end float64, attrs ...obs.Attr) obs.Span {
	return obs.Span{Rank: rank, Kind: kind, Peer: peer, Tag: tag, Bytes: bytes,
		Start: start, End: end, Clock: obs.ClockVirtual, Attrs: attrs}
}

// TestSyntheticMatchAndCriticalPath hand-builds a two-rank trace: rank 0
// computes 1s then sends; rank 1 posts its receive immediately and waits
// the full second.  The message must match, the wait must classify as
// Late Sender blamed on rank 0, and the critical path must run through
// rank 0's compute into rank 1's receive.
func TestSyntheticMatchAndCriticalPath(t *testing.T) {
	spans := []obs.Span{
		span(0, "compute", -1, 0, 0, 0, 1.0),
		span(0, "send", 1, 7, 100, 1.0, 1.1,
			obs.Attr{Key: "to", Val: "1"}, obs.Attr{Key: "ctx", Val: "ab"},
			obs.Attr{Key: "mseq", Val: "1"}),
		span(1, "recv", 0, 7, 100, 0.0, 1.2,
			obs.Attr{Key: "from", Val: "0"}, obs.Attr{Key: "ctx", Val: "ab"},
			obs.Attr{Key: "mseq", Val: "1"}, obs.Attr{Key: "wait", Val: "1.1"}),
	}
	rep := analyze.Analyze(spans, analyze.Options{})
	if rep.Ranks != 2 {
		t.Fatalf("ranks = %d", rep.Ranks)
	}
	if rep.Sends != 1 || rep.Recvs != 1 || rep.Matched != 1 || rep.MatchRate != 1 {
		t.Fatalf("matching: %d/%d sends matched, %d recvs", rep.Matched, rep.Sends, rep.Recvs)
	}
	if rep.Matrix.Bytes[0][1] != 100 || rep.Matrix.Msgs[0][1] != 1 {
		t.Fatalf("matrix cell [0][1] = %d B / %d msgs", rep.Matrix.Bytes[0][1], rep.Matrix.Msgs[0][1])
	}
	if math.Abs(rep.Wait.LateSenderSec-1.1) > 1e-9 || math.Abs(rep.Wait.RootBlameSec[0]-1.1) > 1e-9 {
		t.Fatalf("wait: late-sender %g, root blame %v", rep.Wait.LateSenderSec, rep.Wait.RootBlameSec)
	}
	// Critical path: rank0 compute (1.0) + send (0.1) + rank1 recv (1.2,
	// its whole duration — virtual recv spans fold the wait in).
	if math.Abs(rep.CritPath.LengthSec-2.3) > 1e-9 {
		t.Fatalf("critical path %g, want 2.3", rep.CritPath.LengthSec)
	}
	if rep.CritPath.PerRankSec[0] <= 0 || rep.CritPath.PerRankSec[1] <= 0 {
		t.Fatalf("per-rank attribution %v", rep.CritPath.PerRankSec)
	}

	// The report must survive a JSON round trip (it is served by nccdd).
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatal(err)
	}
	rep.Render(&buf)
}

// TestUnmatchedSendDetected drops the recv side and expects the analyzer
// to flag the send as unmatched.
func TestUnmatchedSendDetected(t *testing.T) {
	spans := []obs.Span{
		span(0, "send", 1, 7, 64, 0, 0.1,
			obs.Attr{Key: "to", Val: "1"}, obs.Attr{Key: "ctx", Val: "ab"},
			obs.Attr{Key: "mseq", Val: "1"}),
	}
	rep := analyze.Analyze(spans, analyze.Options{Ranks: 2})
	if rep.UnmatchedSends != 1 || rep.Matched != 0 {
		t.Fatalf("unmatched sends %d, matched %d", rep.UnmatchedSends, rep.Matched)
	}
}

// TestCollectiveImbalanceAttribution puts a waiting recv inside an
// allgatherv container span; its wait must land in the collective
// imbalance bucket, not Late Sender.
func TestCollectiveImbalanceAttribution(t *testing.T) {
	spans := []obs.Span{
		span(1, "recv", 0, 3, 10, 0.0, 0.5,
			obs.Attr{Key: "from", Val: "0"}, obs.Attr{Key: "ctx", Val: "1"},
			obs.Attr{Key: "mseq", Val: "1"}, obs.Attr{Key: "wait", Val: "0.5"}),
		span(1, "allgatherv", -1, 0, 0, 0.0, 0.6),
	}
	rep := analyze.Analyze(spans, analyze.Options{Ranks: 2})
	if rep.Wait.CollImbalanceSec["allgatherv"] != 0.5 || rep.Wait.LateSenderSec != 0 {
		t.Fatalf("imbalance %v, late-sender %g",
			rep.Wait.CollImbalanceSec, rep.Wait.LateSenderSec)
	}
}

// TestLocalPartIsWorkNotTraffic traces an all-pairs Alltoallw in which every
// rank also keeps a slot for itself, under both algorithms.  The matrix
// derived from the trace must equal the world's own CommMatrix, diagonal
// zero, with every message matched; and the local copy must sit on the rank's
// timeline as work of its own, where the critical path finds it.
func TestLocalPartIsWorkNotTraffic(t *testing.T) {
	const n, slot = 3, 64
	for _, cfg := range []mpi.Config{mpi.Baseline(), mpi.Compiled()} {
		w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
		w.EnableTrace()
		err := w.Run(func(c *mpi.Comm) error {
			specs := make([]mpi.TypeSpec, n)
			for r := range specs {
				specs[r] = mpi.TypeSpec{Type: mpi.Bytes(slot), Count: 1, Displ: r * slot}
			}
			c.Alltoallw(make([]byte, n*slot), specs, make([]byte, n*slot), specs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := analyze.Analyze(w.Tracer().Spans(), analyze.Options{Ranks: n})
		if rep.Sends != n*(n-1) || rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
			t.Fatalf("%v: %d sends, %d and %d unmatched; want %d, all matched",
				cfg.Alltoallw, rep.Sends, rep.UnmatchedSends, rep.UnmatchedRecvs, n*(n-1))
		}
		cm := w.CommMatrix()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				want := int64(slot)
				if s == d {
					want = 0
				}
				if rep.Matrix.Bytes[s][d] != want || cm.Bytes[s][d] != want || rep.Matrix.Msgs[s][d] != cm.Msgs[s][d] {
					t.Errorf("%v: cell [%d][%d]: trace %d B / %d msgs, world %d B / %d msgs, want %d B",
						cfg.Alltoallw, s, d, rep.Matrix.Bytes[s][d], rep.Matrix.Msgs[s][d], cm.Bytes[s][d], cm.Msgs[s][d], want)
				}
			}
		}
		if rep.CritPath.PerKindSec["localcopy"] <= 0 {
			t.Errorf("%v: critical path %v has no local copy on it", cfg.Alltoallw, rep.CritPath.PerKindSec)
		}
	}
}

// TestLateSenderRootCause runs a real four-rank virtual world where rank 2
// is four times slower than the others, with ring exchanges after each
// compute block.  At least 80% of the measured wait time must be blamed on
// rank 2 by the root-cause walk — the acceptance bar for the wait-state
// analysis: direct blame would spread over the ring neighbors.
func TestLateSenderRootCause(t *testing.T) {
	const n = 4
	cl := simnet.Uniform(n, simnet.IBDDR())
	cl.Speed = []float64{1, 1, 0.25, 1}
	w := mpi.NewWorld(cl, mpi.Config{})
	w.EnableTrace()
	err := w.Run(func(c *mpi.Comm) error {
		me := c.Rank()
		buf := make([]byte, 512)
		for round := 0; round < 5; round++ {
			c.Compute(0.01)
			right := (me + 1) % n
			left := (me + n - 1) % n
			c.Send(right, 7, buf)
			c.Recv(left, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze.Analyze(w.Tracer().Spans(), analyze.Options{Ranks: n})
	if rep.Sends == 0 || rep.MatchRate != 1 {
		t.Fatalf("matching: %d sends, rate %g (unmatched %d)",
			rep.Sends, rep.MatchRate, rep.UnmatchedSends)
	}
	total := rep.Wait.TotalSec
	if total <= 0 {
		t.Fatal("no wait time measured")
	}
	blamed := rep.Wait.RootBlameSec[2]
	if blamed < 0.8*total {
		t.Fatalf("root blame on slow rank 2: %.4gs of %.4gs (%.0f%%), want >= 80%%",
			blamed, total, 100*blamed/total)
	}
	// The slow rank must also dominate the critical path.
	if rep.CritPath.PerRankSec[2] < rep.CritPath.PerRankSec[0] {
		t.Fatalf("critical path per-rank %v: slow rank not dominant", rep.CritPath.PerRankSec)
	}
}

// TestNonuniformStats checks ratio and Gini on a known matrix: one pair
// carrying 4x the bytes of three others.
func TestNonuniformStats(t *testing.T) {
	var spans []obs.Span
	add := func(src, dst int, b int64, mseq string) {
		spans = append(spans, span(src, "send", dst, 1, b, 0, 0.01,
			obs.Attr{Key: "to", Val: []string{"0", "1", "2", "3"}[dst]},
			obs.Attr{Key: "ctx", Val: "1"}, obs.Attr{Key: "mseq", Val: mseq}))
	}
	add(0, 1, 400, "1")
	add(1, 2, 100, "1")
	add(2, 3, 100, "1")
	add(3, 0, 100, "1")
	rep := analyze.Analyze(spans, analyze.Options{Ranks: 4})
	st := rep.MatrixStats
	if st.Pairs != 4 || st.MaxBytes != 400 {
		t.Fatalf("pairs %d max %d", st.Pairs, st.MaxBytes)
	}
	want := 400.0 / 175.0
	if math.Abs(st.Ratio-want) > 1e-9 {
		t.Fatalf("ratio %g want %g", st.Ratio, want)
	}
	if st.Gini <= 0 || st.Gini >= 1 {
		t.Fatalf("gini %g out of range", st.Gini)
	}
}

// TestRankOutsideWorldSkipped: a span file read from disk can name any rank,
// and the lanes and matrices are sized by the world.  One span of rank 1<<40
// in a two-rank analysis ran the process out of memory; it is skipped and
// counted, as is every negative rank.
func TestRankOutsideWorldSkipped(t *testing.T) {
	spans := []obs.Span{
		span(0, "compute", -1, 0, 0, 0, 1),
		span(1<<40, "send", 1, 7, 64, 0, 0.1,
			obs.Attr{Key: "to", Val: "1"}, obs.Attr{Key: "ctx", Val: "ab"}, obs.Attr{Key: "mseq", Val: "1"}),
		span(-2, "compute", -1, 0, 0, 0, 1),
		span(-1, "compute", -1, 0, 0, 0, 1),
	}
	rep := analyze.Analyze(spans, analyze.Options{Ranks: 2})
	if rep.Ranks != 2 || rep.OutOfRange != 3 || rep.Sends != 0 || rep.Matrix.N != 2 {
		t.Fatalf("ranks %d, out of range %d, sends %d, matrix %d×%d; want 2, 3, 0, 2×2",
			rep.Ranks, rep.OutOfRange, rep.Sends, rep.Matrix.N, rep.Matrix.N)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "3 spans name a rank outside the 2-rank world") {
		t.Fatalf("report does not say what it skipped:\n%s", buf.String())
	}
}

// FuzzAnalyzeSpanFile: mgsolve -analyze reads per-rank span files from disk,
// so whatever decodes as an obs.SpanFile must analyze and render without a
// panic, in a world of one to eight ranks on either clock.
func FuzzAnalyzeSpanFile(f *testing.F) {
	file := func(spans []obs.Span) []byte {
		b, err := json.Marshal(obs.SpanFile{Dropped: 1, Spans: spans})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	w := mpi.NewWorld(simnet.Uniform(3, simnet.IBDDR()), mpi.Compiled())
	w.EnableTrace()
	if err := w.Run(func(c *mpi.Comm) error {
		c.Compute(0.001 * float64(c.Rank()))
		c.Send((c.Rank()+1)%3, 7, make([]byte, 64))
		c.Recv((c.Rank()+2)%3, 7)
		c.Barrier()
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(file(w.Tracer().Spans()), uint8(2))
	f.Add(file([]obs.Span{span(1<<40, "send", 1, 7, 64, 0, 0.1, obs.Attr{Key: "to", Val: "1"})}), uint8(1))
	f.Add([]byte(`{"spans":[{"Rank":1,"Kind":"recv","Start":1e308,"End":-1e308,"Attrs":[{"Key":"from","Val":"-5"},{"Key":"mseq","Val":"1"},{"Key":"wait","Val":"1e308"}]},{"Rank":0,"Kind":"alltoallw","End":1}]}`), uint8(9))
	f.Add([]byte(`{}`), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, world uint8) {
		var sf obs.SpanFile
		if json.Unmarshal(data, &sf) != nil {
			return
		}
		rep := analyze.Analyze(sf.Spans, analyze.Options{Ranks: 1 + int(world%8), Wall: world&8 != 0, Dropped: sf.Dropped})
		rep.Render(io.Discard)
	})
}
