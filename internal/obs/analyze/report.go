package analyze

import (
	"fmt"
	"io"
	"sort"

	"nccd/internal/obs"
)

// WaitStats aggregate the run's blocked time by wait-state class and by
// blamed rank.  Direct blame charges the matched sender; root blame follows
// wait chains to the rank that was actually busy (see rootBlame), which is
// the number to read when one slow rank drags a collective.
type WaitStats struct {
	TotalSec         float64            `json:"total_sec"`
	LateSenderSec    float64            `json:"late_sender_sec"`
	LateRecvSec      float64            `json:"late_receiver_sec"`
	CollImbalanceSec map[string]float64 `json:"coll_imbalance_sec"`
	DirectBlameSec   []float64          `json:"direct_blame_sec"`
	RootBlameSec     []float64          `json:"root_blame_sec"`
}

// CPStats describe the critical path: the longest causal chain of
// effective durations through the cross-rank DAG.
type CPStats struct {
	LengthSec  float64            `json:"length_sec"`
	Nodes      int                `json:"nodes"`
	PerRankSec []float64          `json:"per_rank_sec"`
	PerKindSec map[string]float64 `json:"per_kind_sec"`
}

// Report is a full cross-rank analysis.
type Report struct {
	Ranks   int   `json:"ranks"`
	Wall    bool  `json:"wall"`
	Dropped int64 `json:"dropped"`
	// OutOfRange counts the spans skipped for a rank outside Options.Ranks.
	OutOfRange int `json:"out_of_range"`

	Sends          int     `json:"sends"`
	Recvs          int     `json:"recvs"`
	Matched        int     `json:"matched"`
	UnmatchedSends int     `json:"unmatched_sends"`
	UnmatchedRecvs int     `json:"unmatched_recvs"`
	MatchRate      float64 `json:"match_rate"` // matched / sends

	Matrix        *Matrix                 `json:"matrix"`
	MatrixStats   MatrixStats             `json:"matrix_stats"`
	PerCollective map[string]*CollProfile `json:"per_collective"`
	Transport     TransportStats          `json:"transport"`
	Wait          WaitStats               `json:"wait"`
	CritPath      CPStats                 `json:"critical_path"`
}

// Analyze runs the full pass over a merged span set.
func Analyze(spans []obs.Span, opts Options) *Report {
	spans, outside := inRanks(spans, opts.Ranks)
	g := build(spans, opts)
	rep := &Report{Ranks: len(g.lanes), Wall: opts.Wall, Dropped: opts.Dropped, OutOfRange: outside}

	for i := range g.nodes {
		n := &g.nodes[i]
		switch n.span.Kind {
		case "send":
			rep.Sends++
			if n.match < 0 {
				rep.UnmatchedSends++
			} else {
				rep.Matched++
			}
		case "recv":
			rep.Recvs++
			if n.match < 0 {
				rep.UnmatchedRecvs++
			}
		}
	}
	if rep.Sends > 0 {
		rep.MatchRate = float64(rep.Matched) / float64(rep.Sends)
	}

	rep.Matrix, rep.PerCollective, rep.Transport = buildMatrix(g, spans)
	rep.MatrixStats = rep.Matrix.Stats()

	// Wait states.
	ws := WaitStats{
		CollImbalanceSec: make(map[string]float64),
		DirectBlameSec:   make([]float64, rep.Ranks),
		RootBlameSec:     make([]float64, rep.Ranks),
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.span.Kind == "recv" && n.wait > 0 {
			ws.TotalSec += n.wait
			if n.coll != "" {
				ws.CollImbalanceSec[n.coll] += n.wait
			} else {
				ws.LateSenderSec += n.wait
			}
			if n.from >= 0 && n.from < rep.Ranks {
				ws.DirectBlameSec[n.from] += n.wait
			}
			if r := g.rootBlame(n.id); r >= 0 && r < rep.Ranks {
				ws.RootBlameSec[r] += n.wait
			}
		}
		if n.span.Kind == "send" && n.rdvz > 0 {
			ws.TotalSec += n.rdvz
			ws.LateRecvSec += n.rdvz
			if n.to >= 0 && n.to < rep.Ranks {
				ws.DirectBlameSec[n.to] += n.rdvz
				ws.RootBlameSec[n.to] += n.rdvz
			}
		}
	}
	rep.Wait = ws

	cp, terminal := g.criticalPath()
	if terminal >= 0 {
		perRank, perKind, hops := g.walkPath(cp, terminal)
		rep.CritPath = CPStats{LengthSec: cp[terminal], Nodes: hops,
			PerRankSec: perRank, PerKindSec: perKind}
	}
	return rep
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	clock := "virtual"
	if r.Wall {
		clock = "wall"
	}
	fmt.Fprintf(w, "cross-rank analysis: %d ranks, %s clock\n", r.Ranks, clock)
	fmt.Fprintf(w, "  messages: %d sends, %d recvs, %d matched (%.1f%%), %d unmatched sends, %d unmatched recvs\n",
		r.Sends, r.Recvs, r.Matched, 100*r.MatchRate, r.UnmatchedSends, r.UnmatchedRecvs)
	if r.Dropped > 0 {
		fmt.Fprintf(w, "  WARNING: %d spans dropped by ring buffers; unmatched counts are not trustworthy\n", r.Dropped)
	}
	if r.OutOfRange > 0 {
		fmt.Fprintf(w, "  WARNING: %d spans name a rank outside the %d-rank world and were skipped\n", r.OutOfRange, r.Ranks)
	}

	st := r.MatrixStats
	fmt.Fprintf(w, "  traffic: %d bytes over %d pairs, nonuniformity ratio %.2f (max/mean), Gini %.3f\n",
		r.Matrix.TotalBytes(), st.Pairs, st.Ratio, st.Gini)
	if r.Transport.TCPMsgs+r.Transport.ShmMsgs > 0 {
		fmt.Fprintf(w, "  transport: tcp %d msgs / %d B, shm %d msgs / %d B, %d retransmits\n",
			r.Transport.TCPMsgs, r.Transport.TCPBytes,
			r.Transport.ShmMsgs, r.Transport.ShmBytes, r.Transport.Retransmits)
	}

	if len(r.PerCollective) > 0 {
		kinds := make([]string, 0, len(r.PerCollective))
		for k := range r.PerCollective {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "  collectives:\n")
		for _, k := range kinds {
			p := r.PerCollective[k]
			fmt.Fprintf(w, "    %-20s %4d inst, %6d msgs, %10d B, ratio %.2f, gini %.3f, wait %.4gs\n",
				k, p.Instances, p.Msgs, p.Bytes, p.Stats.Ratio, p.Stats.Gini, round3(p.WaitSec))
		}
	}

	ws := r.Wait
	fmt.Fprintf(w, "  wait states: total %.4gs — late-sender %.4gs, late-receiver %.4gs",
		round3(ws.TotalSec), round3(ws.LateSenderSec), round3(ws.LateRecvSec))
	var collW float64
	for _, v := range ws.CollImbalanceSec {
		collW += v
	}
	fmt.Fprintf(w, ", collective-imbalance %.4gs\n", round3(collW))
	if ws.TotalSec > 0 {
		fmt.Fprintf(w, "  blame (root-cause walk):")
		for rank, v := range ws.RootBlameSec {
			if v > 0 {
				fmt.Fprintf(w, " r%d=%.4gs(%.0f%%)", rank, round3(v), 100*v/ws.TotalSec)
			}
		}
		fmt.Fprintln(w)
	}

	cp := r.CritPath
	fmt.Fprintf(w, "  critical path: %.4gs over %d events\n", round3(cp.LengthSec), cp.Nodes)
	if cp.LengthSec > 0 {
		fmt.Fprintf(w, "    by rank:")
		for rank, v := range cp.PerRankSec {
			if v > 0 {
				fmt.Fprintf(w, " r%d=%.0f%%", rank, 100*v/cp.LengthSec)
			}
		}
		fmt.Fprintln(w)
		kinds := make([]string, 0, len(cp.PerKindSec))
		for k := range cp.PerKindSec {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "    by kind:")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%.0f%%", k, 100*cp.PerKindSec[k]/cp.LengthSec)
		}
		fmt.Fprintln(w)
	}

	// Small worlds get the full matrix.
	if r.Matrix.N <= 16 && r.Matrix.TotalBytes() > 0 {
		fmt.Fprintf(w, "  byte matrix (rows=src):\n")
		for i := 0; i < r.Matrix.N; i++ {
			fmt.Fprintf(w, "    r%-2d", i)
			for j := 0; j < r.Matrix.N; j++ {
				fmt.Fprintf(w, " %10d", r.Matrix.Bytes[i][j])
			}
			fmt.Fprintln(w)
		}
	}
}
