package analyze

import (
	"math"
	"sort"

	"nccd/internal/obs"
)

// Matrix is a per-(source, destination) communication profile accumulated
// from spans: payload bytes and message counts from send spans,
// retransmissions from retransmit instants, receiver-blocked seconds from
// recv wait attributes.
type Matrix struct {
	N       int         `json:"n"`
	Bytes   [][]int64   `json:"bytes"`
	Msgs    [][]int64   `json:"msgs"`
	Retrans [][]int64   `json:"retrans"`
	WaitSec [][]float64 `json:"wait_sec"`
}

func newMatrix(n int) *Matrix {
	m := &Matrix{N: n,
		Bytes: make([][]int64, n), Msgs: make([][]int64, n),
		Retrans: make([][]int64, n), WaitSec: make([][]float64, n)}
	for i := 0; i < n; i++ {
		m.Bytes[i] = make([]int64, n)
		m.Msgs[i] = make([]int64, n)
		m.Retrans[i] = make([]int64, n)
		m.WaitSec[i] = make([]float64, n)
	}
	return m
}

func (m *Matrix) in(src, dst int) bool {
	return src >= 0 && src < m.N && dst >= 0 && dst < m.N
}

// TotalBytes sums every cell.
func (m *Matrix) TotalBytes() int64 {
	var t int64
	for _, row := range m.Bytes {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// MatrixStats are the nonuniformity statistics of a byte matrix, computed
// over the nonzero off-diagonal cells — the paper's measure of how far a
// communication pattern sits from the uniform all-to-all the classic
// algorithms assume.
type MatrixStats struct {
	Pairs    int     `json:"pairs"`     // nonzero off-diagonal cells
	MaxBytes int64   `json:"max_bytes"` // heaviest pair
	MeanB    float64 `json:"mean_bytes"`
	Ratio    float64 `json:"ratio"` // max/mean; 1 = perfectly uniform
	Gini     float64 `json:"gini"`  // 0 = uniform, →1 = one pair dominates
}

// Stats computes the nonuniformity statistics of m's byte matrix.
func (m *Matrix) Stats() MatrixStats {
	var cells []float64
	var max int64
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i == j || m.Bytes[i][j] == 0 {
				continue
			}
			cells = append(cells, float64(m.Bytes[i][j]))
			if m.Bytes[i][j] > max {
				max = m.Bytes[i][j]
			}
		}
	}
	st := MatrixStats{Pairs: len(cells), MaxBytes: max}
	if len(cells) == 0 {
		return st
	}
	sum := 0.0
	for _, v := range cells {
		sum += v
	}
	st.MeanB = sum / float64(len(cells))
	if st.MeanB > 0 {
		st.Ratio = float64(max) / st.MeanB
	}
	// Gini via the sorted-rank identity: G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n.
	sort.Float64s(cells)
	n := float64(len(cells))
	var ranked float64
	for i, v := range cells {
		ranked += float64(i+1) * v
	}
	st.Gini = 2*ranked/(n*sum) - (n+1)/n
	if st.Gini < 0 {
		st.Gini = 0
	}
	return st
}

// CollProfile is one collective kind's aggregate communication profile:
// how many container instances ran, the traffic sent from inside them, and
// the nonuniformity of that traffic.
type CollProfile struct {
	Instances int         `json:"instances"`
	Msgs      int64       `json:"msgs"`
	Bytes     int64       `json:"bytes"`
	WaitSec   float64     `json:"wait_sec"` // receive waits inside the container
	Stats     MatrixStats `json:"stats"`
}

// TransportStats split a wall-clock run's traffic by transport, from the
// ClockWall spans the transports emit: the shm bytes are the intra-node
// traffic that never touched a socket.
type TransportStats struct {
	TCPMsgs     int64 `json:"tcp_msgs"`
	TCPBytes    int64 `json:"tcp_bytes"`
	ShmMsgs     int64 `json:"shm_msgs"`
	ShmBytes    int64 `json:"shm_bytes"`
	Retransmits int64 `json:"retransmits"`
}

// buildMatrix accumulates the full-run matrix, per-collective profiles and
// the transport split in one pass over the graph plus the raw spans.
func buildMatrix(g *graph, spans []obs.Span) (*Matrix, map[string]*CollProfile, TransportStats) {
	m := newMatrix(len(g.lanes))
	per := make(map[string]*CollProfile)
	coll := func(kind string) *CollProfile {
		p := per[kind]
		if p == nil {
			p = &CollProfile{}
			per[kind] = p
		}
		return p
	}
	perM := make(map[string]*Matrix)
	collM := func(kind string) *Matrix {
		pm := perM[kind]
		if pm == nil {
			pm = newMatrix(m.N)
			perM[kind] = pm
		}
		return pm
	}

	for i := range g.nodes {
		n := &g.nodes[i]
		switch n.span.Kind {
		case "send":
			if !m.in(n.rank, n.to) {
				continue
			}
			m.Bytes[n.rank][n.to] += n.span.Bytes
			m.Msgs[n.rank][n.to]++
			if n.coll != "" {
				p := coll(n.coll)
				p.Msgs++
				p.Bytes += n.span.Bytes
				pm := collM(n.coll)
				pm.Bytes[n.rank][n.to] += n.span.Bytes
				pm.Msgs[n.rank][n.to]++
			}
		case "recv":
			if n.wait <= 0 || !m.in(n.from, n.rank) {
				continue
			}
			m.WaitSec[n.from][n.rank] += n.wait
			if n.coll != "" {
				coll(n.coll).WaitSec += n.wait
			}
		}
	}

	var ts TransportStats
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case "retransmit":
			ts.Retransmits++
			if m.in(s.Rank, s.Peer) {
				m.Retrans[s.Rank][s.Peer]++
			}
		case "tcp_send":
			ts.TCPMsgs++
			ts.TCPBytes += s.Bytes
		case "shm_send":
			ts.ShmMsgs++
			ts.ShmBytes += s.Bytes
		case "allgatherv", "alltoallw":
			coll(s.Kind).Instances++
		default:
			if s.Clock == obs.ClockVirtual && collectiveContainer(s.Kind) {
				coll(s.Kind).Instances++
			}
		}
	}
	for kind, p := range per {
		if pm := perM[kind]; pm != nil {
			p.Stats = pm.Stats()
		}
	}
	return m, per, ts
}

// round3 trims a float for report rendering.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
