// Package analyze stitches per-rank observability spans into a cross-rank
// causal model: every traced send carries a (src, dst, ctx, mseq) identity
// that pairs it with exactly one traced receive, and the paired events plus
// each rank's sequential timeline form a DAG whose longest path is the
// run's critical path.  On top of the DAG the package classifies wait
// states Scalasca-style — Late Sender (the receiver blocked because the
// message left late), Late Receiver (the sender stalled in rendezvous
// because the receiver wasn't draining), collective imbalance (waits inside
// a collective, where the blame is the slowest member, not the matched
// peer) — and walks wait chains backward to the root-cause rank: the rank
// that was computing while everyone else was waiting.
package analyze

import (
	"sort"
	"strconv"

	"nccd/internal/obs"
)

// Options configures an analysis pass.
type Options struct {
	// Wall marks a wall-clock (multi-process) trace: receive waits were
	// measured in wall seconds and are added to span durations, because a
	// wall-clock world's virtual clock cannot see a real blocked receive.
	Wall bool
	// Ranks is the world size; 0 infers it from the spans.  When it is set,
	// a span of any other rank is skipped and counted in Report.OutOfRange: a trace read from disk can name any
	// rank, and the lanes and matrices are sized by the world.
	Ranks int
	// Dropped is the total ring-buffer drop count across all ranks.  A
	// nonzero value is surfaced in the report: unmatched messages may be
	// ring casualties rather than genuinely lost traffic.
	Dropped int64
}

// node is one event on a rank's timeline.
type node struct {
	span obs.Span
	rank int
	lane int // index within the rank's lane
	id   int // global node id

	to, from   int // matching identity (world ranks); -1 when absent
	ctx        uint64
	mseq       uint64
	wait, rdvz float64

	match int    // node id of the matched counterpart, -1 when unmatched
	coll  string // enclosing collective container kind, "" outside any
}

// matchKey identifies one logical message.
type matchKey struct {
	src, dst int
	ctx      uint64
	mseq     uint64
}

// collectiveContainer reports whether kind is a collective container span
// (emitted around a whole collective).
func collectiveContainer(kind string) bool {
	return kind == "allgatherv" || kind == "alltoallw"
}

func attrVal(s *obs.Span, key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

func attrInt(s *obs.Span, key string) int {
	if v, ok := attrVal(s, key); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return -1
}

func attrUint(s *obs.Span, key string, base int) uint64 {
	if v, ok := attrVal(s, key); ok {
		if n, err := strconv.ParseUint(v, base, 64); err == nil {
			return n
		}
	}
	return 0
}

func attrFloat(s *obs.Span, key string) float64 {
	if v, ok := attrVal(s, key); ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return 0
}

// graph is the stitched cross-rank event DAG.
type graph struct {
	nodes []node
	lanes [][]int // per-rank node ids, in emission (causal) order
	wall  bool
}

// durEff is a node's effective duration on the critical path.  Virtual
// traces fold the blocked wait into the recv span (the clock jumps to the
// arrival stamp); wall traces measure it out-of-band, so it is added here.
func (g *graph) durEff(n *node) float64 {
	d := n.span.End - n.span.Start
	if d < 0 {
		d = 0
	}
	if g.wall {
		d += n.wait
	}
	return d
}

// inRanks is spans without those whose rank lies outside [0, ranks), and
// how many it left out; with ranks 0 it is spans.  It copies only when it leaves something out.
func inRanks(spans []obs.Span, ranks int) ([]obs.Span, int) {
	outside := func(r int) bool { return ranks > 0 && (r < 0 || r >= ranks) }
	n := 0
	for i := range spans {
		if outside(spans[i].Rank) {
			n++
		}
	}
	if n == 0 {
		return spans, 0
	}
	kept := make([]obs.Span, 0, len(spans)-n)
	for _, s := range spans {
		if !outside(s.Rank) {
			kept = append(kept, s)
		}
	}
	return kept, n
}

// build filters spans into timeline nodes, assigns lanes, pairs sends with
// receives, and attributes nodes to their innermost collective container.
func build(spans []obs.Span, opts Options) *graph {
	ranks := opts.Ranks
	for i := range spans {
		if spans[i].Rank+1 > ranks {
			ranks = spans[i].Rank + 1
		}
	}
	g := &graph{lanes: make([][]int, ranks), wall: opts.Wall}

	// Collective containers per rank, for innermost-enclosing attribution.
	type container struct {
		kind       string
		start, end float64
	}
	containers := make([][]container, ranks)

	for i := range spans {
		s := &spans[i]
		if s.Clock != obs.ClockVirtual || s.Rank < 0 || s.Rank >= ranks {
			continue
		}
		if collectiveContainer(s.Kind) {
			containers[s.Rank] = append(containers[s.Rank],
				container{kind: s.Kind, start: s.Start, end: s.End})
			continue
		}
		// Only the kinds that form a rank's sequential timeline become nodes.
		n := node{span: *s, rank: s.Rank, id: len(g.nodes), match: -1, to: -1, from: -1}
		switch s.Kind {
		case "send":
			n.to = attrInt(s, "to")
			n.ctx = attrUint(s, "ctx", 16)
			n.mseq = attrUint(s, "mseq", 10)
			n.rdvz = attrFloat(s, "rdvz")
		case "recv":
			n.from = attrInt(s, "from")
			n.ctx = attrUint(s, "ctx", 16)
			n.mseq = attrUint(s, "mseq", 10)
			n.wait = attrFloat(s, "wait")
		case "compute", "skew", "localcopy": // a rank's own work; an exchange's local part is a copy, not a message
		default:
			continue
		}
		n.lane = len(g.lanes[s.Rank])
		g.lanes[s.Rank] = append(g.lanes[s.Rank], n.id)
		g.nodes = append(g.nodes, n)
	}

	// Pair messages.  mseq is unique per (src, dst, ctx) stream, so a key
	// collision can only come from ring wrap losing one side; first match
	// wins and the leftovers count as unmatched.
	sends := make(map[matchKey]int)
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.span.Kind == "send" && n.mseq != 0 && n.to >= 0 {
			k := matchKey{src: n.rank, dst: n.to, ctx: n.ctx, mseq: n.mseq}
			if _, dup := sends[k]; !dup {
				sends[k] = n.id
			}
		}
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.span.Kind != "recv" || n.mseq == 0 || n.from < 0 {
			continue
		}
		k := matchKey{src: n.from, dst: n.rank, ctx: n.ctx, mseq: n.mseq}
		if sid, ok := sends[k]; ok && g.nodes[sid].match < 0 {
			g.nodes[sid].match = n.id
			n.match = sid
		}
	}

	// Innermost-container attribution: the container with the latest start
	// that still encloses the node.  Containers are emitted at collective
	// end, so sort them by start first.
	for r := range containers {
		cs := containers[r]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		for _, id := range g.lanes[r] {
			n := &g.nodes[id]
			// Binary search: first container starting after the node, then
			// scan left for one that encloses it.
			hi := sort.Search(len(cs), func(i int) bool { return cs[i].start > n.span.Start })
			for j := hi - 1; j >= 0; j-- {
				if cs[j].end >= n.span.End {
					n.coll = cs[j].kind
					break
				}
			}
		}
	}
	return g
}

// criticalPath computes the longest effective-duration path through the
// DAG.  Edges: lane order (an event depends on its rank's previous event)
// and message matching (a receive depends on its send).  Returns the cp
// value per node and the terminal node id.
func (g *graph) criticalPath() (cp []float64, terminal int) {
	n := len(g.nodes)
	cp = make([]float64, n)
	state := make([]uint8, n) // 0 unvisited, 1 in progress, 2 done

	// Iterative DFS; a back edge (possible only if identity collisions
	// mis-paired a message) drops the match edge rather than looping.
	var stack []int
	for root := 0; root < n; root++ {
		if state[root] == 2 {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			nd := &g.nodes[id]
			if state[id] == 2 {
				stack = stack[:len(stack)-1]
				continue
			}
			state[id] = 1
			prev, dep := -1, -1
			if nd.lane > 0 {
				prev = g.lanes[nd.rank][nd.lane-1]
			}
			if nd.span.Kind == "recv" && nd.match >= 0 {
				dep = nd.match
			}
			ready := true
			for _, p := range []int{prev, dep} {
				if p < 0 || state[p] == 2 {
					continue
				}
				if state[p] == 1 {
					// Cycle: sever the match edge (lane edges cannot cycle).
					if p == dep {
						nd.match = -1
						continue
					}
					continue
				}
				stack = append(stack, p)
				ready = false
			}
			if !ready {
				continue
			}
			best := 0.0
			if prev >= 0 && cp[prev] > best {
				best = cp[prev]
			}
			if dep >= 0 && nd.match >= 0 && cp[dep] > best {
				best = cp[dep]
			}
			cp[id] = best + g.durEff(nd)
			state[id] = 2
			stack = stack[:len(stack)-1]
		}
	}
	terminal = -1
	for id := range g.nodes {
		if terminal < 0 || cp[id] > cp[terminal] {
			terminal = id
		}
	}
	return cp, terminal
}

// walkPath backtracks the critical path from terminal, attributing each
// node's effective duration to its rank and kind.
func (g *graph) walkPath(cp []float64, terminal int) (perRank []float64, perKind map[string]float64, hops int) {
	perRank = make([]float64, len(g.lanes))
	perKind = make(map[string]float64)
	const eps = 1e-12
	for id := terminal; id >= 0; {
		nd := &g.nodes[id]
		d := g.durEff(nd)
		perRank[nd.rank] += d
		perKind[nd.span.Kind] += d
		hops++
		prev, dep := -1, -1
		if nd.lane > 0 {
			prev = g.lanes[nd.rank][nd.lane-1]
		}
		if nd.span.Kind == "recv" && nd.match >= 0 {
			dep = nd.match
		}
		next := -1
		want := cp[id] - d
		if want <= eps {
			break
		}
		if prev >= 0 && cp[prev] >= want-eps {
			next = prev
		}
		if dep >= 0 && (next < 0 || cp[dep] > cp[next]) && cp[dep] >= want-eps {
			next = dep
		}
		id = next
	}
	return perRank, perKind, hops
}

// rootBlame walks a waiting receive's causal chain back to the rank that
// was genuinely busy.  Direct blame (the matched sender) dilutes under
// multi-hop collectives — a recursive-doubling relay waits on its own
// predecessor — so the walk hops: from the waiting receive to its sender,
// backward over the sender's lane accumulating busy time; if the sender was
// itself waiting on a receive before covering the wait, the walk follows
// that receive's sender instead.  Bounded by maxBlameHops.
const maxBlameHops = 64

func (g *graph) rootBlame(recvID int) int {
	cur := recvID
	for hop := 0; hop < maxBlameHops; hop++ {
		nd := &g.nodes[cur]
		sid := nd.match
		if sid < 0 {
			if nd.from >= 0 {
				return nd.from
			}
			return nd.rank
		}
		sender := &g.nodes[sid]
		need := nd.wait
		busy := 0.0
		hopped := false
		for j := sender.lane - 1; j >= 0; j-- {
			pn := &g.nodes[g.lanes[sender.rank][j]]
			if pn.span.Kind == "recv" && pn.wait > 0 && busy < need {
				cur = pn.id
				hopped = true
				break
			}
			busy += g.durEff(pn)
			if busy >= need {
				return sender.rank
			}
		}
		if !hopped {
			return sender.rank
		}
	}
	return g.nodes[cur].rank
}
