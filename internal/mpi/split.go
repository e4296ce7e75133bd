package mpi

import (
	"encoding/binary"
	"sort"
)

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, old rank).  A
// negative color (MPI_UNDEFINED) yields nil — the rank belongs to no new
// communicator.  Collective over c.
//
// The returned communicator has its own context: its traffic never matches
// messages of the parent or of sibling communicators, and its collective
// sequence is independent, so collectives on different communicators may
// interleave freely as long as each communicator's members stay in order.
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()

	// Exchange (color, key, commGen) triples.  The generation consensus —
	// newGen = max over members + 1 — gives every Split event an agreed,
	// monotonically increasing id even when the participants have created
	// different numbers of communicators before.
	mine := make([]byte, 24)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	binary.LittleEndian.PutUint64(mine[16:], c.me.commGen)
	all := make([]byte, 24*n)
	c.Allgather(mine, all)

	newGen := c.me.commGen
	for r := 0; r < n; r++ {
		if g := binary.LittleEndian.Uint64(all[24*r+16:]); g > newGen {
			newGen = g
		}
	}
	newGen++
	c.me.commGen = newGen

	if color < 0 {
		return nil
	}

	// Members of my color, ordered by (key, rank).
	type member struct{ key, rank int }
	var members []member
	for r := 0; r < n; r++ {
		mc := int(int64(binary.LittleEndian.Uint64(all[24*r:])))
		mk := int(int64(binary.LittleEndian.Uint64(all[24*r+8:])))
		if mc == color {
			members = append(members, member{key: mk, rank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})

	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.worldRank(m.rank)
		if m.rank == c.rank {
			newRank = i
		}
	}

	// Context id: identical for members (same parent ctx, same agreed
	// generation, same color), distinct across colors and split events.
	ctx := splitmixCtx(c.ctx ^ newGen*0x9e3779b97f4a7c15 ^ uint64(color)*0xbf58476d1ce4e5b9)
	return &Comm{w: c.w, me: c.me, group: group, rank: newRank, ctx: ctx}
}

// Group returns the world ranks of this communicator's members in comm
// rank order.
func (c *Comm) Group() []int {
	if c.group != nil {
		return append([]int(nil), c.group...)
	}
	g := make([]int, len(c.w.procs))
	for i := range g {
		g[i] = i
	}
	return g
}

func splitmixCtx(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x = x ^ (x >> 31)
	x &^= 1 << 63 // stay clear of the reserved control contexts (wall.go)
	if x == 0 {
		x = 1 // never collide with the world context
	}
	return x
}
