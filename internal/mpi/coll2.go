package mpi

import "fmt"

// Additional collectives rounding out the MPI surface PETSc-style codes
// rely on: Gather, Scatterv and Alltoallv.

// Gather collects equal-size contributions on root (binomial tree).  Every
// rank contributes len(data) bytes (identical across ranks); root receives
// the concatenation in rank order, others receive nil.
func (c *Comm) Gather(root int, data []byte) []byte {
	c.checkPeer(root)
	c.collStart("Gather")
	c.requireLive()
	n := c.Size()
	tag := c.collTag()
	me := c.rank
	rel := (me - root + n) % n
	blk := len(data)

	// Each subtree leader accumulates its subtree's blocks, stored by
	// relative rank, then forwards to its parent.
	buf := append([]byte(nil), data...)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (me - mask + n) % n
			c.send(parent, tag, buf)
			break
		}
		childRel := rel | mask
		if childRel < n {
			src := (childRel + root) % n
			env := c.await(src, tag)
			buf = append(buf, env.data...)
		}
		mask <<= 1
	}
	if me != root {
		return nil
	}
	// buf holds blocks ordered by relative rank; rotate into world order.
	out := make([]byte, n*blk)
	for r := 0; r < n; r++ {
		relR := (r - root + n) % n
		copy(out[r*blk:(r+1)*blk], buf[relR*blk:(relR+1)*blk])
	}
	return out
}

// Scatterv distributes variable-size pieces from root: rank r receives
// counts[r] bytes taken from consecutive regions of root's data.  counts
// must be identical on all ranks; data is only read on root.
func (c *Comm) Scatterv(root int, data []byte, counts []int) []byte {
	c.checkPeer(root)
	c.checkCounts(counts)
	c.collStart("Scatterv")
	c.requireLive()
	tag := c.collTag()
	me := c.rank
	if me == root {
		displs, total := prefix(counts)
		if len(data) < total {
			panic(fmt.Sprintf("mpi: scatterv root has %d bytes, needs %d", len(data), total))
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			c.send(r, tag, data[displs[r]:displs[r]+counts[r]])
		}
		out := make([]byte, counts[root])
		copy(out, data[displs[root]:])
		return out
	}
	env := c.await(root, tag)
	if len(env.data) != counts[me] {
		panic("mpi: scatterv size mismatch")
	}
	return env.data
}

// Alltoallv exchanges variable-size contiguous blocks: rank i sends
// sendCounts[j] bytes (at offset sendDispls implied by prefix sums) to rank
// j and receives recvCounts[j] bytes from rank j.  The algorithm follows
// the world's Alltoallw configuration.
func (c *Comm) Alltoallv(sendbuf []byte, sendCounts []int, recvbuf []byte, recvCounts []int) {
	n := c.Size()
	c.checkCounts(sendCounts)
	c.checkCounts(recvCounts)
	sends := make([]TypeSpec, n)
	recvs := make([]TypeSpec, n)
	sOff, rOff := 0, 0
	for r := 0; r < n; r++ {
		sends[r] = TypeSpec{Type: Bytes(sendCounts[r]), Count: 1, Displ: sOff}
		recvs[r] = TypeSpec{Type: Bytes(recvCounts[r]), Count: 1, Displ: rOff}
		if sendCounts[r] == 0 {
			sends[r] = TypeSpec{}
		}
		if recvCounts[r] == 0 {
			recvs[r] = TypeSpec{}
		}
		sOff += sendCounts[r]
		rOff += recvCounts[r]
	}
	if len(sendbuf) < sOff || len(recvbuf) < rOff {
		panic("mpi: alltoallv buffer too small")
	}
	c.Alltoallw(sendbuf, sends, recvbuf, recvs)
}
