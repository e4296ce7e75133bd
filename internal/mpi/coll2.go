package mpi

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
