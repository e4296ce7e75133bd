package mpi

import (
	"fmt"
	"slices"

	"nccd/internal/floatbytes"
)

// Collective operations.  All ranks of the world must call each collective
// in the same order.  Every collective starts by injecting the cluster's
// skew model, so imbalance sensitivity (the paper's Alltoallw concern)
// emerges naturally from how strongly an algorithm couples the ranks.

// Barrier synchronizes all ranks with a dissemination barrier: ceil(log2 N)
// rounds of zero-byte exchanges.
func (c *Comm) Barrier() {
	c.collStart("Barrier")
	c.requireLive()
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.collTag()
	me := c.rank
	for dist := 1; dist < n; dist *= 2 {
		dst := (me + dist) % n
		src := (me - dist + n) % n
		c.send(dst, tag, nil)
		c.await(src, tag)
	}
}

// Bcast broadcasts root's data to all ranks over a binomial tree and
// returns the payload (on root, data itself).
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.checkPeer(root)
	c.collStart("Bcast")
	c.requireLive()
	n := c.Size()
	if n == 1 {
		return data
	}
	tag := c.collTag()
	me := c.rank
	rel := (me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (me - mask + n) % n
			env := c.await(src, tag)
			data = env.data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel&mask == 0 && rel+mask < n {
			c.send((me+mask)%n, tag, data)
		}
		mask >>= 1
	}
	return data
}

// Op is a reduction operator over float64 vectors.
type Op uint8

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
)

func (op Op) apply(dst, src []float64) {
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", op))
	}
}

// reduceFlops charges the CPU cost of combining n elements.
func (c *Comm) reduceFlops(n int) {
	const flopSec = 0.6e-9 // one fused combine per element on a 2006 core
	c.Compute(float64(n) * flopSec)
}

// Reduce combines each rank's vec elementwise with op, leaving the result
// in vec on root (other ranks' vec contents are unspecified afterwards).
// The reduction runs over a binomial tree.
func (c *Comm) Reduce(root int, vec []float64, op Op) {
	c.checkPeer(root)
	c.collStart("Reduce")
	c.requireLive()
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.collTag()
	me := c.rank
	rel := (me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			dst := (me - mask + n) % n
			c.send(dst, tag, floatbytes.Bytes(vec))
			break
		}
		partner := rel | mask
		if partner < n {
			src := (partner + root) % n
			env := c.await(src, tag)
			op.apply(vec, floatbytes.Floats(env.data))
			c.reduceFlops(len(vec))
		}
		mask <<= 1
	}
}

// Allreduce combines every rank's vec elementwise with op and leaves the
// result in vec on all ranks (reduce-to-zero plus broadcast).
func (c *Comm) Allreduce(vec []float64, op Op) {
	c.Reduce(0, vec, op)
	out := c.Bcast(0, floatbytes.Bytes(vec))
	if c.rank != 0 {
		copy(vec, floatbytes.Floats(out))
	}
}

// AllreduceScalar is a convenience for single-value reductions.
func (c *Comm) AllreduceScalar(x float64, op Op) float64 {
	v := []float64{x}
	c.Allreduce(v, op)
	return v[0]
}

// Gatherv gathers variable-size contiguous contributions on root.  counts
// gives every rank's byte count (identical on all ranks).  On root the
// result holds the concatenation in rank order; other ranks get nil.
func (c *Comm) Gatherv(root int, data []byte, counts []int) []byte {
	c.checkPeer(root)
	c.checkCounts(counts)
	c.collStart("Gatherv")
	c.requireLive()
	n := c.Size()
	me := c.rank
	if me != root {
		c.send(root, c.collTag(), data)
		return nil
	}
	tag := c.collTag()
	displs, total := prefix(nil, counts)
	out := make([]byte, total)
	copy(out[displs[me]:], data)
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		env := c.await(r, tag)
		if len(env.data) != counts[r] {
			panic(fmt.Sprintf("mpi: gatherv rank %d sent %d bytes, expected %d", r, len(env.data), counts[r]))
		}
		copy(out[displs[r]:], env.data)
	}
	return out
}

// Allgather gathers equal-size contributions on every rank: each rank
// contributes len(data) bytes and receives size*len(data) bytes in rank
// order.  It defers to Allgatherv with uniform counts.
func (c *Comm) Allgather(data []byte, recv []byte) {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = len(data)
	}
	c.Allgatherv(data, counts, recv)
}

func (c *Comm) checkCounts(counts []int) {
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: counts has %d entries for %d ranks", len(counts), c.Size()))
	}
	for r, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: negative count %d for rank %d", n, r))
		}
	}
}

// prefix returns byte displacements and the total for a count vector, the
// displacements in displs's storage where it has room for them.
func prefix(displs, counts []int) ([]int, int) {
	total := 0
	displs = slices.Grow(displs[:0], len(counts))[:len(counts)]
	for i, n := range counts {
		displs[i] = total
		total += n
	}
	return displs, total
}
