package mpi

import "nccd/internal/floatbytes"

// Scan computes the inclusive prefix reduction: after the call, rank r's
// vec holds op(vec_0, ..., vec_r).  Implemented with the standard
// binomial-style algorithm in ceil(log2 N) rounds.
func (c *Comm) Scan(vec []float64, op Op) {
	c.collStart("Scan")
	c.requireLive()
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.collTag()
	me := c.rank

	// Hillis–Steele: in round k, fold in the prefix of rank r-2^k, whose
	// payload covers exactly the 2^k ranks below it.
	for dist := 1; dist < n; dist <<= 1 {
		if me+dist < n {
			c.send(me+dist, tag, floatbytes.Bytes(vec))
		}
		if me-dist >= 0 {
			env := c.await(me-dist, tag)
			op.apply(vec, floatbytes.Floats(env.data))
			c.reduceFlops(len(vec))
		}
	}
}

// Exscan computes the exclusive prefix reduction: rank r's vec becomes
// op(vec_0, ..., vec_{r-1}); rank 0's vec is left unchanged (callers treat
// it as undefined, as in MPI).
func (c *Comm) Exscan(vec []float64, op Op) {
	c.collStart("Exscan")
	c.requireLive()
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.collTag()
	me := c.rank

	have := false
	var acc []float64
	partial := append([]float64(nil), vec...)
	for dist := 1; dist < n; dist <<= 1 {
		if me+dist < n {
			c.send(me+dist, tag, floatbytes.Bytes(partial))
		}
		if me-dist >= 0 {
			env := c.await(me-dist, tag)
			in := floatbytes.Floats(env.data)
			if !have {
				acc = append([]float64(nil), in...)
				have = true
			} else {
				op.apply(acc, in)
			}
			op.apply(partial, in)
			c.reduceFlops(2 * len(vec))
		}
	}
	if have {
		copy(vec, acc)
	}
}
