package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestAlltoallvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(5)
		vol := make([][]int, n)
		for i := range vol {
			vol[i] = make([]int, n)
			for j := range vol[i] {
				if rng.Intn(3) > 0 {
					vol[i][j] = rng.Intn(100)
				}
			}
		}
		for _, cfg := range []Config{Baseline(), Optimized()} {
			run(t, n, cfg, func(c *Comm) error {
				me := c.Rank()
				sendCounts := vol[me]
				recvCounts := make([]int, n)
				for j := 0; j < n; j++ {
					recvCounts[j] = vol[j][me]
				}
				_, sTotal := prefix(nil, sendCounts)
				_, rTotal := prefix(nil, recvCounts)
				sendbuf := make([]byte, sTotal)
				for i := range sendbuf {
					sendbuf[i] = byte(me*37 + i)
				}
				recvbuf := make([]byte, rTotal)
				c.Alltoallv(sendbuf, sendCounts, recvbuf, recvCounts)

				// Oracle: rank j's block starts at the prefix of vol[j][:me]
				// in j's send buffer.
				off := 0
				for j := 0; j < n; j++ {
					jOff := 0
					for k := 0; k < me; k++ {
						jOff += vol[j][k]
					}
					for i := 0; i < vol[j][me]; i++ {
						want := byte(j*37 + jOff + i)
						if recvbuf[off] != want {
							return fmt.Errorf("byte %d from %d: got %d want %d", i, j, recvbuf[off], want)
						}
						off++
					}
				}
				return nil
			})
		}
	}
}

func TestBytesHelper(t *testing.T) {
	ty := Bytes(17)
	if ty.Size() != 17 || !ty.Contig() {
		t.Fatalf("Bytes(17): size %d contig %v", ty.Size(), ty.Contig())
	}
}
