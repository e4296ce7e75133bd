package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestGather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root += 2 {
			run(t, n, Baseline(), func(c *Comm) error {
				me := c.Rank()
				out := c.Gather(root, []byte{byte(me), byte(me * 2)})
				if me != root {
					if out != nil {
						return fmt.Errorf("non-root received data")
					}
					return nil
				}
				for r := 0; r < n; r++ {
					if out[r*2] != byte(r) || out[r*2+1] != byte(r*2) {
						return fmt.Errorf("n=%d root=%d: block %d = %v", n, root, r, out[r*2:r*2+2])
					}
				}
				return nil
			})
		}
	}
}

func TestScatterv(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	run(t, 4, Optimized(), func(c *Comm) error {
		var data []byte
		root := 2
		if c.Rank() == root {
			for r, cnt := range counts {
				for i := 0; i < cnt; i++ {
					data = append(data, byte(r*10+i))
				}
			}
		}
		got := c.Scatterv(root, data, counts)
		if len(got) != counts[c.Rank()] {
			return fmt.Errorf("rank %d got %d bytes, want %d", c.Rank(), len(got), counts[c.Rank()])
		}
		for i, b := range got {
			if b != byte(c.Rank()*10+i) {
				return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, b)
			}
		}
		return nil
	})
}

func TestScattervRootShortBufferPanics(t *testing.T) {
	w := testWorld(2, Baseline())
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil // only the root participates in this failure probe
		}
		defer func() { recover() }()
		c.Scatterv(0, []byte{1}, []int{3, 3})
		return fmt.Errorf("expected panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
				_, sTotal := prefix(sendCounts)
				_, rTotal := prefix(recvCounts)
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
