package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
)

// testWorld builds an n-rank homogeneous world with the given config.
func testWorld(n int, cfg Config) *World {
	return NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
}

// run executes f on a fresh world and fails the test on error.
func run(t *testing.T, n int, cfg Config, f func(c *Comm) error) *World {
	t.Helper()
	w := testWorld(n, cfg)
	if err := w.Run(f); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
			return nil
		}
		data, src := c.Recv(0, 7)
		if string(data) != "hello" || src != 0 {
			return fmt.Errorf("got %q from %d", data, src)
		}
		return nil
	})
}

func TestSendBufferReuse(t *testing.T) {
	// Eager semantics: the sender may overwrite its buffer immediately.
	run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99
			c.Send(1, 1, buf)
			return nil
		}
		a, _ := c.Recv(0, 0)
		b, _ := c.Recv(0, 1)
		if a[0] != 1 || b[0] != 99 {
			return fmt.Errorf("buffer reuse corrupted payload: %v %v", a, b)
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 3, []byte("three"))
			return nil
		}
		// Receive out of send order by tag.
		three, _ := c.Recv(0, 3)
		five, _ := c.Recv(0, 5)
		if string(three) != "three" || string(five) != "five" {
			return fmt.Errorf("tag matching broken: %q %q", three, five)
		}
		return nil
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	run(t, 2, Baseline(), func(c *Comm) error {
		const k = 20
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 0, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < k; i++ {
			d, _ := c.Recv(0, 0)
			if d[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (%d)", i, d[0])
			}
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, Baseline(), func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, c.Rank(), []byte{byte(c.Rank())})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			d, src := c.Recv(AnySource, AnyTag)
			if int(d[0]) != src {
				return fmt.Errorf("payload %d from src %d", d[0], src)
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing sources: %v", seen)
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	run(t, 1, Baseline(), func(c *Comm) error {
		c.Send(0, 0, []byte("me"))
		d, _ := c.Recv(0, 0)
		if string(d) != "me" {
			return fmt.Errorf("self send got %q", d)
		}
		return nil
	})
}

func TestZeroByteMessage(t *testing.T) {
	run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, nil)
			return nil
		}
		d, _ := c.Recv(0, 0)
		if len(d) != 0 {
			return fmt.Errorf("zero-byte message has %d bytes", len(d))
		}
		return nil
	})
}

func TestSendTypeRecvType(t *testing.T) {
	// Send a strided column, receive it contiguously.
	for _, cfg := range []Config{Baseline(), Optimized()} {
		elem := datatype.Contiguous(3, datatype.Double)
		col := datatype.Vector(16, 1, 16, elem)
		run(t, 2, cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				buf := make([]byte, col.Extent())
				for i := range buf {
					buf[i] = byte(i)
				}
				c.SendType(1, 0, col, 1, buf)
				return nil
			}
			got := make([]byte, col.Size())
			c.RecvType(0, 0, datatype.Contiguous(col.Size(), datatype.Byte), 1, got)
			// Reference: flatten and copy.
			var want []byte
			src := make([]byte, col.Extent())
			for i := range src {
				src[i] = byte(i)
			}
			for _, s := range datatype.Flatten(col, 1) {
				want = append(want, src[s.Off:s.Off+s.Len]...)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("typed transfer mismatch")
			}
			return nil
		})
	}
}

func TestTypedBothSidesNoncontiguous(t *testing.T) {
	// Strided send into a differently strided receive.
	for _, cfg := range []Config{Baseline(), Optimized()} {
		sendT := datatype.Vector(32, 2, 5, datatype.Double)
		recvT := datatype.Vector(16, 4, 9, datatype.Double)
		if sendT.Size() != recvT.Size() {
			t.Fatal("test types must carry equal data")
		}
		run(t, 2, cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				buf := make([]byte, sendT.Extent())
				for i := range buf {
					buf[i] = byte(i * 7)
				}
				c.SendType(1, 0, sendT, 1, buf)
				return nil
			}
			dst := make([]byte, recvT.Extent())
			c.RecvType(0, 0, recvT, 1, dst)
			src := make([]byte, sendT.Extent())
			for i := range src {
				src[i] = byte(i * 7)
			}
			var stream []byte
			for _, s := range datatype.Flatten(sendT, 1) {
				stream = append(stream, src[s.Off:s.Off+s.Len]...)
			}
			want := make([]byte, recvT.Extent())
			datatype.Unpack(recvT, 1, want, stream)
			if !bytes.Equal(dst, want) {
				return fmt.Errorf("typed-to-typed transfer mismatch")
			}
			return nil
		})
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	run(t, 4, Optimized(), func(c *Comm) error {
		n := c.Size()
		me := c.Rank()
		bufs := make([][]byte, n)
		var reqs []*Request
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			bufs[r] = make([]byte, 2)
			reqs = append(reqs, c.Irecv(r, 9, bufs[r]))
		}
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			c.Isend(r, 9, []byte{byte(me), byte(r)})
		}
		c.Waitall(reqs)
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			if bufs[r][0] != byte(r) || bufs[r][1] != byte(me) {
				return fmt.Errorf("bad payload from %d: %v", r, bufs[r])
			}
		}
		return nil
	})
}

func TestClockMonotoneAndCausal(t *testing.T) {
	w := run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e-3)
			c.Send(1, 0, make([]byte, 1000))
			return nil
		}
		before := c.Clock()
		c.Recv(0, 0)
		if c.Clock() <= before {
			return fmt.Errorf("clock did not advance on recv")
		}
		// Causality: the receive completes after the sender's compute plus
		// wire time.
		if c.Clock() < 1e-3 {
			return fmt.Errorf("recv completed at %v, before sender was ready", c.Clock())
		}
		return nil
	})
	if w.MaxClock() < 1e-3 {
		t.Fatalf("MaxClock %v too small", w.MaxClock())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := run(t, 7, Baseline(), func(c *Comm) error {
		if c.Rank() == 3 {
			c.Compute(5e-3) // one slow rank
		}
		c.Barrier()
		if c.Clock() < 5e-3 {
			return fmt.Errorf("rank %d left barrier at %v before slow rank was ready", c.Rank(), c.Clock())
		}
		return nil
	})
	_ = w
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 13} {
		for root := 0; root < n; root += 2 {
			payload := []byte{1, 2, 3, 4, 5}
			run(t, n, Baseline(), func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = payload
				}
				got := c.Bcast(root, data)
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("n=%d root=%d rank=%d: got %v", n, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 9} {
		want := float64(n * (n - 1) / 2)
		run(t, n, Baseline(), func(c *Comm) error {
			v := []float64{float64(c.Rank()), -float64(c.Rank())}
			c.Reduce(0, v, OpSum)
			if c.Rank() == 0 && (v[0] != want || v[1] != -want) {
				return fmt.Errorf("reduce sum = %v, want %v", v, want)
			}
			x := c.AllreduceScalar(float64(c.Rank()), OpMax)
			if x != float64(n-1) {
				return fmt.Errorf("allreduce max = %v, want %d", x, n-1)
			}
			return nil
		})
	}
}

func TestGatherv(t *testing.T) {
	n := 5
	counts := []int{3, 0, 2, 5, 1}
	run(t, n, Baseline(), func(c *Comm) error {
		me := c.Rank()
		data := bytes.Repeat([]byte{byte('a' + me)}, counts[me])
		out := c.Gatherv(2, data, counts)
		if me != 2 {
			if out != nil {
				return fmt.Errorf("non-root got data")
			}
			return nil
		}
		want := []byte("aaaccddddde")
		if !bytes.Equal(out, want) {
			return fmt.Errorf("gatherv got %q, want %q", out, want)
		}
		return nil
	})
}

// checkAllgatherv validates correctness of Allgatherv for a given config,
// world size and count vector.
func checkAllgatherv(t *testing.T, cfg Config, counts []int) {
	t.Helper()
	n := len(counts)
	displs := make([]int, n)
	total := 0
	for i, x := range counts {
		displs[i] = total
		total += x
	}
	want := make([]byte, total)
	for r := 0; r < n; r++ {
		for i := 0; i < counts[r]; i++ {
			want[displs[r]+i] = byte(r*31 + i)
		}
	}
	run(t, n, cfg, func(c *Comm) error {
		me := c.Rank()
		mine := make([]byte, counts[me])
		for i := range mine {
			mine[i] = byte(me*31 + i)
		}
		recv := make([]byte, total)
		c.Allgatherv(mine, counts, recv)
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("allgatherv result mismatch (n=%d, algo=%v)", n, cfg.Allgatherv)
		}
		return nil
	})
}

func TestAllgathervAllAlgorithmsUniform(t *testing.T) {
	for _, algo := range []AllgathervAlgo{AGAuto, AGAdaptive, AGRing, AGDissemination} {
		for _, n := range []int{1, 2, 3, 5, 8, 16, 17} {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 16
			}
			cfg := Baseline()
			cfg.Allgatherv = algo
			checkAllgatherv(t, cfg, counts)
		}
	}
	// Recursive doubling only on powers of two.
	for _, n := range []int{1, 2, 4, 8, 16} {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 16
		}
		cfg := Baseline()
		cfg.Allgatherv = AGRecursiveDoubling
		checkAllgatherv(t, cfg, counts)
	}
}

func TestAllgathervNonuniformRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, algo := range []AllgathervAlgo{AGAuto, AGAdaptive, AGRing, AGDissemination} {
		for trial := 0; trial < 10; trial++ {
			n := 2 + rng.Intn(15)
			counts := make([]int, n)
			for i := range counts {
				counts[i] = rng.Intn(200)
			}
			counts[rng.Intn(n)] = 4096 // one outlier
			cfg := Optimized()
			cfg.Allgatherv = algo
			checkAllgatherv(t, cfg, counts)
		}
	}
}

func TestAllgathervZeroContribution(t *testing.T) {
	checkAllgatherv(t, Optimized(), []int{0, 10, 0, 3, 0})
}

func TestAllgather(t *testing.T) {
	n := 6
	run(t, n, Optimized(), func(c *Comm) error {
		me := c.Rank()
		recv := make([]byte, 4*n)
		c.Allgather([]byte{byte(me), byte(me), byte(me), byte(me)}, recv)
		for r := 0; r < n; r++ {
			for i := 0; i < 4; i++ {
				if recv[r*4+i] != byte(r) {
					return fmt.Errorf("allgather slot %d = %d", r, recv[r*4+i])
				}
			}
		}
		return nil
	})
}

func TestRecursiveDoublingPanicsOnNonPof2(t *testing.T) {
	cfg := Baseline()
	cfg.Allgatherv = AGRecursiveDoubling
	w := testWorld(3, cfg)
	err := w.Run(func(c *Comm) error {
		recv := make([]byte, 3)
		c.Allgatherv([]byte{1}, []int{1, 1, 1}, recv)
		return nil
	})
	if err == nil {
		t.Fatal("expected error for recursive doubling on 3 ranks")
	}
}

// checkAlltoallw validates Alltoallw against a locally computed reference
// for a random pattern of contiguous blocks.
func checkAlltoallw(t *testing.T, cfg Config, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// vol[i][j] = bytes rank i sends to rank j.
	vol := make([][]int, n)
	for i := range vol {
		vol[i] = make([]int, n)
		for j := range vol[i] {
			switch rng.Intn(3) {
			case 0:
				vol[i][j] = 0
			case 1:
				vol[i][j] = 1 + rng.Intn(64)
			default:
				vol[i][j] = 512 + rng.Intn(2048)
			}
		}
	}
	run(t, n, cfg, func(c *Comm) error {
		me := c.Rank()
		sends := make([]TypeSpec, n)
		recvs := make([]TypeSpec, n)
		sendTotal, recvTotal := 0, 0
		for j := 0; j < n; j++ {
			sends[j] = TypeSpec{Type: datatype.Byte, Count: vol[me][j], Displ: sendTotal}
			sendTotal += vol[me][j]
			recvs[j] = TypeSpec{Type: datatype.Byte, Count: vol[j][me], Displ: recvTotal}
			recvTotal += vol[j][me]
		}
		sendbuf := make([]byte, sendTotal)
		for j := 0; j < n; j++ {
			for k := 0; k < vol[me][j]; k++ {
				sendbuf[sends[j].Displ+k] = byte(me ^ j ^ k)
			}
		}
		recvbuf := make([]byte, recvTotal)
		c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		for j := 0; j < n; j++ {
			for k := 0; k < vol[j][me]; k++ {
				if recvbuf[recvs[j].Displ+k] != byte(j^me^k) {
					return fmt.Errorf("alltoallw byte from %d at %d wrong", j, k)
				}
			}
		}
		return nil
	})
}

func TestAlltoallwBothAlgorithms(t *testing.T) {
	for _, algo := range []AlltoallwAlgo{ATRoundRobin, ATBinned} {
		for _, n := range []int{1, 2, 3, 5, 8} {
			cfg := Baseline()
			cfg.Alltoallw = algo
			checkAlltoallw(t, cfg, n, int64(n)*7+int64(algo))
		}
	}
}

func TestAlltoallwTypedNeighbors(t *testing.T) {
	// The paper's Alltoallw microbenchmark pattern: a logical ring where
	// each rank exchanges a 10x10 matrix of doubles with its successor and
	// predecessor only.
	for _, algo := range []AlltoallwAlgo{ATRoundRobin, ATBinned} {
		n := 6
		cfg := Optimized()
		cfg.Alltoallw = algo
		mat := datatype.Contiguous(100, datatype.Double)
		run(t, n, cfg, func(c *Comm) error {
			me := c.Rank()
			succ, pred := (me+1)%n, (me-1+n)%n
			sends := make([]TypeSpec, n)
			recvs := make([]TypeSpec, n)
			sends[succ] = TypeSpec{Type: mat, Count: 1, Displ: 0}
			sends[pred] = TypeSpec{Type: mat, Count: 1, Displ: 800}
			recvs[succ] = TypeSpec{Type: mat, Count: 1, Displ: 0}
			recvs[pred] = TypeSpec{Type: mat, Count: 1, Displ: 800}
			if n == 2 {
				// succ == pred; keep a single slot.
				sends[pred] = TypeSpec{}
				recvs[pred] = TypeSpec{}
			}
			sendbuf := make([]byte, 1600)
			for i := range sendbuf {
				sendbuf[i] = byte(me*13 + i)
			}
			recvbuf := make([]byte, 1600)
			c.Alltoallw(sendbuf, sends, recvbuf, recvs)
			// The successor sends me its pred-slot (displ 800); the
			// predecessor sends me its succ-slot (displ 0).
			for i := 0; i < 800; i++ {
				if recvbuf[i] != byte(succ*13+(800+i)) {
					return fmt.Errorf("wrong byte %d from successor", i)
				}
				if recvbuf[800+i] != byte(pred*13+i) {
					return fmt.Errorf("wrong byte %d from predecessor", i)
				}
			}
			return nil
		})
	}
}

func TestAlltoall(t *testing.T) {
	n := 4
	run(t, n, Optimized(), func(c *Comm) error {
		me := c.Rank()
		send := make([]byte, n*3)
		for j := 0; j < n; j++ {
			for k := 0; k < 3; k++ {
				send[j*3+k] = byte(me*10 + j)
			}
		}
		recv := make([]byte, n*3)
		c.Alltoall(send, 3, recv)
		for j := 0; j < n; j++ {
			if recv[j*3] != byte(j*10+me) {
				return fmt.Errorf("alltoall block %d = %d", j, recv[j*3])
			}
		}
		return nil
	})
}

func TestRunRecoversPanics(t *testing.T) {
	w := testWorld(2, Baseline())
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 blocks on a receive that will never be satisfied; the
		// failure must unblock it.
		defer func() { recover() }()
		c.Recv(0, 0)
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := Baseline()
	// Force several pipeline chunks so the baseline engine re-searches at
	// nonzero positions.
	cfg.Datatype.Pipeline = 256
	w := run(t, 2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			ty := datatype.Vector(256, 1, 4, datatype.Double)
			buf := make([]byte, ty.Extent())
			c.SendType(1, 0, ty, 1, buf)
			return nil
		}
		got := make([]byte, 2048)
		c.RecvType(0, 0, datatype.Contiguous(2048, datatype.Byte), 1, got)
		return nil
	})
	s0 := w.Stats(0)
	if s0.MsgsSent != 1 || s0.BytesSent != 2048 {
		t.Fatalf("sender stats: %+v", s0)
	}
	if s0.PackSec <= 0 {
		t.Fatal("sender did not charge pack time")
	}
	if s0.SearchSec <= 0 {
		t.Fatal("baseline sender did not charge search time")
	}
	s1 := w.Stats(1)
	if s1.MsgsRecv != 1 || s1.BytesRecv != 2048 {
		t.Fatalf("receiver stats: %+v", s1)
	}
	tot := w.TotalStats()
	if tot.MsgsSent != 1 || tot.MsgsRecv != 1 {
		t.Fatalf("total stats: %+v", tot)
	}
	w.ResetClocks()
	if w.MaxClock() != 0 || w.Stats(0).MsgsSent != 0 {
		t.Fatal("ResetClocks did not reset")
	}
}

func TestValidationPanics(t *testing.T) {
	run(t, 2, Baseline(), func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		mustPanic := func(name string, f func()) error {
			defer func() { recover() }()
			f()
			return fmt.Errorf("%s: expected panic", name)
		}
		if err := mustPanic("bad peer", func() { c.Send(5, 0, nil) }); err != nil {
			return err
		}
		if err := mustPanic("bad counts", func() { c.Allgatherv(nil, []int{1}, nil) }); err != nil {
			return err
		}
		if err := mustPanic("bad specs", func() { c.Alltoallw(nil, nil, nil, nil) }); err != nil {
			return err
		}
		return nil
	})
}

func TestConfigStrings(t *testing.T) {
	for _, a := range []AllgathervAlgo{AGAuto, AGAdaptive, AGRing, AGRecursiveDoubling, AGDissemination, AllgathervAlgo(99)} {
		if a.String() == "" {
			t.Error("empty algo string")
		}
	}
	if ATRoundRobin.String() != "round-robin" || ATBinned.String() != "binned" {
		t.Error("bad alltoallw strings")
	}
}

// TestAllgathervAllocations: a two-rank in-process Allgatherv allocates once
// a rank a call, for the message it receives, and under the adaptive policy
// once more, for the outlier detector's working copy of the counts.  The
// displacements and the detector's volumes are scratch kept on the Comm.
// Both ranks' calls run side by side and AllocsPerRun counts the whole
// process, so each rank's figure is twice a rank's own.  Under the race
// detector sync.Pool drops puts at random, and the messages' pooled buffers
// with them.
func TestAllgathervAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, k := range []struct {
		name string
		cfg  Config
		want float64 // a rank a call
	}{{"baseline", Baseline(), 1}, {"compiled", Compiled(), 2}} {
		run(t, 2, k.cfg, func(c *Comm) error {
			counts := []int{64, 200}
			data, recv := make([]byte, counts[c.Rank()]), make([]byte, 264)
			if a := testing.AllocsPerRun(50, func() { c.Allgatherv(data, counts, recv) }) / 2; a > k.want {
				return fmt.Errorf("%s: a rank's Allgatherv allocates %v times a call, want %v", k.name, a, k.want)
			}
			return nil
		})
	}
}
