package shm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/transport"
)

// testRing builds a standalone ring of the given power-of-two capacity.
func testRing(t *testing.T, capBytes int) *ring {
	t.Helper()
	var head, tail atomic.Uint64
	return &ring{head: &head, tail: &tail, data: make([]byte, capBytes), mask: uint64(capBytes - 1)}
}

func pushOne(t *testing.T, r *ring, tag int, payload []byte) bool {
	t.Helper()
	hdr := transport.Header{Ctx: 7, Src: 0, Tag: int32(tag)}
	return r.tryPush(&hdr, payload)
}

func popOne(t *testing.T, r *ring) (transport.Header, []byte, bool) {
	t.Helper()
	hdr, payload, ok, err := r.tryPop(1 << 20)
	if err != nil {
		t.Fatalf("tryPop: %v", err)
	}
	return hdr, payload, ok
}

// TestRingWraparound drives records across the segment boundary: with a
// capacity that is not a multiple of the record size, successive records
// land at every misalignment, including ones split across the wrap point
// of both the length prefix and the payload.
func TestRingWraparound(t *testing.T) {
	r := testRing(t, 1024)
	payload := make([]byte, 100) // record 149 bytes: 1024 % 149 != 0
	for i := range payload {
		payload[i] = byte(i)
	}
	for round := 0; round < 200; round++ {
		for i := range payload {
			payload[i] = byte(i + round)
		}
		if !pushOne(t, r, round, payload) {
			t.Fatalf("round %d: push failed on non-full ring", round)
		}
		hdr, got, ok := popOne(t, r)
		if !ok {
			t.Fatalf("round %d: empty ring after push", round)
		}
		if int(hdr.Tag) != round {
			t.Fatalf("round %d: tag %d", round, hdr.Tag)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: payload corrupted across wrap", round)
		}
		datatype.PutBuffer(got)
	}
	if r.head.Load() < 1024 {
		t.Fatalf("test never wrapped: head %d", r.head.Load())
	}
}

// TestRingFullBackpressure fills the ring to refusal, asserts the
// producer is refused exactly at capacity, then drains one record and
// verifies the freed space admits the next push.
func TestRingFullBackpressure(t *testing.T) {
	r := testRing(t, 1024)
	payload := make([]byte, 83)
	rec := uint64(recordBytes(len(payload)))
	want := uint64(1024) / rec
	var pushed uint64
	for pushOne(t, r, int(pushed), payload) {
		pushed++
		if pushed > want {
			t.Fatalf("ring accepted %d records of %d bytes into 1024", pushed, rec)
		}
	}
	if pushed != want {
		t.Fatalf("ring refused at %d records, capacity holds %d", pushed, want)
	}
	if free := r.free(); free >= rec {
		t.Fatalf("refused push with %d bytes free", free)
	}
	_, got, ok := popOne(t, r)
	if !ok {
		t.Fatal("full ring popped empty")
	}
	datatype.PutBuffer(got)
	if !pushOne(t, r, 99, payload) {
		t.Fatal("push still refused after drain of one record")
	}
}

// TestRingMixedSizes interleaves zero-length and 1-byte frames with KiB
// frames — the ex49 ghost-exchange shape where tiny corner contributions
// ride alongside bulk faces — through a concurrent producer/consumer
// pair, under -race in CI.
func TestRingMixedSizes(t *testing.T) {
	r := testRing(t, 4096)
	sizes := []int{0, 1024, 1, 2048, 0, 1, 1, 1024, 0, 512, 1, 1}
	const rounds = 500

	total := rounds * len(sizes)
	done := make(chan error, 1)
	go func() {
		seq := 0
		for seq < total {
			hdr, payload, ok, err := r.tryPop(1 << 20)
			if err != nil {
				done <- err
				return
			}
			if !ok {
				runtime.Gosched() // spin until the producer catches up
				continue
			}
			n := sizes[seq%len(sizes)]
			if int(hdr.Seq) != seq {
				done <- fmt.Errorf("record %d arrived as %d", seq, hdr.Seq)
				return
			}
			if len(payload) != n {
				done <- fmt.Errorf("record %d: %d bytes, want %d", seq, len(payload), n)
				return
			}
			for i, b := range payload {
				if b != byte(seq+i) {
					done <- fmt.Errorf("record %d corrupt at byte %d", seq, i)
					return
				}
			}
			datatype.PutBuffer(payload)
			seq++
		}
		done <- nil
	}()

	buf := make([]byte, 4096)
	for seq := 0; seq < total; seq++ {
		n := sizes[seq%len(sizes)]
		payload := buf[:n]
		for i := range payload {
			payload[i] = byte(seq + i)
		}
		hdr := transport.Header{Ctx: 1, Seq: uint64(seq)}
		for !r.tryPush(&hdr, payload) {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRingDrain verifies drain abandons the backlog atomically (the
// rejoin fresh-connection semantics).
func TestRingDrain(t *testing.T) {
	r := testRing(t, 1024)
	payload := make([]byte, 50)
	for i := 0; i < 3; i++ {
		if !pushOne(t, r, i, payload) {
			t.Fatalf("push %d refused", i)
		}
	}
	if n := r.drain(); n != uint64(3*recordBytes(50)) {
		t.Fatalf("drained %d bytes", n)
	}
	if _, _, ok := popOne(t, r); ok {
		t.Fatal("record visible after drain")
	}
	if !pushOne(t, r, 9, payload) {
		t.Fatal("push refused after drain")
	}
}
