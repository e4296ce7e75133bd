package transport

import (
	"sync"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
)

// ex49Segments is the degenerate gather shape a DMDA corner rank produces
// in the elasticity example: zero-length entries, single-byte fragments and
// multi-KiB runs interleaved in one type map.
func ex49Segments() []datatype.Segment {
	return []datatype.Segment{
		{Off: 0, Len: 0},
		{Off: 0, Len: 1},
		{Off: 64, Len: 4096},
		{Off: 4500, Len: 0},
		{Off: 4503, Len: 1},
		{Off: 4600, Len: 8192},
		{Off: 13000, Len: 2},
		{Off: 13500, Len: 0},
		{Off: 13507, Len: 1},
		{Off: 14000, Len: 2048},
	}
}

func vectoredUser(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

func gatherReference(user []byte, segs []datatype.Segment) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, user[s.Off:s.Off+s.Len]...)
	}
	return out
}

// TestSendVectoredLossy: the degenerate ex49 shape under a seeded lossy
// fault plan arrives exactly once and bitwise intact, the reliability
// protocol visibly fired, and at least one frame was sealed into a private
// copy for retransmission (copy-on-retransmit actually engaged).
func TestSendVectoredLossy(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.05}
	eps, rec := startMesh(t, 2, fp, nil)
	segs := ex49Segments()
	user := vectoredUser(16384)
	want := gatherReference(user, segs)

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			hdr := Header{Ctx: 1, Src: 0, Tag: int32(i)}
			if err := eps[0].SendVectored(1, hdr, user, segs); err != nil {
				t.Errorf("vectored send %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	waitFor(t, "lossy vectored delivery", func() bool { return len(rec.get(1)) == rounds })
	seen := map[int32]bool{}
	for _, m := range rec.get(1) {
		if seen[m.Hdr.Tag] {
			t.Fatalf("tag %d delivered twice", m.Hdr.Tag)
		}
		seen[m.Hdr.Tag] = true
		if len(m.Payload) != len(want) {
			t.Fatalf("tag %d: %d bytes, want %d", m.Hdr.Tag, len(m.Payload), len(want))
		}
		for i := range want {
			if m.Payload[i] != want[i] {
				t.Fatalf("tag %d: payload byte %d mismatch", m.Hdr.Tag, i)
			}
		}
	}
	st := eps[0].Stats()
	if st.VectoredSends != rounds {
		t.Fatalf("VectoredSends = %d, want %d", st.VectoredSends, rounds)
	}
	if st.SealSpills == 0 {
		t.Fatalf("lossy run sealed no frames; copy-on-retransmit never engaged")
	}
	if st.Retransmits == 0 && st.Corrupted == 0 && st.Dropped == 0 {
		t.Fatalf("fault plan injected nothing; test is vacuous")
	}
}
