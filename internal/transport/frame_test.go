package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func randomDataFrame(rng *rand.Rand) Frame {
	payload := make([]byte, rng.Intn(1<<12))
	rng.Read(payload)
	return Frame{
		Kind: KindData,
		Hdr: Header{
			Ctx:      rng.Uint64(),
			Src:      int32(rng.Intn(1 << 20)),
			Tag:      int32(rng.Intn(1 << 20)),
			Arrival:  rng.NormFloat64(),
			Reliable: rng.Intn(2) == 1,
			WSrc:     int32(rng.Intn(1 << 20)),
			Seq:      rng.Uint64(),
			Sum:      rng.Uint32(),
			MSeq:     rng.Uint64(),
		},
		Payload: payload,
	}
}

func framesEqual(a, b *Frame) bool {
	return a.Kind == b.Kind && a.Hdr == b.Hdr && bytes.Equal(a.Payload, b.Payload) &&
		a.WorldID == b.WorldID && a.Rank == b.Rank && a.WSize == b.WSize &&
		a.Epoch == b.Epoch
}

// TestFrameRoundTrip is the codec property: decode(encode(f)) == f for
// random data frames, and consumed length equals the encoding's length.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < 500; i++ {
		f := randomDataFrame(rng)
		wire := EncodeFrame(nil, &f)
		got, n, err := DecodeFrame(wire, 0)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if n != len(wire) {
			t.Fatalf("iter %d: consumed %d of %d bytes", i, n, len(wire))
		}
		if !framesEqual(&got, &f) {
			t.Fatalf("iter %d: round-trip mismatch", i)
		}
	}
}

func TestFrameRoundTripControl(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindHello, WorldID: 0xdeadbeef, Rank: 3, WSize: 8},
		{Kind: KindHello, WorldID: 1, Rank: 0, WSize: 4, Epoch: 1<<40 + 9},
		{Kind: KindBeat, Epoch: 42},
		{Kind: KindData, Hdr: Header{}, Payload: nil},
	} {
		wire := EncodeFrame(nil, &f)
		got, n, err := DecodeFrame(wire, 0)
		if err != nil || n != len(wire) {
			t.Fatalf("kind %d: decode err=%v n=%d len=%d", f.Kind, err, n, len(wire))
		}
		// Decoded empty payloads come back as empty subslices, not nil.
		if len(got.Payload) == 0 {
			got.Payload = nil
		}
		if !framesEqual(&got, &f) {
			t.Fatalf("kind %d: round-trip mismatch: %+v vs %+v", f.Kind, got, f)
		}
	}
}

// TestFrameTruncation: every strict prefix of a valid frame must decode to
// ErrShortFrame (more bytes needed), never to a bogus success.
func TestFrameTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := randomDataFrame(rng)
	wire := EncodeFrame(nil, &f)
	for cut := 0; cut < len(wire); cut++ {
		_, _, err := DecodeFrame(wire[:cut], 0)
		if err != ErrShortFrame && err != ErrFrameLength {
			t.Fatalf("prefix of %d/%d bytes: got err %v, want short-frame", cut, len(wire), err)
		}
		if cut >= framePrefixLen && err == ErrFrameLength {
			t.Fatalf("prefix of %d/%d bytes with intact length field decoded as bad length", cut, len(wire))
		}
	}
}

// TestFrameCorruptLengthPrefix: damaged length prefixes are rejected by the
// sanity bounds — zero, too small for any body, or beyond the frame cap.
func TestFrameCorruptLengthPrefix(t *testing.T) {
	f := Frame{Kind: KindBeat, Epoch: 9}
	wire := EncodeFrame(nil, &f)
	for _, n := range []uint32{0, 1, 4, 1<<31 - 1, 1 << 30} {
		bad := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(bad, n)
		if _, _, err := DecodeFrame(bad, 0); err != ErrFrameLength {
			t.Fatalf("length prefix %d: got %v, want ErrFrameLength", n, err)
		}
	}
	// A plausible-but-larger length must read as truncation, not success.
	bad := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(bad, uint32(len(wire)-framePrefixLen+8))
	if _, _, err := DecodeFrame(bad, 0); err != ErrShortFrame {
		t.Fatalf("inflated length: got %v, want ErrShortFrame", err)
	}
}

// TestFrameCRCTrailerRejects: flipping any single byte after the length
// prefix must fail the checksum (or, for kind/length-bearing bytes, decode
// as malformed) — never return a frame whose contents differ silently.
func TestFrameCRCTrailerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomDataFrame(rng)
	f.Payload = f.Payload[:64]
	wire := EncodeFrame(nil, &f)
	for off := framePrefixLen; off < len(wire); off++ {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0xFF
		got, _, err := DecodeFrame(bad, 0)
		if err == ErrChecksum {
			continue
		}
		if err == nil && framesEqual(&got, &f) {
			t.Fatalf("flip at %d: decoded identical frame without error", off)
		}
		if err == nil {
			t.Fatalf("flip at %d: silently decoded altered frame", off)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes and encodings with random damage to
// the decoder: it must never panic, and any successful decode must
// re-encode to semantically identical bytes (payload aside, which aliases
// the input).
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		fr := randomDataFrame(rng)
		f.Add(EncodeFrame(nil, &fr))
	}
	f.Add(EncodeFrame(nil, &Frame{Kind: KindHello, WorldID: 5, Rank: 1, WSize: 4, Epoch: 2}))
	f.Add(EncodeFrame(nil, &Frame{Kind: KindData, Hdr: Header{Ctx: 3, Job: 9, MSeq: 1}}))
	f.Add(EncodeFrame(nil, &Frame{Kind: KindBeat, Epoch: 7}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, 1<<20)
		if err != nil {
			return
		}
		if n < 1+framePrefixLen+frameTrailerLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		re := EncodeFrame(nil, &fr)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:n])
		}
	})
}
