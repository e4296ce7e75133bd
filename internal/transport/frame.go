package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The wire frame.  Every frame is
//
//	[4] length   — uint32 LE, byte count of body plus CRC trailer
//	[…] body     — kind byte followed by kind-specific fields
//	[4] CRC-32   — IEEE checksum of the body
//
// The length prefix is the only field not covered by the checksum: a
// corrupted prefix desynchronizes the stream and is caught by the length
// sanity bounds instead.  A data-frame body is the runtime Header and the
// payload; loss, duplication and damage between ranks are the runtime's
// business (its sequence/CRC/dedup loop rides in the Header), so the frame
// carries no reliability fields of its own.

// Frame kinds.
const (
	// KindHello opens a connection: world id, sender rank, world size, and
	// the sender's membership epoch.  An accepting endpoint rejects a hello
	// from an older epoch, fencing stale traffic after a rank is replaced.
	KindHello byte = 1
	// KindData carries one runtime message (Header + payload).
	KindData byte = 2
	// KindBeat is a heartbeat beacon carrying the sender's membership
	// epoch.  Beats prove liveness of a peer that has nothing to send; a
	// peer that stops producing frames of any kind for SuspectAfter
	// intervals becomes suspect, and after FailAfter it is failed.
	KindBeat byte = 4
)

// Frame is the decoded form of one wire frame.
type Frame struct {
	Kind byte

	// Data frames.
	Hdr     Header
	Payload []byte // subslice of the decode input; copy to retain

	// Hello frames.
	WorldID uint64
	Rank    int32
	WSize   int32

	// Hello and beat frames: the sender's membership epoch.
	Epoch uint64
}

// Frame geometry.
const (
	framePrefixLen  = 4                 // length prefix
	frameTrailerLen = 4                 // CRC-32 trailer
	dataHeadLen     = 1 + hdrLen        // kind + header
	helloBodyLen    = 1 + 8 + 4 + 4 + 8 // kind + world id + rank + size + epoch
	beatBodyLen     = 1 + 8             // kind + epoch
	hdrLen          = 8 + 4 + 4 + 8 + 1 + 4 + 8 + 4 + 8 + 8

	// DefaultMaxFrame bounds a frame's wire size; a length prefix above the
	// limit is treated as stream corruption.
	DefaultMaxFrame = 1 << 28
)

// Codec errors.
var (
	// ErrShortFrame reports a truncated frame: more bytes are needed.
	ErrShortFrame = errors.New("transport: short frame")
	// ErrFrameLength reports an insane length prefix (zero, shorter than
	// the smallest body, or beyond the frame size limit).
	ErrFrameLength = errors.New("transport: bad frame length")
	// ErrChecksum reports a CRC trailer mismatch.
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// ErrBadFrame reports a structurally invalid body (unknown kind,
	// inconsistent kind-specific length).
	ErrBadFrame = errors.New("transport: malformed frame")
)

// HeaderLen is the encoded size of a Header, exported for transports that
// define their own record framing (the shm rings) but share the header
// layout with the TCP wire format.
const HeaderLen = hdrLen

// AppendHeader appends the canonical wire encoding of h to dst.
func AppendHeader(dst []byte, h *Header) []byte { return appendHeader(dst, h) }

// DecodeHeader decodes a Header from the first HeaderLen bytes of b.
func DecodeHeader(b []byte) Header { return decodeHeader(b) }

func appendHeader(dst []byte, h *Header) []byte {
	var b [hdrLen]byte
	binary.LittleEndian.PutUint64(b[0:], h.Ctx)
	binary.LittleEndian.PutUint32(b[8:], uint32(h.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Tag))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(h.Arrival))
	if h.Reliable {
		b[24] = 1
	}
	binary.LittleEndian.PutUint32(b[25:], uint32(h.WSrc))
	binary.LittleEndian.PutUint64(b[29:], h.Seq)
	binary.LittleEndian.PutUint32(b[37:], h.Sum)
	binary.LittleEndian.PutUint64(b[41:], h.MSeq)
	binary.LittleEndian.PutUint64(b[49:], h.Job)
	return append(dst, b[:]...)
}

func decodeHeader(b []byte) Header {
	return Header{
		Ctx:      binary.LittleEndian.Uint64(b[0:]),
		Src:      int32(binary.LittleEndian.Uint32(b[8:])),
		Tag:      int32(binary.LittleEndian.Uint32(b[12:])),
		Arrival:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Reliable: b[24] != 0,
		WSrc:     int32(binary.LittleEndian.Uint32(b[25:])),
		Seq:      binary.LittleEndian.Uint64(b[29:]),
		Sum:      binary.LittleEndian.Uint32(b[37:]),
		MSeq:     binary.LittleEndian.Uint64(b[41:]),
		Job:      binary.LittleEndian.Uint64(b[49:]),
	}
}

// EncodeFrame appends the complete wire encoding of f — length prefix,
// body, CRC trailer — to dst and returns the extended slice.
func EncodeFrame(dst []byte, f *Frame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	body := len(dst)
	dst = append(dst, f.Kind)
	switch f.Kind {
	case KindHello:
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], f.WorldID)
		binary.LittleEndian.PutUint32(b[8:], uint32(f.Rank))
		binary.LittleEndian.PutUint32(b[12:], uint32(f.WSize))
		binary.LittleEndian.PutUint64(b[16:], f.Epoch)
		dst = append(dst, b[:]...)
	case KindData:
		dst = appendHeader(dst, &f.Hdr)
		dst = append(dst, f.Payload...)
	case KindBeat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[0:], f.Epoch)
		dst = append(dst, b[:]...)
	default:
		panic(fmt.Sprintf("transport: encoding unknown frame kind %d", f.Kind))
	}
	sum := crc32.ChecksumIEEE(dst[body:])
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	dst = append(dst, tr[:]...)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-body))
	return dst
}

// DecodeFrame decodes one frame from the head of b (starting at the length
// prefix) and returns it with the number of bytes consumed.  The returned
// Payload aliases b.  ErrShortFrame means b holds a truncated frame;
// ErrFrameLength, ErrChecksum and ErrBadFrame mean the stream is damaged at
// this frame.
func DecodeFrame(b []byte, maxFrame int) (Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(b) < framePrefixLen {
		return Frame{}, 0, ErrShortFrame
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1+frameTrailerLen || n > maxFrame {
		return Frame{}, 0, ErrFrameLength
	}
	if len(b) < framePrefixLen+n {
		return Frame{}, 0, ErrShortFrame
	}
	body := b[framePrefixLen : framePrefixLen+n-frameTrailerLen]
	want := binary.LittleEndian.Uint32(b[framePrefixLen+n-frameTrailerLen:])
	if crc32.ChecksumIEEE(body) != want {
		return Frame{}, framePrefixLen + n, ErrChecksum
	}
	f, err := decodeBody(body)
	return f, framePrefixLen + n, err
}

func decodeBody(body []byte) (Frame, error) {
	f := Frame{Kind: body[0]}
	switch f.Kind {
	case KindHello:
		if len(body) != helloBodyLen {
			return Frame{}, ErrBadFrame
		}
		f.WorldID = binary.LittleEndian.Uint64(body[1:])
		f.Rank = int32(binary.LittleEndian.Uint32(body[9:]))
		f.WSize = int32(binary.LittleEndian.Uint32(body[13:]))
		f.Epoch = binary.LittleEndian.Uint64(body[17:])
	case KindData:
		if len(body) < dataHeadLen {
			return Frame{}, ErrBadFrame
		}
		f.Hdr = decodeHeader(body[1:])
		f.Payload = body[dataHeadLen:]
	case KindBeat:
		if len(body) != beatBodyLen {
			return Frame{}, ErrBadFrame
		}
		f.Epoch = binary.LittleEndian.Uint64(body[1:])
	default:
		return Frame{}, ErrBadFrame
	}
	return f, nil
}
