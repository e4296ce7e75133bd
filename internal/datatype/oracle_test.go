package datatype

// OraclePack and OracleUnpack run the generic per-segment walk over a type
// map — one copy per coalesced segment, the packed-stream offset a running
// sum — for the external fuzz target, which cannot see unexported names.
func OraclePack(segs []Segment, user, stream []byte)   { oracleWalk(segs, user, stream, false) }
func OracleUnpack(segs []Segment, user, stream []byte) { oracleWalk(segs, user, stream, true) }

func oracleWalk(segs []Segment, user, stream []byte, unpack bool) {
	dstOff := make([]int, len(segs))
	off := 0
	for i, s := range segs {
		dstOff[i] = off
		off += s.Len
	}
	copySegments(segs, dstOff, user, stream, unpack)
}
