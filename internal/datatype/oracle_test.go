package datatype

// copySegments is the generic segment walk Plan.Pack and Plan.Unpack ran
// before plans compiled to kernel programs: one copy per coalesced segment,
// the packed-stream offset a running sum.  It survives as the oracle the
// kernels are tested against.
func copySegments(segs []Segment, user, stream []byte, unpack bool) {
	o := 0
	for _, s := range segs {
		if unpack {
			copy(user[s.Off:s.Off+s.Len], stream[o:o+s.Len])
		} else {
			copy(stream[o:o+s.Len], user[s.Off:s.Off+s.Len])
		}
		o += s.Len
	}
}

// OraclePack and OracleUnpack are copySegments for the external fuzz
// target, which cannot see unexported names.
func OraclePack(segs []Segment, user, stream []byte)   { copySegments(segs, user, stream, false) }
func OracleUnpack(segs []Segment, user, stream []byte) { copySegments(segs, user, stream, true) }
