// Package floatbytes provides zero-copy reinterpretation between []float64
// and []byte, used at the boundary between numerical code (which wants
// float64 slices) and the communication layer (which moves bytes), and the
// []uint64 view of a byte buffer the datatype layer's word kernels copy
// through.  This is the single place in the repository that uses package
// unsafe; the conversions are the standard unsafe.Slice idiom and never
// outlive their source slice.
package floatbytes

import "unsafe"

// Bytes returns v's backing memory viewed as bytes.  The result aliases v.
func Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// Floats returns b viewed as float64s.  len(b) must be a multiple of 8 and
// b must be 8-byte aligned (slices from make([]byte, n) always are).  The
// result aliases b.
func Floats(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%8 != 0 {
		panic("floatbytes: length not a multiple of 8")
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		panic("floatbytes: misaligned byte slice")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Words returns b viewed as 8-byte words, len(b)/8 of them (a tail shorter
// than a word is not covered), and reports whether the view exists: a b
// whose base is not 8-byte aligned yields (nil, false), and the caller moves
// its bytes with copy instead.  The result aliases b.
func Words(b []byte) ([]uint64, bool) {
	if len(b) < 8 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8), true
}
