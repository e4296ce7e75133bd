package ckptio

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeCommit: restart trusts a commit record for the layout of the
// data file it sieves, so the decoder must never panic and never accept a
// record it cannot account for byte by byte.  Any input is either rejected
// with ErrDamaged or is exactly the encoding of what it decoded to.
func FuzzDecodeCommit(f *testing.F) {
	whole := encodeCommit(Commit{Epoch: 3, Cycle: 12, Residual: 1.5e-7, R0: 42,
		Total: 10000, StripeBytes: 4096, CRCs: []uint32{1, 0xdeadbeef, 3}})
	f.Add(whole)
	f.Add(encodeCommit(Commit{StripeBytes: 1})) // empty payload, no stripes
	f.Add(encodeCommit(Commit{Epoch: math.MaxUint64, Cycle: math.MaxInt64, Residual: math.NaN(),
		R0: math.Inf(-1), Total: 1, StripeBytes: math.MaxInt64, CRCs: []uint32{0}}))
	f.Add(whole[:commitHdrLen])                   // truncated inside the stripe list
	f.Add(append(bytes.Clone(whole), 0, 0, 0, 0)) // trailing garbage
	f.Add([]byte(commitMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cm, err := decodeCommit(b)
		if err != nil {
			if !errors.Is(err, ErrDamaged) {
				t.Fatalf("rejected with %v, which is not ErrDamaged", err)
			}
			return
		}
		if re := encodeCommit(cm); !bytes.Equal(re, b) {
			t.Fatalf("accepted %x\nbut it decodes to %+v, which encodes as\n%x", b, cm, re)
		}
	})
}
