package ckptio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// FuzzDecodeCommit: restart trusts a commit record for the layout of the
// data file it sieves, so the decoder must never panic and never accept a
// record it cannot account for byte by byte.  Any input is either rejected
// with ErrDamaged or is exactly the encoding of what it decoded to.
func FuzzDecodeCommit(f *testing.F) {
	whole := encodeCommit(Commit{Epoch: 3, Cycle: 12, Residual: 1.5e-7, R0: 42, Rho: 0.25,
		Total: 10000, StripeBytes: 4096, CRCs: []uint32{1, 0xdeadbeef, 3}})
	f.Add(whole)
	f.Add(encodeCommit(Commit{StripeBytes: 1})) // empty payload, no stripes
	f.Add(encodeCommit(Commit{Epoch: math.MaxUint64, Cycle: math.MaxInt64, Residual: math.NaN(),
		R0: math.Inf(-1), Rho: math.Copysign(0, -1), Total: 1, StripeBytes: math.MaxInt64, CRCs: []uint32{0}}))
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

// FuzzParseFaultPlan: mgsolve -iofault and nccdd -iofault hand ParseFaultPlan
// what the user typed.  It returns a one-line error and no plan, or a plan
// whose probabilities lie in [0, 1) and whose byte budget and crash point are
// not negative (no plan, and no error, only for the empty spec).
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{"", "short=0.2,eio=0.1,fsync=0.1,enospc=65536,crash=12,seed=7",
		"short=1", "eio=-0.5", "fsync=NaN", "short=0x1p-2", "enospc=-1", "crash=99999999999",
		"seed=18446744073709551615", "bogus=1", "short", ",", "short=0.5\neio=0.5"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			if p != nil || strings.Contains(err.Error(), "\n") {
				t.Fatalf("spec %q: plan %+v with error %q; want no plan and one line", spec, p, err)
			}
			return
		}
		if p == nil {
			if spec != "" {
				t.Fatalf("spec %q: neither a plan nor an error", spec)
			}
			return
		}
		for _, pr := range []float64{p.ShortWrite, p.WriteErr, p.FsyncErr} {
			if !(pr >= 0 && pr < 1) {
				t.Fatalf("spec %q: plan %+v has a probability outside [0, 1)", spec, p)
			}
		}
		if p.ENOSPCAfter < 0 || p.CrashAfterOps < 0 {
			t.Fatalf("spec %q: plan %+v has a negative budget or crash point", spec, p)
		}
	})
}
