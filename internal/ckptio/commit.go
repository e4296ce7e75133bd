package ckptio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The commit record is what makes a collective checkpoint *exist*: the data
// file is written in place under its final name (stripe writes from several
// aggregators cannot be renamed atomically), so visibility is gated
// entirely on the small commit record, which is written fsync-then-rename
// by rank 0 only after every aggregator's stripes are durable and the
// world has agreed the epoch succeeded.  A crash at any earlier point
// leaves data-file garbage that no reader will ever look at.

// commitMagic identifies a collective-checkpoint commit record.
const commitMagic = "NCCDCOL1"

// commitVersion is the current record layout version: 2 added Rho.
const commitVersion = 2

// ErrDamaged reports a commit record or checkpoint payload that fails
// validation — truncated, bit-flipped, wrong magic, stale version.  Damaged
// checkpoints drop out of restore consensus; they never abort a solve.
var ErrDamaged = errors.New("checkpoint: damaged checkpoint")

// Commit describes one durable collective checkpoint.
type Commit struct {
	Epoch       uint64  // membership epoch that wrote it
	Cycle       int     // solver iteration number
	Residual    float64 // residual norm at the checkpoint
	R0          float64 // initial residual of the run
	Rho         float64 // the conjugate gradients' ⟨r, z⟩ at the checkpoint; 0 for the Richardson iteration
	Total       int64   // data-file payload bytes
	StripeBytes int64   // stripe size used by the writing layout
	// CRCs holds one CRC-32 (IEEE) per stripe, in stripe order; readers
	// verify every stripe they touch before trusting a byte of it.
	CRCs []uint32
}

// commitHdrLen is the fixed prefix: magic, version, epoch, cycle, residual,
// r0, rho, total, stripe, nstripes.
const commitHdrLen = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4

// encodeCommit serializes a commit record with a CRC-32 trailer over
// everything before it.
func encodeCommit(c Commit) []byte {
	buf := make([]byte, commitHdrLen+4*len(c.CRCs)+4)
	copy(buf, commitMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], commitVersion)
	le.PutUint64(buf[12:], c.Epoch)
	le.PutUint64(buf[20:], uint64(c.Cycle))
	le.PutUint64(buf[28:], math.Float64bits(c.Residual))
	le.PutUint64(buf[36:], math.Float64bits(c.R0))
	le.PutUint64(buf[44:], math.Float64bits(c.Rho))
	le.PutUint64(buf[52:], uint64(c.Total))
	le.PutUint64(buf[60:], uint64(c.StripeBytes))
	le.PutUint32(buf[68:], uint32(len(c.CRCs)))
	for i, crc := range c.CRCs {
		le.PutUint32(buf[commitHdrLen+4*i:], crc)
	}
	le.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
	return buf
}

// decodeCommit parses and validates a commit record.  Any malformation
// returns an error wrapping ErrDamaged.
func decodeCommit(buf []byte) (Commit, error) {
	var c Commit
	if len(buf) < commitHdrLen+4 {
		return c, fmt.Errorf("%w: commit record truncated (%d bytes)", ErrDamaged, len(buf))
	}
	if string(buf[:8]) != commitMagic {
		return c, fmt.Errorf("%w: bad commit magic", ErrDamaged)
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[8:]); v != commitVersion {
		return c, fmt.Errorf("%w: commit version %d, want %d", ErrDamaged, v, commitVersion)
	}
	c.Epoch = le.Uint64(buf[12:])
	c.Cycle = int(le.Uint64(buf[20:]))
	c.Residual = math.Float64frombits(le.Uint64(buf[28:]))
	c.R0 = math.Float64frombits(le.Uint64(buf[36:]))
	c.Rho = math.Float64frombits(le.Uint64(buf[44:]))
	c.Total = int64(le.Uint64(buf[52:]))
	c.StripeBytes = int64(le.Uint64(buf[60:]))
	n := int(le.Uint32(buf[68:]))
	if len(buf) != commitHdrLen+4*n+4 {
		return c, fmt.Errorf("%w: commit record %d bytes, want %d for %d stripes",
			ErrDamaged, len(buf), commitHdrLen+4*n+4, n)
	}
	if got, want := crc32.ChecksumIEEE(buf[:len(buf)-4]), le.Uint32(buf[len(buf)-4:]); got != want {
		return c, fmt.Errorf("%w: commit record CRC mismatch", ErrDamaged)
	}
	if c.Total < 0 || c.StripeBytes <= 0 || c.Cycle < 0 {
		return c, fmt.Errorf("%w: commit record fields out of range", ErrDamaged)
	}
	want := int((c.Total + c.StripeBytes - 1) / c.StripeBytes)
	if n != want {
		return c, fmt.Errorf("%w: commit lists %d stripes, layout implies %d", ErrDamaged, n, want)
	}
	c.CRCs = make([]uint32, n)
	for i := range c.CRCs {
		c.CRCs[i] = le.Uint32(buf[commitHdrLen+4*i:])
	}
	return c, nil
}

// dataName and commitName are the on-disk names of a checkpoint's pieces,
// keyed by (epoch, cycle) so incarnations across recoveries never collide
// — the retention fix rides on this keying.
func dataName(epoch uint64, cycle int) string {
	return fmt.Sprintf("col-e%06d-c%09d.data", epoch, cycle)
}

func commitName(epoch uint64, cycle int) string {
	return fmt.Sprintf("col-e%06d-c%09d.commit", epoch, cycle)
}

// parseCommitName inverts commitName; ok is false for foreign files.
func parseCommitName(name string) (epoch uint64, cycle int, ok bool) {
	var e uint64
	var c int
	if _, err := fmt.Sscanf(name, "col-e%06d-c%09d.commit", &e, &c); err != nil {
		return 0, 0, false
	}
	if name != commitName(e, c) {
		return 0, 0, false
	}
	return e, c, true
}
