package ckptio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"nccd/internal/mpi"
	"nccd/internal/obs"
)

// The two-phase exchange (Thakur/Gropp/Lusk).  Phase one redistributes:
// every rank splits its file-view segments at stripe boundaries and ships
// each piece to the aggregator that owns its stripe — an Alltoallv whose
// payloads are self-describing piece lists, riding the same binned
// Alltoallw machinery as the halo exchange.  Phase two writes: aggregators
// assemble contiguous stripe buffers and issue one large sequential WriteAt
// per stripe.  The reverse path never runs a collective at all: restore is
// data sieving, a per-rank read of the covering stripe extents unpacked
// through the view.

// piece is one stripe-local fragment of a rank's contribution: Len bytes at
// file offset Off, never crossing a stripe boundary.
type piece struct {
	Off, Len int64
	local    int // byte offset in the rank's local contribution buffer
}

// pieceHdrLen is the wire size of one piece header: file offset + length.
const pieceHdrLen = 16

// splitPieces cuts a view's segments at stripe boundaries and bins the
// resulting pieces by aggregator rank.  The local cursor tracks where each
// piece's bytes live in the contribution buffer.
func splitPieces(v FileView, l Layout) map[int][]piece {
	out := make(map[int][]piece)
	local := 0
	for _, seg := range v.Segs {
		off, rem := int64(seg.Off), int64(seg.Len)
		for rem > 0 {
			s := int(off / l.StripeBytes)
			n := (int64(s)+1)*l.StripeBytes - off
			if n > rem {
				n = rem
			}
			owner := l.StripeOwner(s)
			out[owner] = append(out[owner], piece{Off: off, Len: n, local: local})
			off += n
			rem -= n
			local += int(n)
		}
	}
	return out
}

// encodePieces serializes one destination's pieces and payload:
// [4 nPieces][per piece: 8 off, 8 len][payload bytes in piece order].
func encodePieces(pieces []piece, local []byte) []byte {
	n := 4 + pieceHdrLen*len(pieces)
	for _, p := range pieces {
		n += int(p.Len)
	}
	buf := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(len(pieces)))
	hdr, pay := 4, 4+pieceHdrLen*len(pieces)
	for _, p := range pieces {
		le.PutUint64(buf[hdr:], uint64(p.Off))
		le.PutUint64(buf[hdr+8:], uint64(p.Len))
		hdr += pieceHdrLen
		pay += copy(buf[pay:], local[p.local:p.local+int(p.Len)])
	}
	return buf
}

// stripeBufs holds an aggregator's assembly buffers, keyed by stripe index.
type stripeBufs map[int][]byte

// unpackPieces scatters one source rank's message into the aggregator's
// stripe buffers.  A malformed message (foreign stripe, bad framing) is a
// protocol bug, not an I/O fault, and panics.
func unpackPieces(msg []byte, l Layout, me int, bufs stripeBufs) {
	le := binary.LittleEndian
	if len(msg) < 4 {
		panic("checkpoint: truncated piece message")
	}
	n := int(le.Uint32(msg))
	hdr, pay := 4, 4+pieceHdrLen*n
	if len(msg) < pay {
		panic("checkpoint: truncated piece headers")
	}
	for i := 0; i < n; i++ {
		off := int64(le.Uint64(msg[hdr:]))
		ln := int64(le.Uint64(msg[hdr+8:]))
		hdr += pieceHdrLen
		s := int(off / l.StripeBytes)
		if l.StripeOwner(s) != me {
			panic("checkpoint: piece routed to wrong aggregator")
		}
		soff, sn := l.StripeRange(s)
		b := bufs[s]
		if b == nil {
			b = make([]byte, sn)
			bufs[s] = b
		}
		if pay+int(ln) > len(msg) || off-soff+ln > int64(len(b)) {
			panic("checkpoint: piece out of stripe bounds")
		}
		copy(b[off-soff:], msg[pay:pay+int(ln)])
		pay += int(ln)
	}
}

// collectiveWrite runs the full two-phase protocol for one checkpoint
// epoch.  It returns nil only when every rank's stripes are durable AND
// rank 0's commit record is durable.  The CRC gather carries the commit
// decision: each rank's local I/O status rides as one byte ahead of its
// CRCs, rank 0 writes the commit record only when every byte is clean, and
// the closing one-byte broadcast tells the others, so a local I/O fault on
// any rank aborts the epoch on all of them with no commit record published.
// A rank death in the exchanges or the gather returns its typed error on
// every rank that saw it, the communicator revoked; one in the closing
// broadcast surfaces as the collective's own typed error.
func collectiveWrite(c *mpi.Comm, fs FS, dir string, l Layout, v FileView, local []byte, cm Commit) error {
	size, me := c.Size(), c.Rank()
	start := c.Clock()

	// Phase one: redistribute pieces to their stripe aggregators.
	byDest := splitPieces(v, l)
	sendCounts := make([]int, size)
	var sendbuf []byte
	{
		msgs := make([][]byte, size)
		for r := 0; r < size; r++ {
			if pieces := byDest[r]; len(pieces) > 0 {
				msgs[r] = encodePieces(pieces, local)
				sendCounts[r] = len(msgs[r])
			}
		}
		for _, m := range msgs {
			sendbuf = append(sendbuf, m...)
		}
	}
	// The exchanges and the CRC gather run under Guard: a rank that sees a
	// peer die in them, or the communicator revoked, revokes it before it
	// returns, so that no survivor stays parked in a pattern it has left —
	// the gather's root, or a rank waiting in the closing broadcast.
	var myStripes []int
	var localErr error
	var gathered []byte
	commErr := mpi.Guard(func() error {
		countWire := make([]byte, 8*size)
		for r, n := range sendCounts {
			binary.LittleEndian.PutUint64(countWire[8*r:], uint64(n))
		}
		recvCountWire := make([]byte, 8*size)
		c.Alltoall(countWire, 8, recvCountWire)
		recvCounts := make([]int, size)
		recvTotal := 0
		for r := range recvCounts {
			recvCounts[r] = int(binary.LittleEndian.Uint64(recvCountWire[8*r:]))
			recvTotal += recvCounts[r]
		}
		recvbuf := make([]byte, recvTotal)
		c.Alltoallv(sendbuf, sendCounts, recvbuf, recvCounts)

		// Phase two: assemble stripes and write them sequentially.  Local I/O
		// faults are recorded, not raised — the rank must stay in the
		// protocol so its status byte aborts the epoch collectively.
		myStripes = l.stripesOf(me)
		myCRCs := make([]uint32, len(myStripes))
		if len(myStripes) > 0 {
			bufs := make(stripeBufs, len(myStripes))
			off := 0
			for r := 0; r < size; r++ {
				if recvCounts[r] > 0 {
					unpackPieces(recvbuf[off:off+recvCounts[r]], l, me, bufs)
					off += recvCounts[r]
				}
			}
			localErr = writeStripes(fs, filepath.Join(dir, dataName(cm.Epoch, cm.Cycle)), l, myStripes, bufs, myCRCs)
		}

		// Status and CRC collection on rank 0, counts derived from the layout
		// by everyone: one status byte, nonzero on a local I/O fault, then
		// the rank's stripe CRCs.
		crcWire := make([]byte, 1+4*len(myCRCs))
		if localErr != nil {
			crcWire[0] = 1
		}
		for i, crc := range myCRCs {
			binary.LittleEndian.PutUint32(crcWire[1+4*i:], crc)
		}
		crcCounts := make([]int, size)
		for r := 0; r < size; r++ {
			crcCounts[r] = 1 + 4*len(l.stripesOf(r))
		}
		gathered = c.Gatherv(0, crcWire, crcCounts)
		return nil
	})
	if commErr != nil {
		c.Revoke()
		if me == 0 {
			// Best effort: the uncommitted data file is garbage.
			_ = fs.Remove(filepath.Join(dir, dataName(cm.Epoch, cm.Cycle)))
		}
		return fmt.Errorf("checkpoint: epoch (%d,%d) aborted: %w", cm.Epoch, cm.Cycle, commErr)
	}

	// Commit: rank 0 checks every status byte, assembles the stripe CRC
	// list in stripe order and publishes the record fsync-then-rename; a
	// one-byte broadcast tells everyone whether the checkpoint now exists.
	ok := byte(1)
	if me == 0 {
		cm.CRCs = make([]uint32, l.NStripes())
		goff := 0
		for r := 0; r < size; r++ {
			if gathered[goff] != 0 {
				ok = 0
			}
			goff++
			for _, s := range l.stripesOf(r) {
				cm.CRCs[s] = binary.LittleEndian.Uint32(gathered[goff:])
				goff += 4
			}
		}
		if ok == 1 {
			if cerr := WriteFileDurable(fs, filepath.Join(dir, commitName(cm.Epoch, cm.Cycle)), encodeCommit(cm)); cerr != nil {
				ok = 0
				localErr = fmt.Errorf("commit record: %w", cerr) // rank 0's own status byte was clean
			}
			obs.Metrics.Counter("ckpt.commits").Inc()
		}
		if ok == 0 {
			// Best effort: the uncommitted data file is garbage.
			_ = fs.Remove(filepath.Join(dir, dataName(cm.Epoch, cm.Cycle)))
		}
	}
	out := c.Bcast(0, []byte{ok})
	if out[0] == 0 {
		if localErr != nil {
			return fmt.Errorf("checkpoint: epoch (%d,%d) aborted: %w", cm.Epoch, cm.Cycle, localErr)
		}
		return fmt.Errorf("checkpoint: epoch (%d,%d) aborted by a peer's fault", cm.Epoch, cm.Cycle)
	}
	c.Span("ckpt_write", start,
		obs.Attr{Key: "cycle", Val: fmt.Sprint(cm.Cycle)},
		obs.Attr{Key: "epoch", Val: fmt.Sprint(cm.Epoch)},
		obs.Attr{Key: "local_bytes", Val: fmt.Sprint(len(local))},
		obs.Attr{Key: "stripes", Val: fmt.Sprint(len(myStripes))})
	return nil
}

// writeStripes CRCs and writes an aggregator's stripes to the shared data
// file, one large sequential write per stripe, one fsync for the batch.
// Holes in a stripe (file-domain bytes no view covers) stay zero.
func writeStripes(fs FS, path string, l Layout, stripes []int, bufs stripeBufs, crcs []uint32) error {
	// No O_TRUNC: several aggregators write disjoint ranges of this file
	// concurrently, and truncation would erase a peer's stripes.
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	ioBytes := obs.Metrics.Counter("io.bytes")
	stripeHist := obs.Metrics.Histogram("io.stripe_bytes")
	for i, s := range stripes {
		off, n := l.StripeRange(s)
		b := bufs[s]
		if b == nil { // stripe fully hole: still must exist with zeros
			b = make([]byte, n)
		}
		crcs[i] = crc32.ChecksumIEEE(b)
		if err := WriteFileAt(f, b, off); err != nil {
			f.Close()
			return err
		}
		ioBytes.Add(int64(len(b)))
		stripeHist.Observe(int64(len(b)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	obs.Metrics.Counter("io.fsyncs").Inc()
	return f.Close()
}

// extent is one maximal run of consecutive touched stripes, read with a
// single ReadAt during sieving.
type extent struct {
	s0, s1 int // inclusive stripe range
	off    int64
	buf    []byte
}

// sieveRead restores this rank's view from a committed checkpoint by data
// sieving: one large read per run of touched stripes, CRC verification of
// every stripe read, then an unpack through the view into dst.  Purely
// local — no collective, no replicated gather.  Damage returns ErrDamaged.
func sieveRead(fs FS, path string, cm Commit, v FileView, dst []byte) error {
	l := Layout{Total: cm.Total, StripeBytes: cm.StripeBytes, Aggr: []int{0}}
	touched := touchedStripes(v, l)
	if len(touched) == 0 {
		return nil
	}
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("%w: data file: %v", ErrDamaged, err)
	}
	defer f.Close()

	ioBytes := obs.Metrics.Counter("io.bytes")
	extHist := obs.Metrics.Histogram("io.sieve_extent_bytes")
	var exts []extent
	for i := 0; i < len(touched); {
		j := i
		for j+1 < len(touched) && touched[j+1] == touched[j]+1 {
			j++
		}
		off, _ := l.StripeRange(touched[i])
		end, n := l.StripeRange(touched[j])
		e := extent{s0: touched[i], s1: touched[j], off: off, buf: make([]byte, end+n-off)}
		if _, rerr := f.ReadAt(e.buf, e.off); rerr != nil && rerr != io.EOF {
			return fmt.Errorf("%w: sieve read: %v", ErrDamaged, rerr)
		} else if rerr == io.EOF {
			return fmt.Errorf("%w: data file truncated", ErrDamaged)
		}
		ioBytes.Add(int64(len(e.buf)))
		extHist.Observe(int64(len(e.buf)))
		// Verify every stripe of the extent before trusting any byte.
		for s := e.s0; s <= e.s1; s++ {
			soff, sn := l.StripeRange(s)
			if s >= len(cm.CRCs) {
				return fmt.Errorf("%w: stripe %d beyond commit", ErrDamaged, s)
			}
			if crc32.ChecksumIEEE(e.buf[soff-e.off:soff-e.off+sn]) != cm.CRCs[s] {
				return fmt.Errorf("%w: stripe %d CRC mismatch", ErrDamaged, s)
			}
		}
		exts = append(exts, e)
		i = j + 1
	}

	// Unpack: segments and extents are both ascending, and a segment's
	// stripes are consecutive, so each segment lies within one extent.
	ei, local := 0, 0
	for _, seg := range v.Segs {
		s := int(int64(seg.Off) / l.StripeBytes)
		for exts[ei].s1 < s {
			ei++
		}
		e := exts[ei]
		copy(dst[local:local+seg.Len], e.buf[int64(seg.Off)-e.off:])
		local += seg.Len
	}
	return nil
}

// touchedStripes returns the ascending stripe indices a view reads.
func touchedStripes(v FileView, l Layout) []int {
	set := make(map[int]struct{})
	for _, seg := range v.Segs {
		s0 := int(int64(seg.Off) / l.StripeBytes)
		s1 := int(int64(seg.Off+seg.Len-1) / l.StripeBytes)
		for s := s0; s <= s1; s++ {
			set[s] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
