package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// fillPattern fills a buffer with a position-dependent byte pattern so that
// any misplaced pack byte is detected.
func fillPattern(b []byte) {
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
}

// referencePack packs via the Flatten oracle.
func referencePack(t *Type, count int, buf []byte) []byte {
	var out []byte
	for _, s := range Flatten(t, count) {
		out = append(out, buf[s.Off:s.Off+s.Len]...)
	}
	return out
}

// drainPacker collects the full packed stream from a Packer.
func drainPacker(p *Packer, buf []byte) []byte {
	scratch := make([]byte, 1<<20)
	var out []byte
	for {
		c, ok := p.NextChunk(scratch)
		if !ok {
			return out
		}
		if c.Direct {
			n := 0
			for _, s := range c.Segs {
				out = append(out, buf[s.Off:s.Off+s.Len]...)
				n += s.Len
			}
			if n != c.Bytes {
				panic("chunk byte count mismatch")
			}
		} else {
			if len(c.Data) != c.Bytes {
				panic("chunk byte count mismatch")
			}
			out = append(out, c.Data...)
		}
	}
}

func mkbuf(t *Type, count int) []byte {
	n := t.Extent() * count
	if n == 0 {
		n = 1
	}
	b := make([]byte, n)
	fillPattern(b)
	return b
}

func TestEnginesMatchOracleOnPaperColumn(t *testing.T) {
	elem := Contiguous(3, Double)
	col := Vector(64, 1, 64, elem) // first column of a 64x64 matrix
	buf := mkbuf(col, 1)
	want := referencePack(col, 1, buf)
	for _, kind := range []EngineKind{SingleContext, DualContext} {
		p := NewPacker(kind, col, 1, buf, Options{Pipeline: 256})
		got := drainPacker(p, buf)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: packed stream differs from oracle", kind)
		}
	}
}

func TestEnginesMatchOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		count := 1 + rng.Intn(3)
		buf := mkbuf(ty, count)
		want := referencePack(ty, count, buf)
		opt := Options{
			Pipeline:       32 * (1 + rng.Intn(32)),
			LookAhead:      1 + rng.Intn(20),
			DenseThreshold: 1 << uint(rng.Intn(12)),
		}
		for _, kind := range []EngineKind{SingleContext, DualContext} {
			p := NewPacker(kind, ty, count, buf, opt)
			got := drainPacker(p, buf)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d %v (%v, count %d, opt %+v): stream differs (len %d vs %d)",
					trial, kind, ty, count, opt, len(got), len(want))
			}
			if p.Remaining() {
				t.Fatalf("trial %d %v: Remaining() true after drain", trial, kind)
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		count := 1 + rng.Intn(3)
		src := mkbuf(ty, count)
		packed := Pack(ty, count, src)
		if len(packed) != ty.Size()*count {
			t.Fatalf("trial %d: packed %d bytes, want %d", trial, len(packed), ty.Size()*count)
		}
		dst := make([]byte, len(src))
		Unpack(ty, count, dst, packed)
		// Every byte inside the type map must match; bytes outside stay 0.
		for _, s := range Flatten(ty, count) {
			if !bytes.Equal(dst[s.Off:s.Off+s.Len], src[s.Off:s.Off+s.Len]) {
				t.Fatalf("trial %d: segment %v differs after round trip", trial, s)
			}
		}
	}
}

func TestUnpackerIncrementalArbitrarySlices(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		ty    *Type
		count int
	}{
		{Vector(100, 2, 5, Double), 1},
		{Vector(2, 1, 2, Double), 3}, // slices cross the instance boundaries
	} {
		src := mkbuf(tc.ty, tc.count)
		packed := referencePack(tc.ty, tc.count, src)
		dst := make([]byte, len(src))
		u := NewUnpacker(tc.ty, tc.count, dst)
		u.Consume(nil)
		if u.BytesWritten() != 0 || u.Done() {
			t.Fatalf("an empty slice advanced the unpacker: %d written", u.BytesWritten())
		}
		for off := 0; off < len(packed); {
			n := min(rng.Intn(38), len(packed)-off) // zero-length slices included
			u.Consume(packed[off : off+n])
			off += n
		}
		if !u.Done() {
			t.Fatalf("unpacker not done after full stream: %d of %d written", u.BytesWritten(), len(packed))
		}
		whole := NewUnpacker(tc.ty, tc.count, make([]byte, len(src)))
		whole.Consume(packed)
		if u.Metrics() != whole.Metrics() {
			t.Fatalf("piecewise unpack counted %+v, the stream consumed whole %+v", u.Metrics(), whole.Metrics())
		}
		for _, s := range Flatten(tc.ty, tc.count) {
			if !bytes.Equal(dst[s.Off:s.Off+s.Len], src[s.Off:s.Off+s.Len]) {
				t.Fatalf("segment %v differs", s)
			}
		}
	}
}

func TestUnpackerOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	u := NewUnpacker(Double, 1, make([]byte, 8))
	u.Consume(make([]byte, 9))
}

func TestUnpackUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Unpack(Double, 1, make([]byte, 8), make([]byte, 4))
}

func TestSingleContextSearchesOnSparse(t *testing.T) {
	// A sparse type (8-byte blocks, wide stride) must trigger the baseline
	// re-search on every chunk after the first.
	ty := Vector(4096, 1, 8, Double)
	buf := mkbuf(ty, 1)
	p := NewPacker(SingleContext, ty, 1, buf, Options{Pipeline: 1024})
	drainPacker(p, buf)
	m := p.Metrics()
	if m.Searches == 0 {
		t.Fatal("baseline engine never searched on a sparse type")
	}
	if m.SearchSegments == 0 {
		t.Fatal("searches visited no segments")
	}
	if m.PackedBytes != int64(ty.Size()) {
		t.Fatalf("packed %d bytes, want %d", m.PackedBytes, ty.Size())
	}
}

func TestDualContextNeverSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		ty := randomType(rng, 3)
		buf := mkbuf(ty, 2)
		p := NewPacker(DualContext, ty, 2, buf, Options{Pipeline: 128})
		drainPacker(p, buf)
		if m := p.Metrics(); m.Searches != 0 || m.SearchSegments != 0 {
			t.Fatalf("trial %d: dual-context engine searched (%+v)", trial, m)
		}
	}
}

func TestSearchCostQuadraticVsConstant(t *testing.T) {
	// Core claim of the paper: baseline search segments grow quadratically
	// with datatype size, dual-context look-ahead stays linear overall.
	search := func(n int) (single, dual int64) {
		ty := Vector(n, 1, 8, Double)
		buf := mkbuf(ty, 1)
		ps := NewPacker(SingleContext, ty, 1, buf, Options{Pipeline: 512})
		drainPacker(ps, buf)
		pd := NewPacker(DualContext, ty, 1, buf, Options{Pipeline: 512})
		drainPacker(pd, buf)
		return ps.Metrics().SearchSegments, pd.Metrics().SearchSegments
	}
	s1, d1 := search(1 << 10)
	s2, d2 := search(1 << 12)
	if d1 != 0 || d2 != 0 {
		t.Fatalf("dual-context searched: %d, %d", d1, d2)
	}
	// 4x the datatype should cost ~16x the search; allow generous slack.
	if s2 < 8*s1 {
		t.Fatalf("baseline search not superlinear: %d -> %d", s1, s2)
	}
}

func TestDensePathTaken(t *testing.T) {
	// Large contiguous blocks must ride the direct path under the default
	// threshold.
	ty := Vector(64, 2048, 4096, Double) // 16 KiB blocks
	buf := mkbuf(ty, 1)
	p := NewPacker(DualContext, ty, 1, buf, Options{})
	drainPacker(p, buf)
	m := p.Metrics()
	if m.DirectBytes == 0 {
		t.Fatal("dense type never took the direct path")
	}
	if m.PackedBytes != 0 {
		t.Fatalf("dense type packed %d bytes", m.PackedBytes)
	}
}

func TestSparsePathTaken(t *testing.T) {
	ty := Vector(512, 1, 4, Double)
	buf := mkbuf(ty, 1)
	p := NewPacker(DualContext, ty, 1, buf, Options{})
	drainPacker(p, buf)
	m := p.Metrics()
	if m.DirectBytes != 0 {
		t.Fatalf("sparse type sent %d bytes direct", m.DirectBytes)
	}
	if m.PackedBytes != int64(ty.Size()) {
		t.Fatalf("packed %d, want %d", m.PackedBytes, ty.Size())
	}
}

func TestDenseThresholdBoundary(t *testing.T) {
	// avg block exactly at threshold is dense; below is sparse.
	mk := func(blockBytes int) Metrics {
		ty := Hvector(64, 1, 2*blockBytes, newBase("blk", blockBytes))
		buf := mkbuf(ty, 1)
		p := NewPacker(DualContext, ty, 1, buf, Options{DenseThreshold: 128})
		drainPacker(p, buf)
		return p.Metrics()
	}
	if m := mk(128); m.DirectBytes == 0 {
		t.Error("block == threshold should be dense")
	}
	if m := mk(127); m.DirectBytes != 0 {
		t.Error("block < threshold should be sparse")
	}
}

func TestPackerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short buffer")
		}
	}()
	NewPacker(DualContext, Contiguous(100, Double), 1, make([]byte, 8), Options{})
}

func TestPackerScratchValidation(t *testing.T) {
	p := NewPacker(DualContext, Vector(16, 1, 4, Double), 1, make([]byte, 16*4*8), Options{Pipeline: 1024})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short scratch")
		}
	}()
	p.NextChunk(make([]byte, 16))
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Chunks: 1, PackedBytes: 2, DirectBytes: 3, PackedSegments: 4,
		DirectSegments: 5, ScannedSegments: 6, SearchSegments: 7, Searches: 8}
	b := a
	b.Add(a)
	if b.Chunks != 2 || b.PackedBytes != 4 || b.Searches != 16 || b.ScannedSegments != 12 {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestEngineKindString(t *testing.T) {
	if SingleContext.String() != "single-context" || DualContext.String() != "dual-context" {
		t.Fatal("bad EngineKind strings")
	}
}

func TestPackQuickProperty(t *testing.T) {
	// Property: both engines agree bytewise with the oracle for arbitrary
	// vector geometries.
	f := func(countRaw, blRaw, gapRaw, pipeRaw uint8) bool {
		count := 1 + int(countRaw)%64
		bl := 1 + int(blRaw)%8
		stride := bl + int(gapRaw)%8
		ty := Vector(count, bl, stride, Double)
		buf := mkbuf(ty, 1)
		want := referencePack(ty, 1, buf)
		opt := Options{Pipeline: 32 + int(pipeRaw)}
		a := drainPacker(NewPacker(SingleContext, ty, 1, buf, opt), buf)
		b := drainPacker(NewPacker(DualContext, ty, 1, buf, opt), buf)
		return bytes.Equal(a, want) && bytes.Equal(b, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTotalBytes(t *testing.T) {
	ty := Vector(10, 2, 4, Double)
	p := NewPacker(DualContext, ty, 3, mkbuf(ty, 3), Options{})
	if p.TotalBytes() != int64(ty.Size())*3 {
		t.Fatalf("TotalBytes = %d", p.TotalBytes())
	}
}
