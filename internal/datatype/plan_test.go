package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestPlanMatchesOracleRandomized property-tests the compiled-plan layer
// against both interpreted streaming engines over randomized nested types:
// the packed stream must be bytewise identical, and unpacking the stream
// must restore every byte of the type map.
func TestPlanMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		count := 1 + rng.Intn(3)
		buf := mkbuf(ty, count)
		p := CompilePlan(ty, count)

		dst := make([]byte, p.Bytes())
		p.Pack(buf, dst)
		for _, kind := range []EngineKind{SingleContext, DualContext} {
			want := PackEngine(kind, ty, count, buf)
			if !bytes.Equal(dst, want) {
				t.Fatalf("trial %d (%v, count %d): plan stream differs from %v engine", trial, ty, count, kind)
			}
		}

		back := make([]byte, len(buf))
		p.Unpack(back, dst)
		for _, s := range Flatten(ty, count) {
			if !bytes.Equal(back[s.Off:s.Off+s.Len], buf[s.Off:s.Off+s.Len]) {
				t.Fatalf("trial %d: segment %v differs after plan round trip", trial, s)
			}
		}
	}
}

// TestPlanInvariants checks the compiled representation itself: total bytes,
// agreement with the flattener, and a kernel program that covers the packed
// stream exactly once, in order, block for block the segment list.
func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		ty := randomType(rng, 3)
		count := 1 + rng.Intn(3)
		p := CompilePlan(ty, count)
		segs := Flatten(ty, count)
		if p.NumSegments() != len(segs) {
			t.Fatalf("trial %d: plan has %d segments, flatten %d", trial, p.NumSegments(), len(segs))
		}
		if p.Bytes() != ty.Size()*count {
			t.Fatalf("trial %d: plan bytes %d, want %d", trial, p.Bytes(), ty.Size()*count)
		}
		if p.Count() != count {
			t.Fatalf("trial %d: plan count %d, want %d", trial, p.Count(), count)
		}
		off, i := 0, 0
		for _, r := range p.runs {
			if r.dst != off {
				t.Fatalf("trial %d: run starts at stream offset %d, want %d", trial, r.dst, off)
			}
			for k := 0; k < r.count; k++ {
				o := r.off + k*r.stride
				if r.tab != nil {
					o = r.tab[k]
				}
				if want := (Segment{o, r.blockLen}); segs[i] != want {
					t.Fatalf("trial %d: program block %d is %v, segment list has %v", trial, i, want, segs[i])
				}
				i++
			}
			off += r.count * r.blockLen
		}
		if i != len(segs) || off != p.Bytes() {
			t.Fatalf("trial %d: program covers %d blocks and %d bytes of %d and %d", trial, i, off, len(segs), p.Bytes())
		}
	}
}

// TestPlanCoalescesContiguous confirms that a fully contiguous layout
// compiles to a single segment even across instance repetitions.
func TestPlanCoalescesContiguous(t *testing.T) {
	p := CompilePlan(Contiguous(16, Double), 4)
	if p.NumSegments() != 1 {
		t.Fatalf("contiguous plan has %d segments, want 1", p.NumSegments())
	}
	if p.Bytes() != 16*8*4 {
		t.Fatalf("contiguous plan bytes %d", p.Bytes())
	}
}

// TestPlanPackZeroAllocsSteadyState is the acceptance criterion: once a plan
// is compiled and cached, pack/unpack and cache lookup allocate nothing.
func TestPlanPackZeroAllocsSteadyState(t *testing.T) {
	ty := Vector(2048, 2, 4, Double) // 32 KiB data
	p := PlanFor(ty, 1)
	src := mkbuf(ty, 1)
	dst := make([]byte, p.Bytes())

	if n := testing.AllocsPerRun(100, func() { p.Pack(src, dst) }); n != 0 {
		t.Errorf("Pack allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.Unpack(src, dst) }); n != 0 {
		t.Errorf("Unpack allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { PlanFor(ty, 1) }); n != 0 {
		t.Errorf("cached PlanFor allocates %.1f per run, want 0", n)
	}
}

// TestPlanCacheHitMissEviction exercises the LRU: hits promote, inserts past
// capacity evict the least recently used entry.
func TestPlanCacheHitMissEviction(t *testing.T) {
	c := NewPlanCache(2)
	a := Vector(4, 1, 2, Double)
	b := Vector(8, 1, 2, Double)
	d := Vector(16, 1, 2, Double)

	pa := c.Get(a, 1)      // miss
	if c.Get(a, 1) != pa { // hit, same plan
		t.Fatal("second Get returned a different plan")
	}
	c.Get(b, 1) // miss; cache {a,b}
	c.Get(a, 1) // hit; a is MRU
	c.Get(d, 1) // miss; evicts b
	c.Get(b, 1) // miss again; evicts a

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 4 || s.Evictions != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses / 2 evictions / 2 entries", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("stats = %+v, want positive live plan bytes", s)
	}
	// Live bytes must track the resident plans exactly through eviction.
	var want int64
	for _, ty := range []*Type{d, b} {
		want += c.Get(ty, 1).MemBytes() // both hits, cache unchanged
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("live bytes = %d, want %d (sum of resident plans)", got, want)
	}
}

// TestPlanCacheStructuralSharing: independently built but structurally
// identical types share one compiled plan, the way two ranks constructing
// the same ghost layout should.
func TestPlanCacheStructuralSharing(t *testing.T) {
	c := NewPlanCache(8)
	mk := func() *Type { return Vector(8, 2, 4, Contiguous(3, Double)) }
	p1 := c.Get(mk(), 2)
	p2 := c.Get(mk(), 2)
	if p1 != p2 {
		t.Fatal("structurally identical types compiled to distinct plans")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestPlanCacheCountDistinct: the same type at different counts must occupy
// distinct cache entries.
func TestPlanCacheCountDistinct(t *testing.T) {
	c := NewPlanCache(8)
	ty := Vector(4, 1, 2, Double)
	if c.Get(ty, 1) == c.Get(ty, 2) {
		t.Fatal("counts 1 and 2 shared a plan")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", s)
	}
}

// TestPlanSignatureDistinguishesLayouts: types with equal size but different
// layouts must not collide in the cache key.
func TestPlanSignatureDistinguishesLayouts(t *testing.T) {
	c := NewPlanCache(8)
	a := Vector(8, 2, 4, Double)  // 8 blocks of 16 bytes
	b := Vector(16, 1, 2, Double) // 16 blocks of 8 bytes; same size
	if a.Size() != b.Size() {
		t.Fatal("test types must have equal size")
	}
	pa, pb := c.Get(a, 1), c.Get(b, 1)
	if pa == pb {
		t.Fatal("different layouts shared a plan")
	}
	if pa.NumSegments() == pb.NumSegments() {
		t.Fatal("expected different segment counts")
	}
}

// TestRequiredBytesBounds: the memoized size bound must cover every flattened
// segment and equal extent*count for types whose span equals their extent.
func TestRequiredBytesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		count := 1 + rng.Intn(3)
		need := RequiredBytes(ty, count)
		maxEnd := 0
		for _, s := range Flatten(ty, count) {
			if end := s.Off + s.Len; end > maxEnd {
				maxEnd = end
			}
		}
		if need < maxEnd {
			t.Fatalf("trial %d (%v): RequiredBytes %d < max segment end %d", trial, ty, need, maxEnd)
		}
		if ty.Size() > 0 && ty.Span() == ty.Extent() && need != ty.Extent()*count {
			t.Fatalf("trial %d: RequiredBytes %d != extent*count %d", trial, need, ty.Extent()*count)
		}
	}
}

// TestRequiredBytesResized: a resized type's span can exceed its extent; the
// bound must still cover the data of the last instance.
func TestRequiredBytesResized(t *testing.T) {
	inner := Contiguous(4, Double) // 32 bytes of data
	shrunk := Resized(inner, 8)    // extent 8 < span 32
	if got, want := RequiredBytes(shrunk, 3), 2*8+32; got != want {
		t.Fatalf("RequiredBytes = %d, want %d", got, want)
	}
	// Packing count instances must not read past the reported bound.
	buf := make([]byte, RequiredBytes(shrunk, 3))
	fillPattern(buf)
	p := CompilePlan(shrunk, 3)
	out := make([]byte, p.Bytes())
	p.Pack(buf, out)
}

// TestPlanThroughputVsInterpretedEngine is the headline acceptance check: at
// a 256 KiB strided workload the compiled plan must pack at least 2x faster
// than the interpreted single-context engine.  Timing-based, so it retries a
// few times before declaring failure to ride out scheduler noise.
func TestPlanThroughputVsInterpretedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ty := Vector(16384, 2, 4, Double) // 256 KiB data in 16-byte segments
	buf := mkbuf(ty, 1)
	p := CompilePlan(ty, 1)
	dst := make([]byte, p.Bytes())
	scratch := make([]byte, 1<<16)
	const iters = 32

	engineOnce := func() {
		pk := NewPacker(SingleContext, ty, 1, buf, Options{})
		n := 0
		for {
			c, ok := pk.NextChunk(scratch)
			if !ok {
				break
			}
			if c.Direct {
				for _, s := range c.Segs {
					copy(dst[n:], buf[s.Off:s.Off+s.Len])
					n += s.Len
				}
			} else {
				copy(dst[n:], c.Data)
				n += len(c.Data)
			}
		}
		if n != p.Bytes() {
			t.Fatalf("engine packed %d bytes, want %d", n, p.Bytes())
		}
	}
	planOnce := func() { p.Pack(buf, dst) }

	measure := func(f func()) time.Duration {
		f() // warm
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start)
	}

	var engineT, planT time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		engineT = measure(engineOnce)
		planT = measure(planOnce)
		if planT*2 <= engineT {
			return
		}
	}
	t.Errorf("plan pack %v not 2x faster than engine %v over %d iters", planT, engineT, iters)
}

// --- buffer pool ---

func TestBufferPoolSizes(t *testing.T) {
	if GetBuffer(0) != nil {
		t.Fatal("GetBuffer(0) != nil")
	}
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 16, 1<<26 + 1} {
		b := GetBuffer(n)
		if len(b) != n {
			t.Fatalf("GetBuffer(%d) has len %d", n, len(b))
		}
		PutBuffer(b)
	}
	// Odd capacities must be rejected silently, not corrupt a class.
	PutBuffer(make([]byte, 100, 100))
	b := GetBuffer(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("GetBuffer(100) len %d cap %d, want 100/128", len(b), cap(b))
	}
	// A steady-state Get/Put pair allocates nothing: neither the buffer nor
	// the box it is pooled in.  (Not under the race detector, which makes
	// sync.Pool drop a quarter of what it is given.)
	PutBuffer(b)
	if n := testing.AllocsPerRun(100, func() { PutBuffer(GetBuffer(100)) }); n != 0 && !raceEnabled {
		t.Errorf("GetBuffer/PutBuffer pair allocates %.1f per run, want 0", n)
	}
}

// TestPlanMisalignedBase packs and unpacks word-kernel plans (8- and 16-byte
// blocks, strided and irregular) through user and stream buffers whose base
// sits 1 to 7 bytes off the 8-byte grid.  There is no uint64 view of such a
// buffer, so the program must fall back to byte-wise copies and still agree
// with the segment walk; under -race this is also the checkptr witness that
// no view of a misaligned base is ever formed.
func TestPlanMisalignedBase(t *testing.T) {
	irregular := Hindexed([]int{8, 8, 8, 8, 8, 8}, []int{0, 24, 40, 96, 104, 200}, Byte)
	for _, ty := range []*Type{Vector(512, 1, 2, Double), Vector(256, 2, 5, Double), irregular} {
		p, segs := CompilePlan(ty, 1), Flatten(ty, 1)
		if k := p.runs[0].kern; k != kernWord1 && k != kernWord2 {
			t.Fatalf("%v: compiled to kernel %d, want a word kernel", ty, k)
		}
		for shift := 1; shift < 8; shift++ {
			src := make([]byte, p.SpanBytes()+16)[shift:][:p.SpanBytes()]
			fillPattern(src)
			want := make([]byte, p.Bytes())
			copySegments(segs, src, want, false)
			for _, streamShift := range []int{0, shift} {
				got := make([]byte, p.Bytes()+16)[streamShift:][:p.Bytes()]
				p.Pack(src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: pack through bases shifted %d/%d differs from the segment walk", ty, shift, streamShift)
				}
				back := make([]byte, len(src)+16)[shift:][:len(src)]
				wantBack := make([]byte, len(src))
				p.Unpack(back, got)
				copySegments(segs, wantBack, want, true)
				if !bytes.Equal(back, wantBack) {
					t.Fatalf("%v: unpack through bases shifted %d/%d differs from the segment walk", ty, shift, streamShift)
				}
			}
		}
	}
}

// TestCompileRunsShapes pins the program each kind of segment list compiles
// to: one strided run for a vector however long, one offset table for an
// irregular list of equal blocks with its long progressions cut out as
// strided runs, single-block runs for the rest.
func TestCompileRunsShapes(t *testing.T) {
	type shape struct {
		count, blockLen int
		table           bool
		kern            kernel
	}
	irregular := []int{0, 24, 40, 96, 112, 200}   // no progression of four
	progression := []int{304, 320, 336, 352, 368} // five blocks, stride 16
	tail := []int{504, 520, 544}                  // three more irregular ones
	displs := append(append(irregular, progression...), tail...)
	lens := make([]int, len(displs))
	for i := range lens {
		lens[i] = 8
	}
	for _, tc := range []struct {
		name string
		ty   *Type
		want []shape
	}{
		{"fig16-evens", Vector(32768, 1, 2, Double), []shape{{32768, 8, false, kernWord1}}},
		{"16-byte-vector", Vector(100, 2, 5, Double), []shape{{100, 16, false, kernWord2}}},
		{"odd-stride", Hvector(100, 8, 13, Byte), []shape{{100, 8, false, kernCopy}}},
		{"y-split-face", Hvector(48, 768, 73728, Byte), []shape{{48, 768, false, kernCopy}}},
		{"contiguous", Contiguous(4096, Double), []shape{{1, 32768, false, kernCopy}}},
		{"irregular-with-progression", Hindexed(lens, displs, Byte),
			[]shape{{6, 8, true, kernWord1}, {5, 8, false, kernWord1}, {3, 8, true, kernWord1}}},
		{"unequal-fields", Struct([]int{0, 16, 48}, []*Type{Double, Contiguous(3, Double), Int32}),
			[]shape{{1, 8, false, kernWord1}, {1, 24, false, kernCopy}, {1, 4, false, kernCopy}}},
	} {
		p := CompilePlan(tc.ty, 1)
		var got []shape
		for _, r := range p.runs {
			got = append(got, shape{r.count, r.blockLen, r.tab != nil, r.kern})
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: compiled to runs %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: run %d is %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
