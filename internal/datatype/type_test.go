package datatype

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBaseTypes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8}, {Float, 4}, {Double, 8},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size || c.ty.Extent() != c.size {
			t.Errorf("%v: size/extent = %d/%d, want %d", c.ty, c.ty.Size(), c.ty.Extent(), c.size)
		}
		if !c.ty.Contig() || c.ty.Blocks() != 1 {
			t.Errorf("%v: not a unit leaf", c.ty)
		}
	}
}

func TestContiguous(t *testing.T) {
	c := Contiguous(10, Double)
	if c.Size() != 80 || c.Extent() != 80 || !c.Contig() || c.Blocks() != 1 {
		t.Errorf("contig(10,double): %+v", c)
	}
	nested := Contiguous(3, Contiguous(4, Int32))
	if nested.Size() != 48 || !nested.Contig() {
		t.Errorf("nested contig: size=%d contig=%v", nested.Size(), nested.Contig())
	}
	empty := Contiguous(0, Double)
	if empty.Size() != 0 || empty.Blocks() != 0 {
		t.Errorf("empty contig: %+v", empty)
	}
}

func TestVectorBasics(t *testing.T) {
	// 8 blocks of 1 double, stride 8 doubles: the paper's Figure 6 column
	// type (modulo the element being 3 doubles there).
	v := Vector(8, 1, 8, Double)
	if v.Size() != 64 {
		t.Errorf("size = %d, want 64", v.Size())
	}
	if v.Extent() != 7*64+8 {
		t.Errorf("extent = %d, want %d", v.Extent(), 7*64+8)
	}
	if v.Blocks() != 8 || v.Contig() {
		t.Errorf("blocks=%d contig=%v", v.Blocks(), v.Contig())
	}
}

func TestVectorFoldsToContiguous(t *testing.T) {
	// stride == blocklen means the vector is dense; the constructor must
	// coalesce it the way a dataloop optimizer would.
	v := Vector(5, 3, 3, Double)
	if v.Kind() != KindContiguous || !v.Contig() || v.Size() != 120 {
		t.Errorf("dense vector not folded: kind=%v contig=%v", v.Kind(), v.Contig())
	}
}

func TestPaperColumnType(t *testing.T) {
	// Paper Figures 4-6: 8x8 matrix, element = 3 doubles; first column =
	// vector(count=8, blocklen=1, stride=8) of contig(3, double).
	elem := Contiguous(3, Double)
	col := Vector(8, 1, 8, elem)
	if col.Size() != 8*24 {
		t.Errorf("column size = %d, want 192", col.Size())
	}
	if col.Blocks() != 8 {
		t.Errorf("column blocks = %d, want 8", col.Blocks())
	}
	segs := Flatten(col, 1)
	want := []Segment{}
	for i := 0; i < 8; i++ {
		want = append(want, Segment{i * 8 * 24, 24})
	}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("column segments = %v, want %v", segs, want)
	}
}

func TestIndexed(t *testing.T) {
	ix := Indexed([]int{2, 1, 3}, []int{0, 5, 10}, Double)
	if ix.Size() != 6*8 {
		t.Errorf("size = %d, want 48", ix.Size())
	}
	segs := Flatten(ix, 1)
	want := []Segment{{0, 16}, {40, 8}, {80, 24}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestIndexedFoldsToContiguous(t *testing.T) {
	ix := Indexed([]int{2, 3}, []int{0, 2}, Double)
	if ix.Kind() != KindContiguous || !ix.Contig() {
		t.Errorf("adjacent indexed not folded: kind=%v", ix.Kind())
	}
}

func TestStruct(t *testing.T) {
	// A C struct { double x; int32 tag; } with padding to 16 bytes.
	s := Resized(Struct([]int{0, 8}, []*Type{Double, Int32}), 16)
	if s.Size() != 12 || s.Extent() != 16 {
		t.Errorf("size/extent = %d/%d, want 12/16", s.Size(), s.Extent())
	}
	segs := Flatten(s, 2)
	want := []Segment{{0, 12}, {16, 12}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestStructContigFold(t *testing.T) {
	s := Struct([]int{0, 8}, []*Type{Double, Double})
	if !s.Contig() || s.Blocks() != 1 {
		t.Errorf("adjacent struct fields not marked contiguous: %+v", s)
	}
}

func TestSubarray2D(t *testing.T) {
	// Interior 2x3 region of a 4x5 row-major array of doubles, at (1,1).
	sa := Subarray([]int{4, 5}, []int{2, 3}, []int{1, 1}, Double)
	if sa.Size() != 6*8 {
		t.Errorf("size = %d, want 48", sa.Size())
	}
	if sa.Extent() != 4*5*8 {
		t.Errorf("extent = %d, want 160", sa.Extent())
	}
	segs := Flatten(sa, 1)
	want := []Segment{{(1*5 + 1) * 8, 24}, {(2*5 + 1) * 8, 24}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestSubarray3D(t *testing.T) {
	sa := Subarray([]int{3, 4, 5}, []int{2, 2, 2}, []int{0, 1, 2}, Int32)
	segs := Flatten(sa, 1)
	var want []Segment
	for z := 0; z < 2; z++ {
		for y := 1; y < 3; y++ {
			want = append(want, Segment{(z*20 + y*5 + 2) * 4, 8})
		}
	}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestSubarrayFullIsContig(t *testing.T) {
	sa := Subarray([]int{4, 5}, []int{4, 5}, []int{0, 0}, Double)
	segs := Flatten(sa, 1)
	if len(segs) != 1 || segs[0] != (Segment{0, 160}) {
		t.Errorf("full subarray segments = %v", segs)
	}
}

func TestFlattenCoalesces(t *testing.T) {
	// Two adjacent instances of a contiguous type coalesce into one segment.
	segs := Flatten(Contiguous(4, Double), 3)
	if len(segs) != 1 || segs[0] != (Segment{0, 96}) {
		t.Errorf("segments = %v, want single {0,96}", segs)
	}
}

func TestFlattenCountSpacing(t *testing.T) {
	v := Vector(2, 1, 2, Double) // extent 24, size 16
	segs := Flatten(v, 2)
	// Instance 2 starts at 24, adjacent to instance 1's block at 16..24, so
	// those two blocks coalesce.
	want := []Segment{{0, 8}, {16, 16}, {40, 8}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestNegativeStrideVector(t *testing.T) {
	v := Hvector(3, 1, -16, Double)
	if v.Extent() != 8+32 {
		t.Errorf("extent = %d, want 40", v.Extent())
	}
	segs := Flatten(Struct([]int{32}, []*Type{v}), 1)
	want := []Segment{{32, 8}, {16, 8}, {0, 8}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"neg count contig":  func() { Contiguous(-1, Double) },
		"nil elem contig":   func() { Contiguous(1, nil) },
		"neg count vector":  func() { Vector(-1, 1, 1, Double) },
		"neg blocklen":      func() { Vector(1, -1, 1, Double) },
		"indexed mismatch":  func() { Indexed([]int{1}, []int{0, 1}, Double) },
		"neg block length":  func() { Indexed([]int{-1}, []int{0}, Double) },
		"struct mismatch":   func() { Struct([]int{0}, []*Type{Double, Double}) },
		"nil struct field":  func() { Struct([]int{0}, []*Type{nil}) },
		"subarray range":    func() { Subarray([]int{4}, []int{3}, []int{2}, Double) },
		"subarray mismatch": func() { Subarray([]int{4, 4}, []int{2}, []int{0}, Double) },
		"neg resize":        func() { Resized(Double, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTypeString(t *testing.T) {
	elem := Contiguous(3, Double)
	col := Vector(8, 1, 8, elem)
	if s := col.String(); s == "" {
		t.Error("empty String()")
	}
	for _, k := range []Kind{KindBase, KindContiguous, KindVector, KindIndexed, KindStruct, Kind(99)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

// randomType builds a random datatype tree for property tests.
func randomType(rng *rand.Rand, depth int) *Type {
	if depth <= 0 || rng.Intn(3) == 0 {
		return []*Type{Byte, Int32, Double}[rng.Intn(3)]
	}
	elem := randomType(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return Contiguous(rng.Intn(4), elem)
	case 1:
		bl := 1 + rng.Intn(3)
		return Vector(1+rng.Intn(4), bl, bl+rng.Intn(3), elem)
	case 2:
		n := 1 + rng.Intn(4)
		bls := make([]int, n)
		dps := make([]int, n)
		off := 0
		for i := range bls {
			bls[i] = rng.Intn(3)
			off += rng.Intn(3)
			dps[i] = off
			off += bls[i]
		}
		return Indexed(bls, dps, elem)
	default:
		n := 1 + rng.Intn(3)
		types := make([]*Type, n)
		dps := make([]int, n)
		off := 0
		for i := range types {
			types[i] = randomType(rng, depth-1)
			off += rng.Intn(8)
			dps[i] = off
			off += types[i].Extent()
		}
		return Struct(dps, types)
	}
}

func TestFlattenInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		count := rng.Intn(3) + 1
		segs := Flatten(ty, count)
		total := 0
		for i, s := range segs {
			if s.Len <= 0 {
				t.Fatalf("trial %d: empty segment %v", trial, s)
			}
			if s.Off < 0 {
				t.Fatalf("trial %d: negative offset %v", trial, s)
			}
			if i > 0 && segs[i-1].Off+segs[i-1].Len == s.Off {
				t.Fatalf("trial %d: uncoalesced adjacent segments %v %v", trial, segs[i-1], s)
			}
			total += s.Len
		}
		if total != ty.Size()*count {
			t.Fatalf("trial %d (%v): flatten total %d != size %d", trial, ty, total, ty.Size()*count)
		}
	}
}

func TestBlocksMatchesFlattenUpperBound(t *testing.T) {
	// Blocks() is the pre-coalescing signature size: it must never be less
	// than the number of coalesced segments.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		ty := randomType(rng, 3)
		if got := len(Flatten(ty, 1)); got > ty.Blocks() {
			t.Fatalf("trial %d (%v): %d segments > %d blocks", trial, ty, got, ty.Blocks())
		}
	}
}
