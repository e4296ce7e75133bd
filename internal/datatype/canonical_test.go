package datatype

import (
	"reflect"
	"testing"
)

// The canonicalization contract: Canonicalize(t) has the identical type map
// — same Flatten output at every count, same size/extent/span — while its
// signature depends only on that type map, so structurally equal types
// constructed differently collapse to one plan-cache key.

func canonZoo() map[string]*Type {
	return map[string]*Type{
		"base":              Double,
		"contig":            Contiguous(16, Double),
		"contig-nested":     Contiguous(4, Contiguous(4, Double)),
		"vector":            Vector(8, 2, 5, Double),
		"vector-unitstride": Vector(8, 3, 3, Double),
		"hvector":           Hvector(8, 16, 40, Byte),
		"vector-of-contig":  Vector(8, 1, 5, Contiguous(2, Double)),
		"indexed":           Indexed([]int{2, 1, 3}, []int{0, 4, 9}, Double),
		"indexed-vectorish": Indexed([]int{2, 2, 2}, []int{0, 5, 10}, Double),
		"hindexed":          Hindexed([]int{8, 24, 8}, []int{0, 16, 48}, Byte),
		"struct":            Struct([]int{0, 24}, []*Type{Contiguous(2, Double), Int32}),
		"struct-single":     Struct([]int{8}, []*Type{Vector(4, 1, 2, Double)}),
		"subarray":          Subarray([]int{8, 8}, []int{4, 4}, []int{2, 2}, Double),
		"resized":           Resized(Vector(4, 1, 2, Double), 80),
		"resized-shrunk":    Resized(Contiguous(4, Double), 16),
		"zero":              Contiguous(0, Double),
		"degenerate-mixed":  Hindexed([]int{0, 8, 0, 1, 4096}, []int{0, 0, 8, 16, 32}, Byte),
	}
}

func TestCanonicalizePreservesTypeMap(t *testing.T) {
	for name, ty := range canonZoo() {
		c := Canonicalize(ty)
		if c.Size() != ty.Size() || c.Extent() != ty.Extent() || c.Span() != ty.Span() {
			t.Fatalf("%s: canonical size/extent/span %d/%d/%d, want %d/%d/%d",
				name, c.Size(), c.Extent(), c.Span(), ty.Size(), ty.Extent(), ty.Span())
		}
		for _, count := range []int{0, 1, 2, 3, 7} {
			got := Flatten(c, count)
			want := Flatten(ty, count)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s count %d: canonical flatten %v, want %v", name, count, got, want)
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	for name, ty := range canonZoo() {
		c := Canonicalize(ty)
		if cc := Canonicalize(c); cc != c {
			t.Fatalf("%s: Canonicalize not idempotent", name)
		}
		// The memo returns the same representative on repeat calls.
		if c2 := Canonicalize(ty); c2 != c {
			t.Fatalf("%s: memoized canonical form not stable", name)
		}
	}
}

func TestCanonicalizeCollapsesEquivalentConstructions(t *testing.T) {
	// Each pair builds the same byte-level type map through different
	// constructor trees; canonical signatures must coincide.
	pairs := []struct {
		name string
		a, b *Type
	}{
		{"vector-of-contig≡hvector",
			Vector(8, 1, 4, Contiguous(2, Double)),
			Hvector(8, 16, 64, Byte)},
		{"unit-stride-vector≡contiguous",
			Vector(8, 3, 3, Double),
			Contiguous(24, Double)},
		{"indexed-runs≡vector",
			Indexed([]int{2, 2, 2, 2}, []int{0, 6, 12, 18}, Double),
			Vector(4, 2, 6, Double)},
		{"nested-single-count≡inner",
			Contiguous(1, Contiguous(1, Vector(4, 2, 8, Double))),
			Vector(4, 2, 8, Double)},
		{"struct-wrapper≡shifted",
			Struct([]int{8}, []*Type{Hvector(4, 8, 24, Byte)}),
			Hindexed([]int{8, 8, 8, 8}, []int{8, 32, 56, 80}, Byte)},
	}
	for _, p := range pairs {
		ca, cb := Canonicalize(p.a), Canonicalize(p.b)
		if ca.Signature() != cb.Signature() {
			t.Errorf("%s: canonical signatures differ (%x vs %x)", p.name, ca.Signature(), cb.Signature())
		}
		if ca.Size() != cb.Size() || ca.Extent() != cb.Extent() {
			t.Errorf("%s: canonical size/extent differ", p.name)
		}
	}
}

func TestPlanCacheSharesCanonicalForms(t *testing.T) {
	cache := NewPlanCache(16)
	// Structurally equal, differently built: one compile, one hit.
	a := Indexed([]int{2, 2, 2, 2}, []int{0, 6, 12, 18}, Double)
	b := Vector(4, 2, 6, Double)
	pa := cache.Get(a, 3)
	pb := cache.Get(b, 3)
	if pa != pb {
		t.Fatalf("structurally equal types did not share one compiled plan")
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache misses=%d hits=%d, want 1 and 1", st.Misses, st.Hits)
	}
	if st.Rewrites == 0 {
		t.Fatalf("expected at least one canonical rewrite, got none")
	}
}

func TestFlattenMemoized(t *testing.T) {
	ty := Vector(64, 2, 5, Double)
	s1 := Flatten(ty, 1)
	s2 := Flatten(ty, 1)
	if len(s1) == 0 || &s1[0] != &s2[0] {
		t.Fatalf("count-1 flatten not memoized: distinct backing arrays")
	}
	// Multi-count flattens replicate from the memo and must not alias it.
	m := Flatten(ty, 2)
	if &m[0] == &s1[0] {
		t.Fatalf("count-2 flatten aliases the count-1 memo")
	}
}
