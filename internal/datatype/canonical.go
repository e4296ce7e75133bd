package datatype

// TEMPI-style canonical-form normalization.  Many structurally distinct
// constructor trees describe the same type map: a vector of contiguous
// elements equals an hvector, a unit-stride vector collapses to contiguous,
// a struct wrapping a single field is the field shifted — and two ranks
// independently building "every even cell of my ghost region" produce
// distinct *Type values with identical byte-level behavior.  Canonicalize
// rewrites any such type to one canonical representative derived purely
// from its coalesced segment list and extent, so equal type maps share one
// signature and one cached plan.

// Canonicalize returns the canonical form of t: a type with the identical
// type map (same Flatten output for every count, same size, extent and
// span) whose structure — and therefore Signature — depends only on that
// type map, not on how t was constructed.  The result is memoized on t;
// canonical types are their own canonical form, so the rewrite is
// idempotent.
func Canonicalize(t *Type) *Type {
	if t == nil {
		panic("datatype: nil type")
	}
	if p := t.canon.Load(); p != nil {
		return p
	}
	c := canonicalOf(t)
	c.canon.Store(c)
	t.canon.Store(c)
	return c
}

// canonicalOf derives the canonical representative from t's segment list.
// The canonical vocabulary is tiny: Contiguous for a single origin run,
// Hvector (optionally origin-shifted through a one-field Struct) for
// equal-length arithmetically spaced runs, Hindexed for everything else —
// all over Byte, with the extent restored through resized when the derived
// type's natural extent differs from t's.
func canonicalOf(t *Type) *Type {
	segs := t.flatten1()
	var c *Type
	switch {
	case len(segs) == 0:
		c = Contiguous(0, Byte)
	case len(segs) == 1 && segs[0].Off == 0:
		c = Contiguous(segs[0].Len, Byte)
	case isArithmetic(segs):
		d := segs[1].Off - segs[0].Off
		c = Hvector(len(segs), segs[0].Len, d, Byte)
		if segs[0].Off != 0 {
			c = Struct([]int{segs[0].Off}, []*Type{c})
		}
	default:
		lens := make([]int, len(segs))
		displs := make([]int, len(segs))
		for i, s := range segs {
			lens[i] = s.Len
			displs[i] = s.Off
		}
		c = Hindexed(lens, displs, Byte)
	}
	if c.extent != t.extent {
		c = resized(c, t.extent)
	}
	// If t already had the canonical structure, its signature matches the
	// rewrite's and sharing t itself keeps the memo graph small.
	if c.sig == t.sig && c.size == t.size && c.span == t.span && c.blocks == t.blocks {
		return t
	}
	return c
}

// isArithmetic reports whether segs are equal-length runs whose offsets
// form an arithmetic progression — the strided shape Hvector expresses.
// The common difference must exceed the run length (equal would have
// coalesced; smaller would overlap, which Hvector cannot express).
func isArithmetic(segs []Segment) bool {
	if len(segs) < 2 {
		return false
	}
	l, d := segs[0].Len, segs[1].Off-segs[0].Off
	if d <= l {
		return false
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Len != l || segs[i].Off-segs[i-1].Off != d {
			return false
		}
	}
	return true
}
