// Package datatype implements MPI-style derived datatypes and the two
// noncontiguous pack/unpack engines compared in the paper: the baseline
// single-context engine (which loses its position on every look-ahead and
// must linearly re-search the datatype, for quadratic total search time) and
// the proposed dual-context look-ahead engine (which keeps a dedicated
// signature-scanning context so the pack context never loses its place).
//
// A derived datatype is a tree describing a set of typed, possibly
// noncontiguous regions of a buffer together with a canonical traversal
// order (the "type map").  The constructors mirror the MPI type constructors
// (MPI_Type_contiguous, MPI_Type_vector, MPI_Type_indexed, ...).  All
// displacements and strides are normalized to bytes internally.
package datatype

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind discriminates datatype tree nodes.
type Kind uint8

// Datatype node kinds.
const (
	KindBase       Kind = iota // a named primitive of fixed size
	KindContiguous             // count repetitions of the element, extent-spaced
	KindVector                 // count blocks of blocklen elements, stride-spaced
	KindIndexed                // blocks with individual lengths and displacements
	KindStruct                 // fields with individual types and displacements
)

func (k Kind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindIndexed:
		return "indexed"
	case KindStruct:
		return "struct"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Type is an immutable derived-datatype description.  Types are built with
// the package constructors and shared freely; a Type never changes after
// construction.
type Type struct {
	kind   Kind
	name   string // base types only
	size   int    // bytes of actual data in one instance
	extent int    // bytes spanned in memory by one instance
	span   int    // bytes from offset 0 to the last byte the type map touches
	blocks int    // number of contiguous segments in the type map ("signature size")
	sig    uint64 // structural hash of the full tree, memoized at construction

	// contig reports that the type map is a single in-order contiguous
	// run of size bytes starting at displacement 0, so a cursor may emit
	// it as one segment.
	contig bool

	elem     *Type // contiguous, vector, indexed
	count    int   // contiguous, vector
	blocklen int   // vector
	stride   int   // vector: byte distance between block starts

	// indexed: blocks[i] = blockLens[i] elements of elem at displs[i] bytes.
	blockLens []int
	displs    []int

	// struct: fields[i] = one instance of types[i] at displs[i] bytes.
	types []*Type

	// blockTypes caches per-block contiguous child types so cursors can
	// treat every composite node as a list of (childType, byteOffset)
	// pairs without allocating during traversal.  Blocks of equal length
	// share one child.
	blockTypes []*Type

	// flat memoizes the coalesced single-instance segment list (Flatten
	// with count 1).  Types are immutable, so the memo never invalidates;
	// racing computations produce identical slices and either store wins.
	// Holders treat the slice as read-only.
	flat atomic.Pointer[[]Segment]

	// canon memoizes Canonicalize(t).  A canonical type points to itself.
	canon atomic.Pointer[Type]
}

// Predefined base types, mirroring the MPI built-ins used by PETSc.
var (
	Byte   = newBase("byte", 1)
	Char   = newBase("char", 1)
	Int32  = newBase("int32", 4)
	Int64  = newBase("int64", 8)
	Float  = newBase("float", 4)
	Double = newBase("double", 8)
)

func newBase(name string, size int) *Type {
	t := &Type{
		kind:   KindBase,
		name:   name,
		size:   size,
		extent: size,
		span:   size,
		blocks: 1,
		contig: true,
	}
	h := sigInit(KindBase)
	for i := 0; i < len(name); i++ {
		h = sigMix(h, uint64(name[i]))
	}
	t.sig = sigMix(h, uint64(size))
	return t
}

// Size returns the number of bytes of actual data in one instance of t.
func (t *Type) Size() int { return t.size }

// Extent returns the number of bytes one instance of t spans in memory.
func (t *Type) Extent() int { return t.extent }

// Span returns the number of bytes from offset zero through the last byte
// one instance's type map touches.  It can differ from Extent in both
// directions: smaller when the extent includes trailing padding (a vector's
// last stride), larger when Resized shrank the extent below the data span.
// Memoized at construction; buffer validation uses it without any walk.
func (t *Type) Span() int { return t.span }

// Signature returns a structural hash of the complete type tree (kinds,
// counts, strides, displacements and the extent override), memoized at
// construction.  Two types with equal signatures describe the same type map
// up to hash collision; the plan cache keys on it together with the exact
// size/extent/blocks figures.
func (t *Type) Signature() uint64 { return t.sig }

// Blocks returns the number of contiguous segments in t's type map before
// any coalescing — the "signature size" the look-ahead scans.
func (t *Type) Blocks() int { return t.blocks }

// Kind returns the node kind of the root of t.
func (t *Type) Kind() Kind { return t.kind }

// Contig reports whether t's type map is a single in-order contiguous run
// starting at displacement zero.
func (t *Type) Contig() bool { return t.contig }

// Contiguous returns a type of count consecutive instances of elem, each
// spaced by elem's extent, like MPI_Type_contiguous.  count may be zero.
func Contiguous(count int, elem *Type) *Type {
	if count < 0 {
		panic("datatype: negative count")
	}
	if elem == nil {
		panic("datatype: nil element type")
	}
	t := &Type{
		kind:   KindContiguous,
		size:   count * elem.size,
		extent: count * elem.extent,
		blocks: count * elem.blocks,
		elem:   elem,
		count:  count,
	}
	if count > 0 {
		t.span = (count-1)*elem.extent + elem.span
	}
	t.contig = count == 0 || (elem.contig && elem.size == elem.extent)
	if t.contig {
		t.blocks = 1
		if count == 0 {
			t.blocks = 0
		}
	}
	t.sig = sigMix(sigMix(sigInit(KindContiguous), uint64(count)), elem.sig)
	return t
}

// Vector returns a type of count blocks, each of blocklen instances of elem,
// with block starts stride elements apart (stride measured in units of
// elem's extent), like MPI_Type_vector.
func Vector(count, blocklen, stride int, elem *Type) *Type {
	if elem == nil {
		panic("datatype: nil element type")
	}
	return Hvector(count, blocklen, stride*elem.extent, elem)
}

// Hvector is Vector with the stride given in bytes, like MPI_Type_hvector.
func Hvector(count, blocklen, strideBytes int, elem *Type) *Type {
	if count < 0 || blocklen < 0 {
		panic("datatype: negative count or blocklen")
	}
	if elem == nil {
		panic("datatype: nil element type")
	}
	if count == 0 || blocklen == 0 {
		return Contiguous(0, elem)
	}
	block := Contiguous(blocklen, elem)
	// A vector whose stride equals its block extent degenerates to a
	// contiguous type; fold it so cursors see the cheap path, the same
	// coalescing a dataloop optimizer performs at commit time.
	if strideBytes == block.extent && block.contig {
		return Contiguous(count*blocklen, elem)
	}
	span := (count-1)*strideBytes + block.extent
	if strideBytes < 0 {
		span = block.extent - (count-1)*strideBytes
	}
	t := &Type{
		kind:     KindVector,
		size:     count * block.size,
		extent:   span,
		blocks:   count * block.blocks,
		elem:     elem,
		count:    count,
		blocklen: blocklen,
		stride:   strideBytes,
	}
	t.span = block.span
	if strideBytes > 0 {
		t.span = (count-1)*strideBytes + block.span
	}
	t.blockTypes = []*Type{block}
	h := sigInit(KindVector)
	h = sigMix(h, uint64(count))
	h = sigMix(h, uint64(blocklen))
	h = sigMix(h, uint64(int64(strideBytes)))
	t.sig = sigMix(h, elem.sig)
	return t
}

// Indexed returns a type of len(blockLens) blocks where block i holds
// blockLens[i] instances of elem at a displacement of displs[i] elements
// (units of elem's extent), like MPI_Type_indexed.
func Indexed(blockLens, displs []int, elem *Type) *Type {
	if elem == nil {
		panic("datatype: nil element type")
	}
	db := make([]int, len(displs))
	for i, d := range displs {
		db[i] = d * elem.extent
	}
	return Hindexed(blockLens, db, elem)
}

// Hindexed is Indexed with displacements in bytes, like MPI_Type_hindexed.
func Hindexed(blockLens, displsBytes []int, elem *Type) *Type {
	if elem == nil {
		panic("datatype: nil element type")
	}
	if len(blockLens) != len(displsBytes) {
		panic("datatype: blockLens and displs length mismatch")
	}
	n := len(blockLens)
	if n == 0 {
		return Contiguous(0, elem)
	}
	size, blocks, span := 0, 0, 0
	lo, hi := displsBytes[0], displsBytes[0]
	blockTypes := make([]*Type, n)
	byLen := map[int]*Type{} // one shared child per distinct block length
	h := sigMix(sigInit(KindIndexed), elem.sig)
	for i, bl := range blockLens {
		if bl < 0 {
			panic("datatype: negative block length")
		}
		b := byLen[bl]
		if b == nil {
			b = Contiguous(bl, elem)
			byLen[bl] = b
		}
		blockTypes[i] = b
		size += b.size
		blocks += b.blocks
		d := displsBytes[i]
		if d < lo {
			lo = d
		}
		if d+b.extent > hi {
			hi = d + b.extent
		}
		if d+b.span > span {
			span = d + b.span
		}
		h = sigMix(sigMix(h, uint64(bl)), uint64(int64(d)))
	}
	if lo > 0 {
		lo = 0 // extent includes origin, as in MPI (lb defaults to 0 here)
	}
	t := &Type{
		kind:       KindIndexed,
		size:       size,
		extent:     hi - lo,
		span:       span,
		blocks:     blocks,
		sig:        h,
		elem:       elem,
		blockLens:  append([]int(nil), blockLens...),
		displs:     append([]int(nil), displsBytes...),
		blockTypes: blockTypes,
	}
	// Adjacent in-order blocks starting at zero collapse to contiguous.
	if isContigRun(blockTypes, t.displs) {
		return Contiguous(sum(blockLens), elem)
	}
	return t
}

// Struct returns a type with one instance of types[i] at displsBytes[i] for
// each field, like MPI_Type_create_struct with unit block lengths.  Repeated
// fields can be expressed by passing a Contiguous type.
func Struct(displsBytes []int, types []*Type) *Type {
	if len(types) != len(displsBytes) {
		panic("datatype: types and displs length mismatch")
	}
	if len(types) == 0 {
		return Contiguous(0, Byte)
	}
	size, blocks, span := 0, 0, 0
	lo, hi := displsBytes[0], displsBytes[0]
	h := sigInit(KindStruct)
	for i, ft := range types {
		if ft == nil {
			panic("datatype: nil field type")
		}
		size += ft.size
		blocks += ft.blocks
		d := displsBytes[i]
		if d < lo {
			lo = d
		}
		if d+ft.extent > hi {
			hi = d + ft.extent
		}
		if d+ft.span > span {
			span = d + ft.span
		}
		h = sigMix(sigMix(h, uint64(int64(d))), ft.sig)
	}
	if lo > 0 {
		lo = 0
	}
	t := &Type{
		kind:       KindStruct,
		size:       size,
		extent:     hi - lo,
		span:       span,
		blocks:     blocks,
		sig:        h,
		displs:     append([]int(nil), displsBytes...),
		types:      append([]*Type(nil), types...),
		blockTypes: types,
	}
	if isContigRun(t.types, t.displs) {
		t.contig = true
		t.blocks = 1
	}
	return t
}

// Subarray returns a type describing the subsizes-shaped region of a
// sizes-shaped row-major array starting at starts, like
// MPI_Type_create_subarray with ORDER_C.  The last dimension varies fastest.
// The returned type's extent equals the full array size so consecutive
// counts address consecutive arrays.
func Subarray(sizes, subsizes, starts []int, elem *Type) *Type {
	nd := len(sizes)
	if len(subsizes) != nd || len(starts) != nd {
		panic("datatype: subarray dimension mismatch")
	}
	if nd == 0 {
		panic("datatype: subarray needs at least one dimension")
	}
	for d := 0; d < nd; d++ {
		if subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			panic(fmt.Sprintf("datatype: subarray dim %d out of range", d))
		}
	}
	// Build innermost-out: a run of subsizes[nd-1] elems, then vectors.
	t := Contiguous(subsizes[nd-1], elem)
	rowExtent := sizes[nd-1] * elem.extent
	for d := nd - 2; d >= 0; d-- {
		t = Hvector(subsizes[d], 1, rowExtent, t)
		rowExtent *= sizes[d]
	}
	// Offset to the start corner and pad extent to the full array.
	off := 0
	mult := elem.extent
	for d := nd - 1; d >= 0; d-- {
		off += starts[d] * mult
		mult *= sizes[d]
	}
	full := elem.extent
	for _, s := range sizes {
		full *= s
	}
	return resized(Struct([]int{off}, []*Type{t}), full)
}

// resized returns t with its extent forced to extentBytes (a reduced form of
// MPI_Type_create_resized with lb=0).  The copy is field-by-field rather
// than a struct copy: the memo fields (flat, canon) must not be duplicated —
// the single-instance flatten is extent-independent and carries over, while
// the canonical form depends on the extent and is left to recompute.
func resized(t *Type, extentBytes int) *Type {
	c := &Type{
		kind:       t.kind,
		name:       t.name,
		size:       t.size,
		extent:     extentBytes,
		span:       t.span,
		blocks:     t.blocks,
		contig:     t.contig && t.size == extentBytes,
		elem:       t.elem,
		count:      t.count,
		blocklen:   t.blocklen,
		stride:     t.stride,
		blockLens:  t.blockLens,
		displs:     t.displs,
		types:      t.types,
		blockTypes: t.blockTypes,
	}
	c.sig = sigMix(sigMix(t.sig, sigResized), uint64(int64(extentBytes)))
	if p := t.flat.Load(); p != nil {
		c.flat.Store(p)
	}
	return c
}

// Resized returns t with extent forced to extentBytes and lower bound 0,
// like MPI_Type_create_resized.
func Resized(t *Type, extentBytes int) *Type {
	if extentBytes < 0 {
		panic("datatype: negative extent")
	}
	return resized(t, extentBytes)
}

func isContigRun(blockTypes []*Type, displs []int) bool {
	off := 0
	for i, b := range blockTypes {
		if displs[i] != off || !b.contig || b.size != b.extent {
			return false
		}
		off += b.size
	}
	return off > 0 || len(blockTypes) == 0
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Structural hashing (FNV-1a) for memoized type signatures.  Constructors
// fold their children's memoized hashes, so hashing is O(node) per
// constructor, never a tree walk.
const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	sigResized = 0x9e3779b97f4a7c15 // marker separating a resize from a field
)

func sigInit(k Kind) uint64 { return sigMix(fnvOffset, uint64(k)) }

func sigMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	// Mix in each byte position so small ints do not collide trivially.
	h ^= v >> 32
	h *= fnvPrime
	return h
}

// nchildren returns how many (childType, byteOffset) pairs node t expands
// into for traversal purposes.
func (t *Type) nchildren() int {
	switch t.kind {
	case KindBase:
		return 0
	case KindContiguous:
		return t.count
	case KindVector:
		return t.count
	case KindIndexed, KindStruct:
		return len(t.blockTypes)
	}
	panic("datatype: unknown kind")
}

// childAt returns the i-th child of t and its byte offset within t.
func (t *Type) childAt(i int) (*Type, int) {
	switch t.kind {
	case KindContiguous:
		return t.elem, i * t.elem.extent
	case KindVector:
		return t.blockTypes[0], i * t.stride
	case KindIndexed:
		return t.blockTypes[i], t.displs[i]
	case KindStruct:
		return t.types[i], t.displs[i]
	}
	panic("datatype: childAt on leaf")
}

// String renders a compact structural description of t.
func (t *Type) String() string {
	var b strings.Builder
	t.describe(&b)
	return b.String()
}

func (t *Type) describe(b *strings.Builder) {
	switch t.kind {
	case KindBase:
		b.WriteString(t.name)
	case KindContiguous:
		fmt.Fprintf(b, "contig(%d, ", t.count)
		t.elem.describe(b)
		b.WriteByte(')')
	case KindVector:
		fmt.Fprintf(b, "hvector(%d, %d, %d, ", t.count, t.blocklen, t.stride)
		t.elem.describe(b)
		b.WriteByte(')')
	case KindIndexed:
		fmt.Fprintf(b, "indexed(%d blocks, ", len(t.blockLens))
		t.elem.describe(b)
		b.WriteByte(')')
	case KindStruct:
		fmt.Fprintf(b, "struct(%d fields)", len(t.types))
	}
}

// Segment is one contiguous piece of a flattened type map: Len bytes at
// byte offset Off from the start of the buffer.
type Segment struct {
	Off, Len int
}

// Flatten expands count instances of t into its full in-order segment list,
// coalescing adjacent segments.  It is the O(size)-memory oracle the
// streaming cursors are tested against, and is also used by scatter plans
// that want an explicit index representation.
//
// The single-instance list is memoized on the (immutable) Type, so repeated
// plan compiles and file-view constructions over the same type never
// re-flatten; for count == 1 the shared memo slice is returned directly and
// must be treated as read-only by the caller.
func Flatten(t *Type, count int) []Segment {
	if count == 0 {
		return nil
	}
	one := t.flatten1()
	if len(one) == 0 {
		return nil
	}
	if count == 1 {
		return one
	}
	segs := make([]Segment, 0, count*len(one))
	for i := 0; i < count; i++ {
		base := i * t.extent
		for _, s := range one {
			// Coalesce across instance boundaries, like the single pass did.
			if k := len(segs); k > 0 && segs[k-1].Off+segs[k-1].Len == base+s.Off {
				segs[k-1].Len += s.Len
				continue
			}
			segs = append(segs, Segment{base + s.Off, s.Len})
		}
	}
	return segs
}

// flatten1 returns the memoized coalesced segment list of one instance.
func (t *Type) flatten1() []Segment {
	if p := t.flat.Load(); p != nil {
		return *p
	}
	segs := []Segment{}
	emit := func(off, n int) {
		if n == 0 {
			return
		}
		if k := len(segs); k > 0 && segs[k-1].Off+segs[k-1].Len == off {
			segs[k-1].Len += n
			return
		}
		segs = append(segs, Segment{off, n})
	}
	flattenInto(t, 0, emit)
	t.flat.Store(&segs)
	return segs
}

func flattenInto(t *Type, base int, emit func(off, n int)) {
	if t.contig {
		emit(base, t.size)
		return
	}
	n := t.nchildren()
	for i := 0; i < n; i++ {
		c, off := t.childAt(i)
		flattenInto(c, base+off, emit)
	}
}
