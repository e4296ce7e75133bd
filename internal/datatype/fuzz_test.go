package datatype_test

import (
	"bytes"
	"fmt"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// The differential guard of the compiled-plan layer.  Whatever Plan.Pack and
// Plan.Unpack execute, the bytes must be those of the generic per-segment
// walk (datatype.OraclePack) and of both streaming engines, alone and end to
// end through mpi SendType/RecvType and a petsc scatter with its reverse
// accumulate, for any type tree and any buffer alignment.

// fuzzIn reads decisions off the fuzz input.  An exhausted input reads as
// zeros, so every prefix decodes to some type.
type fuzzIn struct{ b []byte }

func (in *fuzzIn) next() int {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return int(v)
}

func (in *fuzzIn) next16() int { return in.next() | in.next()<<8 }

// Block lengths and gaps of the long-run constructors: the 8- and 16-byte
// word kernels, a multiple of 8 that is neither, a whole 96-double row,
// lengths no word loop can take, and the owned row and the owned slab of a
// 96^3 grid split in x and in y; gaps that keep a run word-aligned, that
// break its alignment, the strides of the x- and y-split ghost faces of that
// grid, the ghost row between its owned slabs, and none at all.
var (
	fuzzBlockLens = []int{8, 16, 24, 768, 1, 4, 384, 36864}
	fuzzGaps      = []int{8, 1, 16, 760, 3, 72960, 768, 0}
)

// fuzzType decodes a type tree: the MPI constructors with counts and block
// lengths 0-3 (so zero-length and 1-byte blocks are common) and odd byte
// displacements, plus three leaves the small counts cannot reach: a long
// arithmetic run, a long irregular list of uniform blocks and a sub-box of a
// box of doubles.  Type maps never overlap themselves (MPI forbids that of a
// receive type, and a sharded unpack of one is order-dependent) but may run
// backwards.
func fuzzType(in *fuzzIn, depth int) *datatype.Type {
	op := in.next() % 14
	if depth == 0 {
		op %= 3
	}
	switch op {
	case 0:
		return datatype.Byte
	case 1:
		return datatype.Double
	case 2:
		return datatype.Int32
	case 3:
		count := in.next() % 4
		return datatype.Contiguous(count, fuzzType(in, depth-1))
	case 4:
		count, bl, gap := in.next()%4, in.next()%4, in.next()%4
		return datatype.Vector(count, bl, bl+gap, fuzzType(in, depth-1))
	case 5:
		count, bl, gap := in.next()%4, in.next()%4, in.next()%16
		elem := fuzzType(in, depth-1)
		return datatype.Hvector(count, bl, bl*elem.Extent()+gap, elem)
	case 6:
		n := in.next() % 4
		lens, displs := make([]int, n), make([]int, n)
		off := 0
		for i := range lens {
			lens[i] = in.next() % 4
			off += in.next() % 4
			displs[i] = off
			off += lens[i]
		}
		return datatype.Indexed(lens, displs, fuzzType(in, depth-1))
	case 7:
		n, backwards := in.next()%4, in.next()%2 == 1
		elem := fuzzType(in, depth-1)
		lens, displs := make([]int, n), make([]int, n)
		off := 0
		for i := range lens {
			k := i
			if backwards {
				k = n - 1 - i
			}
			lens[k] = in.next() % 4
			off += in.next() % 8
			displs[k] = off
			off += lens[k] * elem.Extent()
		}
		return datatype.Hindexed(lens, displs, elem)
	case 8:
		n := in.next() % 4
		types, displs := make([]*datatype.Type, n), make([]int, n)
		off := 0
		for i := range types {
			types[i] = fuzzType(in, depth-1)
			off += in.next() % 8
			displs[i] = off
			off += max(types[i].Extent(), types[i].Span())
		}
		return datatype.Struct(displs, types)
	case 9:
		nd := 1 + in.next()%3
		sizes, subsizes, starts := make([]int, nd), make([]int, nd), make([]int, nd)
		for d := range sizes {
			sizes[d] = 1 + in.next()%4
			subsizes[d] = in.next() % (sizes[d] + 1)
			starts[d] = in.next() % (sizes[d] - subsizes[d] + 1)
		}
		return datatype.Subarray(sizes, subsizes, starts, fuzzType(in, depth-1))
	case 10:
		// One process's block of a block-distributed array: the near-equal
		// split along every dimension, the first sizes%procs parts one longer.
		nd := 1 + in.next()%3
		sizes, subsizes, starts := make([]int, nd), make([]int, nd), make([]int, nd)
		for d := range sizes {
			sizes[d] = 1 + in.next()%5
			procs := 1 + in.next()%3
			coord := in.next() % procs
			base, rem := sizes[d]/procs, sizes[d]%procs
			starts[d] = coord*base + min(coord, rem)
			subsizes[d] = base
			if coord < rem {
				subsizes[d]++
			}
		}
		return datatype.Subarray(sizes, subsizes, starts, fuzzType(in, depth-1))
	case 11:
		bl, count := fuzzBlockLens[in.next()%len(fuzzBlockLens)], in.next16()
		gap, origin := fuzzGaps[in.next()%len(fuzzGaps)], in.next()%16
		t := datatype.Hvector(count, bl, bl+gap, datatype.Byte)
		if origin > 0 {
			t = datatype.Struct([]int{origin}, []*datatype.Type{t})
		}
		return t
	case 13:
		sizes, subsizes, starts := make([]int, 3), make([]int, 3), make([]int, 3)
		for d := range sizes {
			sizes[d] = 1 + in.next()%64
			subsizes[d] = in.next() % (sizes[d] + 1)
			starts[d] = in.next() % (sizes[d] - subsizes[d] + 1)
		}
		return datatype.Subarray(sizes, subsizes, starts, datatype.Double)
	default:
		bl, n := []int{8, 16, 1}[in.next()%3], in.next16()%4096
		lcg, unit := uint32(in.next16()), []int{8, 1}[in.next()%2]
		lens, displs := make([]int, n), make([]int, n)
		off := 0
		for i := range lens {
			lcg = lcg*1664525 + 1013904223
			off += int(lcg>>16%8) * unit // a zero gap coalesces into a longer block
			lens[i], displs[i] = bl, off
			off += bl
		}
		return datatype.Hindexed(lens, displs, datatype.Byte)
	}
}

const (
	fuzzMaxSpan   = 8 << 20
	fuzzMaxBlocks = 1 << 18
	// fuzzMaxElems keeps the petsc leg's plans below the sharded-pack
	// cutoff: element lists derived from byte segments can name one element
	// twice, which a sharded unpack would write from two goroutines.
	fuzzMaxElems = 1 << 16
)

// shifted returns n bytes starting shift bytes past an 8-byte boundary.
func shifted(n, shift int) []byte {
	return make([]byte, n+16)[shift : shift+n : shift+n]
}

func fillPattern(b []byte, salt int) {
	for i := range b {
		b[i] = byte(i*131 + i>>8 + salt)
	}
}

// checkKernels is the body of the fuzz target and of the named-shape test.
func checkKernels(t *testing.T, ty *datatype.Type, count, userShift, streamShift int) {
	span := datatype.RequiredBytes(ty, count)
	if span > fuzzMaxSpan || ty.Blocks()*count > fuzzMaxBlocks {
		t.Skip("type map too large")
	}
	segs := datatype.Flatten(ty, count)
	user := shifted(span, userShift)
	fillPattern(user, 17)
	p := datatype.CompilePlan(ty, count)

	// Pack: the plan, the segment walk and both streaming engines agree.
	want := make([]byte, p.Bytes())
	datatype.OraclePack(segs, user, want)
	got := shifted(p.Bytes(), streamShift)
	p.Pack(user, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v x%d (shifts %d/%d): plan pack differs from the segment walk", ty, count, userShift, streamShift)
	}
	for _, kind := range []datatype.EngineKind{datatype.SingleContext, datatype.DualContext} {
		if eng := datatype.PackEngine(kind, ty, count, user); !bytes.Equal(eng, want) {
			t.Fatalf("%v x%d: %v stream differs from the segment walk", ty, count, kind)
		}
	}

	// Unpack: every mapped byte restored, no other byte touched.
	image := shifted(span, userShift)
	fillPattern(image, 99)
	back := shifted(span, userShift)
	copy(back, image)
	datatype.OracleUnpack(segs, image, want)
	p.Unpack(back, got)
	if !bytes.Equal(back, image) {
		t.Fatalf("%v x%d (shifts %d/%d): plan unpack differs from the segment walk", ty, count, userShift, streamShift)
	}
	mapped := make([]bool, span)
	for _, s := range segs {
		for i := s.Off; i < s.Off+s.Len; i++ {
			mapped[i] = true
		}
	}
	for i, m := range mapped {
		if m && back[i] != user[i] {
			t.Fatalf("%v x%d: mapped byte %d not restored", ty, count, i)
		}
		if !m && back[i] != byte(i*131+i>>8+99) {
			t.Fatalf("%v x%d: unmapped byte %d overwritten", ty, count, i)
		}
	}

	checkSendRecv(t, ty, count, user, image)
	checkScatter(t, segs, span)
}

// checkSendRecv moves the type from rank 0 to rank 1 and to rank 0 itself
// under the compiled-plan and the streaming engine; every receiver must end
// up with image, the oracle's unpack over the same background.
func checkSendRecv(t *testing.T, ty *datatype.Type, count int, user, image []byte) {
	for _, cfg := range []mpi.Config{mpi.Compiled(), mpi.Optimized()} {
		w := mpi.NewWorld(simnet.Uniform(2, simnet.IBDDR()), cfg)
		err := w.Run(func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				c.SendType(1, 7, ty, count, user)
				c.SendType(0, 7, ty, count, user)
			}
			dst := make([]byte, len(image))
			fillPattern(dst, 99)
			c.RecvType(0, 7, ty, count, dst)
			if !bytes.Equal(dst, image) {
				return fmt.Errorf("%v x%d, %v engine: rank %d received a different image", ty, count, cfg.Engine, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkScatter runs the elements the segments touch through a petsc
// scatter from rank 0 to rank 1 and its reverse with Add, under the
// datatype arm on compiled plans and under the hand-tuned arm, against the
// values computed directly from the index list.
func checkScatter(t *testing.T, segs []datatype.Segment, span int) {
	var idx []int
	for _, s := range segs {
		for e := s.Off / 8; e <= (s.Off+s.Len-1)/8; e++ {
			idx = append(idx, e)
		}
	}
	if len(idx) > fuzzMaxElems {
		return
	}
	n := span/8 + 1
	x0 := func(i int) float64 { return float64(3*i + 1) }
	wantY, wantX := make([]float64, n), make([]float64, n)
	for i := range wantX {
		wantY[i], wantX[i] = -1, x0(i)
	}
	for _, e := range idx {
		wantY[e] = x0(e)
	}
	for _, e := range idx {
		wantX[e] += wantY[e]
	}
	for _, arm := range []struct {
		cfg  mpi.Config
		mode petsc.ScatterMode
	}{{mpi.Compiled(), petsc.ScatterDatatype}, {mpi.Baseline(), petsc.ScatterHandTuned}} {
		w := mpi.NewWorld(simnet.Uniform(2, simnet.IBDDR()), arm.cfg)
		err := w.Run(func(c *mpi.Comm) error {
			var plan petsc.Plan
			if c.Rank() == 0 {
				plan.Sends = []petsc.PeerIndices{{Peer: 1, Local: idx}}
			} else {
				plan.Recvs = []petsc.PeerIndices{{Peer: 0, Local: idx}}
			}
			sc := petsc.NewScatterFromPlan(c, n, n, plan, arm.mode)
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = x0(i), -1
			}
			sc.DoArrays(x, y)
			sc.Reverse().DoArraysMode(y, x, petsc.Add)
			want, got, name := wantX, x, "x after the reverse add"
			if c.Rank() == 1 {
				want, got, name = wantY, y, "y after the forward scatter"
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%v arm: %s: element %d = %v, want %v", arm.mode, name, i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// cutTo returns a layout of exactly size bytes: (ty, count) itself when that
// is its size, else the first size bytes of its type map as a list of byte
// blocks.
func cutTo(ty *datatype.Type, count, size int) (*datatype.Type, int) {
	if ty.Size()*count == size {
		return ty, count
	}
	var lens, displs []int
	for _, s := range datatype.Flatten(ty, count) {
		n := min(s.Len, size)
		if n == 0 {
			break
		}
		lens, displs = append(lens, n), append(displs, s.Off)
		size -= n
	}
	return datatype.Hindexed(lens, displs, datatype.Byte), 1
}

// checkCopy is the body of the copy fuzz target and of the named copy
// shapes: the bytes of the send layout must land in the receive layout as the
// oracle's Pack then Unpack leaves them, every other byte of the receive
// buffer untouched, by the copy program alone and by a one-rank Alltoallw
// under all three engines, which sends no message for it.  Layouts of
// different sizes are cut to the smaller one first.
func checkCopy(t *testing.T, st *datatype.Type, scount int, rt *datatype.Type, rcount int, sendShift, recvShift int) {
	if st.Blocks()*scount > fuzzMaxBlocks || rt.Blocks()*rcount > fuzzMaxBlocks {
		t.Skip("type map too large")
	}
	size := min(st.Size()*scount, rt.Size()*rcount)
	st, scount = cutTo(st, scount, size)
	rt, rcount = cutTo(rt, rcount, size)
	sspan, rspan := datatype.RequiredBytes(st, scount), datatype.RequiredBytes(rt, rcount)
	if sspan > fuzzMaxSpan || rspan > fuzzMaxSpan {
		t.Skip("type map too large")
	}
	src := shifted(sspan, sendShift)
	fillPattern(src, 17)
	stream := make([]byte, size)
	datatype.OraclePack(datatype.Flatten(st, scount), src, stream)
	image := shifted(rspan, recvShift)
	fillPattern(image, 99)
	datatype.OracleUnpack(datatype.Flatten(rt, rcount), image, stream)

	cp := datatype.CompileCopy(st, scount, rt, rcount)
	dst := shifted(rspan, recvShift)
	fillPattern(dst, 99)
	cp.Copy(dst, src)
	if !bytes.Equal(dst, image) {
		t.Fatalf("%v x%d into %v x%d (shifts %d/%d): copy differs from oracle pack then unpack",
			st, scount, rt, rcount, sendShift, recvShift)
	}
	if n := testing.AllocsPerRun(1, func() { cp.Copy(dst, src) }); n != 0 {
		t.Fatalf("%v x%d into %v x%d: copy allocates %v times", st, scount, rt, rcount, n)
	}

	for _, cfg := range []mpi.Config{mpi.Baseline(), mpi.Optimized(), mpi.Compiled()} {
		w := mpi.NewWorld(simnet.Uniform(1, simnet.IBDDR()), cfg)
		err := w.Run(func(c *mpi.Comm) error {
			fillPattern(dst, 99)
			c.Alltoallw(src, []mpi.TypeSpec{{Type: st, Count: scount}}, dst, []mpi.TypeSpec{{Type: rt, Count: rcount}})
			if !bytes.Equal(dst, image) {
				return fmt.Errorf("%v x%d into %v x%d, %v engine, %v: Alltoallw to self differs from oracle pack then unpack",
					st, scount, rt, rcount, cfg.Engine, cfg.Alltoallw)
			}
			if st := c.Stats(); st.MsgsSent != 0 || st.MsgsRecv != 0 {
				return fmt.Errorf("%v engine, %v: the local part counted %d sends, %d receives", cfg.Engine, cfg.Alltoallw, st.MsgsSent, st.MsgsRecv)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCopyMatchesOracle decodes (buffer shifts, count and type tree of the
// send side, count and type tree of the receive side) from the input and runs
// checkCopy.  The seed corpus holds the local parts of a 96^3 ghost update
// split in x and in y (the owned box, contiguous, into the interior of the
// ghosted box: 9216 rows of 384 B, 96 slabs of 36864 B), a restriction patch
// (sub-box into sub-box, both strided), the Fig. 16 evens into the odds, an
// irregular list into a strided run, misaligned bases and a zero-size pair.
func FuzzCopyMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 5, 2, 4, 3, 2, 1, 1, 1, 7, 3, 0, 2, 1, 2, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzIn{data}
		sendShift, recvShift := in.next()%8, in.next()%8
		scount := in.next() % 4
		st := fuzzType(in, 3)
		rcount := in.next() % 4
		checkCopy(t, st, scount, fuzzType(in, 3), rcount, sendShift, recvShift)
	})
}

// FuzzPlanKernelsMatchOracle decodes (count, buffer shifts, type tree) from
// the input and runs checkKernels.  The seed corpus under testdata/fuzz
// holds the Fig. 16 evens and odds types, an ex49-style irregular list of
// 8-byte blocks and the x- and y-split ghost faces of a 96^3 grid, aligned
// and not.
func FuzzPlanKernelsMatchOracle(f *testing.F) {
	f.Add([]byte{2, 3, 5, 8, 3, 4, 2, 1, 2, 1, 0, 5, 11, 1, 40, 0, 1, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzIn{data}
		count, userShift, streamShift := in.next()%4, in.next()%8, in.next()%8
		checkKernels(t, fuzzType(in, 3), count, userShift, streamShift)
	})
}

// TestPlanKernelsNamedShapes runs the fuzz bodies on named shapes: the four
// typed messages of mpi's TestRepresentationDifferential (ex49's zero-length
// and 1-byte entries between multi-KiB runs among them) and a struct
// alternating 8- and 16-byte fields, which the decoder cannot spell, through
// checkKernels; the local parts of an x- and a y-split ghost update and of a
// restriction patch, and pairs of the former, through checkCopy; all at every
// buffer shift.
func TestPlanKernelsNamedShapes(t *testing.T) {
	pair := datatype.Struct([]int{0, 16}, []*datatype.Type{datatype.Double, datatype.Contiguous(2, datatype.Double)})
	for _, sh := range []struct {
		name  string
		t     *datatype.Type
		count int
	}{
		{"ex49", datatype.Hindexed(
			[]int{0, 1, 4096, 0, 1, 8192, 2, 0, 1, 2048},
			[]int{0, 0, 64, 4500, 4503, 4600, 13000, 13500, 13507, 14000}, datatype.Byte), 1},
		{"dense-vector", datatype.Vector(512, 1, 2, datatype.Double), 1},
		{"contiguous-run", datatype.Contiguous(4096, datatype.Byte), 2},
		{"empty", datatype.Hindexed([]int{0, 0}, []int{0, 8}, datatype.Byte), 3},
		{"alternating-8-16", datatype.Resized(pair, 40), 300},
	} {
		t.Run(sh.name, func(t *testing.T) {
			for shift := 0; shift < 8; shift++ {
				checkKernels(t, sh.t, sh.count, shift, (shift*3)%8)
			}
		})
	}

	const n = 96 // the grid the ghost boxes are cut from; the patch is a level below
	owned := datatype.Contiguous(n*n*n/2, datatype.Double)
	ex49 := datatype.Hindexed(
		[]int{0, 1, 4096, 0, 1, 8192, 2, 0, 1, 2048},
		[]int{0, 0, 64, 4500, 4503, 4600, 13000, 13500, 13507, 14000}, datatype.Byte)
	for _, sh := range []struct {
		name           string
		send, recv     *datatype.Type
		scount, rcount int
	}{
		{"xsplit-ghost-interior", owned, datatype.Subarray([]int{n, n, n/2 + 1}, []int{n, n, n / 2}, []int{0, 0, 0}, datatype.Double), 1, 1},
		{"ysplit-ghost-interior", owned, datatype.Subarray([]int{n, n/2 + 1, n}, []int{n, n / 2, n}, []int{0, 1, 0}, datatype.Double), 1, 1},
		{"restrict-patch", datatype.Subarray([]int{24, 48, 48}, []int{12, 24, 24}, []int{6, 12, 12}, datatype.Double),
			datatype.Subarray([]int{14, 26, 26}, []int{12, 24, 24}, []int{1, 1, 1}, datatype.Double), 1, 1},
		{"evens-to-odds", datatype.Vector(512, 1, 2, datatype.Double),
			datatype.Struct([]int{8}, []*datatype.Type{datatype.Vector(512, 1, 2, datatype.Double)}), 1, 1},
		{"ex49-to-alternating-8-16", ex49, datatype.Resized(pair, 40), 1, 598},
		{"alternating-8-16-to-contiguous", datatype.Resized(pair, 40), datatype.Contiguous(4096, datatype.Byte), 300, 2},
		{"empty", datatype.Hindexed([]int{0, 0}, []int{0, 8}, datatype.Byte), datatype.Contiguous(0, datatype.Double), 3, 1},
	} {
		t.Run("copy/"+sh.name, func(t *testing.T) {
			for shift := 0; shift < 8; shift++ {
				checkCopy(t, sh.send, sh.scount, sh.recv, sh.rcount, shift, (shift*3)%8)
			}
		})
	}
}
