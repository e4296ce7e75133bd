package datatype

import (
	"fmt"
	"testing"

	"nccd/internal/floatbytes"
)

// Benchmarks racing the compiled-plan layer against the interpreted
// streaming engines on the scatter hot-path shape: 16-byte blocks on a
// 32-byte stride.  SetBytes makes `go test -bench` report MB/s directly.

func strided256K() *Type { return Vector(16384, 2, 4, Double) }

func benchPackEngine(b *testing.B, kind EngineKind) {
	ty := strided256K()
	buf := mkbuf(ty, 1)
	dst := make([]byte, ty.Size())
	scratch := make([]byte, 1<<16)
	b.SetBytes(int64(ty.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPacker(kind, ty, 1, buf, Options{})
		n := 0
		for {
			c, ok := p.NextChunk(scratch)
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
	}
}

func BenchmarkPackSingleContext256K(b *testing.B) { benchPackEngine(b, SingleContext) }
func BenchmarkPackDualContext256K(b *testing.B)   { benchPackEngine(b, DualContext) }

func BenchmarkPackCompiledPlan256K(b *testing.B) {
	ty := strided256K()
	buf := mkbuf(ty, 1)
	p := PlanFor(ty, 1)
	dst := make([]byte, p.Bytes())
	b.SetBytes(int64(p.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pack(buf, dst)
	}
}

func BenchmarkUnpackCompiledPlan256K(b *testing.B) {
	ty := strided256K()
	buf := mkbuf(ty, 1)
	p := PlanFor(ty, 1)
	stream := make([]byte, p.Bytes())
	p.Pack(buf, stream)
	b.SetBytes(int64(p.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Unpack(buf, stream)
	}
}

func BenchmarkPackCompiledPlanParallel2M(b *testing.B) {
	ty := Vector(1<<18, 1, 2, Double) // 2 MiB in 8-byte segments
	buf := mkbuf(ty, 1)
	p := PlanFor(ty, 1)
	dst := make([]byte, p.Bytes())
	p.Pack(buf, dst) // start the worker pool outside the timed region
	b.SetBytes(int64(p.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pack(buf, dst)
	}
}

func BenchmarkPlanForCacheHit(b *testing.B) {
	ty := strided256K()
	PlanFor(ty, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlanFor(ty, 1)
	}
}

// wordLoop packs count blocks of nw words each with an inner loop over
// uint64 views: the generic n-word kernel the sweep below prices against
// copy, and the reason only the 8- and 16-byte specialisations exist.
func wordLoop(sw, uw []uint64, step, nw, count int) {
	s, d := 0, 0
	for i := 0; i < count; i++ {
		blk, out := uw[s:s+nw], sw[d:d+nw]
		for j := range out {
			out[j] = blk[j]
		}
		s += step
		d += nw
	}
}

// BenchmarkPlanKernels is the sweep the kernel classes of kernel.go were
// cut from: 256 KiB in blocks of 8 B to 4 KiB on a stride of twice the
// block, packed and unpacked by the plan's program ("kernel"), by the
// per-segment walk it replaced ("walk") and by a generic inner word loop
// ("wordloop"), plus an irregular 8-byte list ("table").
func BenchmarkPlanKernels(b *testing.B) {
	const total = 256 << 10
	bench := func(name string, f func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	for _, l := range []int{8, 16, 24, 32, 48, 64, 128, 256, 1024, 4096} {
		ty := Hvector(total/l, l, 2*l, Byte)
		p, segs := CompilePlan(ty, 1), Flatten(ty, 1)
		buf, stream := mkbuf(ty, 1), make([]byte, total)
		uw, _ := floatbytes.Words(buf)
		sw, _ := floatbytes.Words(stream)
		name := fmt.Sprintf("%dB/", l)
		bench(name+"kernel/pack", func() { p.Pack(buf, stream) })
		bench(name+"kernel/unpack", func() { p.Unpack(buf, stream) })
		bench(name+"walk/pack", func() { copySegments(segs, buf, stream, false) })
		bench(name+"walk/unpack", func() { copySegments(segs, buf, stream, true) })
		bench(name+"wordloop/pack", func() { wordLoop(sw, uw, 2*l/8, l/8, total/l) })
	}
	lens, displs := make([]int, total/8), make([]int, total/8)
	off := 0
	for i := range lens {
		off += 16 + 8*(i*7%5)
		lens[i], displs[i] = 8, off
	}
	ty := Hindexed(lens, displs, Byte)
	p, segs := CompilePlan(ty, 1), Flatten(ty, 1)
	buf, stream := mkbuf(ty, 1), make([]byte, total)
	bench("8B/table/pack", func() { p.Pack(buf, stream) })
	bench("8B/table/unpack", func() { p.Unpack(buf, stream) })
	bench("8B/table-walk/pack", func() { copySegments(segs, buf, stream, false) })
}

// BenchmarkCopyPlan prices the typed local copy ("copy") against what it
// replaced, a Pack into a stream and an Unpack out of it ("pack+unpack"), on
// 384 KiB in each form of the program: two single segments, a single segment
// into rows, and strided into strided in blocks of 8, 16 and 384 bytes.
func BenchmarkCopyPlan(b *testing.B) {
	const total = 384 << 10
	strided := func(l, origin int) *Type {
		return Struct([]int{origin}, []*Type{Hvector(total/l, l, 2*l, Byte)})
	}
	rows := Hvector(total/384, 384, 392, Byte)
	for _, sh := range []struct {
		name       string
		send, recv *Type
	}{
		{"contiguous", Contiguous(total, Byte), strided(total, 64)},
		{"rows-384B", Contiguous(total, Byte), rows},
		{"strided-8B", strided(8, 0), strided(8, 8)},
		{"strided-16B", strided(16, 0), strided(16, 16)},
		{"strided-384B", strided(384, 0), rows},
	} {
		cp := CompileCopy(sh.send, 1, sh.recv, 1)
		pack, unpack := CompilePlan(sh.send, 1), CompilePlan(sh.recv, 1)
		src, dst, stream := mkbuf(sh.send, 1), mkbuf(sh.recv, 1), make([]byte, total)
		for _, arm := range []struct {
			name string
			f    func()
		}{
			{"copy", func() { cp.Copy(dst, src) }},
			{"pack+unpack", func() { pack.Pack(src, stream); unpack.Unpack(dst, stream) }},
		} {
			b.Run(sh.name+"/"+arm.name, func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					arm.f()
				}
			})
		}
	}
}
