package datatype

import (
	"runtime"
	"sync"
)

// Parallel pack/unpack.  Large plans shard their kernel program into
// byte-balanced ranges of blocks and hand each range to a persistent,
// GOMAXPROCS-bounded worker pool.  Every run carries its packed-stream
// offset, so shards are fully independent and need no coordination beyond a
// completion WaitGroup.  Tasks are plain value structs on a channel and the
// WaitGroups are pooled, keeping the steady state free of allocations.
const (
	// parallelMinBytes is the size cutoff below which packing stays serial:
	// handing work to the pool costs a few microseconds, which only pays
	// off once the copy itself dominates.
	parallelMinBytes = 1 << 20
	// parallelMinSegs keeps nearly contiguous plans serial regardless of
	// size — a handful of large memcpys does not benefit from sharding.
	parallelMinSegs = 256
	// maxPackWorkers bounds the pool even on very wide machines; past this
	// the copies are memory-bandwidth-bound anyway.
	maxPackWorkers = 32
)

type copyTask struct {
	p        *Plan
	user     []byte
	stream   []byte
	unpack   bool
	from, to pos
	wg       *sync.WaitGroup
}

var packPool struct {
	once    sync.Once
	workers int
	tasks   chan copyTask
}

var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// packWorkers returns the worker count, starting the pool on first use.
func packWorkers() int {
	packPool.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n > maxPackWorkers {
			n = maxPackWorkers
		}
		if n < 1 {
			n = 1
		}
		packPool.workers = n
		packPool.tasks = make(chan copyTask, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range packPool.tasks {
					t.p.exec(t.user, t.stream, t.unpack, t.from, t.to)
					t.wg.Done()
				}
			}()
		}
	})
	return packPool.workers
}

// parallelCopy shards the program at block boundaries near even byte splits
// and runs the shards on the pool.  The caller's goroutine takes the final
// shard itself, so the pool only ever carries workers-1 handoffs and a
// 1-worker pool degenerates to the serial loop.
func (p *Plan) parallelCopy(user, stream []byte, unpack bool) {
	w := packWorkers()
	end := pos{run: len(p.runs)}
	if w == 1 {
		p.exec(user, stream, unpack, pos{}, end)
		return
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	prev := pos{}
	for i := 1; i < w; i++ {
		cut := p.seek(p.bytes / w * i)
		if cut == prev {
			continue
		}
		wg.Add(1)
		packPool.tasks <- copyTask{p: p, user: user, stream: stream, unpack: unpack, from: prev, to: cut, wg: wg}
		prev = cut
	}
	p.exec(user, stream, unpack, prev, end)
	wg.Wait()
	wgPool.Put(wg)
}
