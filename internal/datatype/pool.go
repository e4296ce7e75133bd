package datatype

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"nccd/internal/obs"
)

// Size-classed byte-buffer pool shared by the datatype layer (pack scratch,
// plan streams) and internal/mpi (wire and envelope assembly on the
// reliable send path).  Buffers are pooled per power-of-two class; Get
// returns a slice of exactly the requested length backed by a pooled array.
// Putting a buffer whose contents may still be referenced elsewhere is the
// caller's bug — the mpi layer only returns wire buffers after the receive
// side has fully consumed them.

const (
	minPoolClass = 6  // 64 B — below this, pooling costs more than malloc
	maxPoolClass = 26 // 64 MiB — larger buffers go to the GC directly
)

// bufPools holds the free buffers of each class, boxPool the empty boxes
// they travel in: a sync.Pool stores pointers, and boxing the slice header
// afresh on every Put would allocate once per message.  A box leaves
// boxPool when a buffer is put and returns when that buffer is next got, so
// a steady-state Get/Put pair allocates nothing.
var (
	bufPools [maxPoolClass + 1]sync.Pool
	boxPool  = sync.Pool{New: func() any { return new([]byte) }}
)

// Pool traffic counters: one atomic add per operation, negligible next to
// the map/pool work itself.
var (
	mPoolGets = obs.Metrics.Counter("datatype.pool_gets")
	mPoolPuts = obs.Metrics.Counter("datatype.pool_puts")
)

// poolOutstanding tracks bytes handed out by GetBuffer and not yet returned
// through PutBuffer — the balance the pool tests check and the
// datatype.pool metric reports.  Counted in size-class capacities (what
// the pool actually holds); oversized buffers that bypass pooling are
// excluded, as are returns of buffers that never came from the pool, so the
// gauge is an approximation of pool-attributable memory pressure, not an
// exact ledger.
var poolOutstanding atomic.Int64

// PoolOutstandingBytes reports bytes currently checked out of the buffer
// pool.
func PoolOutstandingBytes() int64 { return poolOutstanding.Load() }

func init() {
	obs.Metrics.RegisterFunc("datatype.pool", func() any {
		return map[string]int64{"outstanding_bytes": poolOutstanding.Load()}
	})
}

func poolClass(n int) int {
	if n <= 1<<minPoolClass {
		return minPoolClass
	}
	return bits.Len(uint(n - 1))
}

// GetBuffer returns a byte slice of length n from the pool.  Contents are
// unspecified; callers must overwrite every byte they read back.
func GetBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	mPoolGets.Inc()
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]byte, n)
	}
	poolOutstanding.Add(1 << c)
	if v := bufPools[c].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		boxPool.Put(box)
		return b
	}
	b := make([]byte, 1<<c)
	return b[:n]
}

// PutBuffer returns b's backing array to the pool.  b must no longer be
// referenced by any other holder.  Buffers that did not come from GetBuffer
// are accepted if their capacity is an exact size class; others (and nil)
// are dropped for the GC.
func PutBuffer(b []byte) {
	c := cap(b)
	if c < 1<<minPoolClass || c > 1<<maxPoolClass || c&(c-1) != 0 {
		return
	}
	mPoolPuts.Inc()
	poolOutstanding.Add(-int64(c))
	box := boxPool.Get().(*[]byte)
	*box = b[:c]
	bufPools[poolClass(c)].Put(box)
}
