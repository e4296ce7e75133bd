package datatype

import (
	"container/list"
	"sync"

	"nccd/internal/obs"
)

// The plan cache.  PETSc-style applications execute the same scatter
// thousands of times per solve with an unchanged layout, so plans are
// memoized per (type signature, count) in a bounded LRU: the first send of a
// layout compiles, every later send is a map hit.  Types are immutable, so
// a cached plan never needs invalidation — eviction is purely capacity-
// driven, and structurally identical types built independently (two ranks
// constructing the same ghost layout) share one compiled plan.

// planKey identifies a compiled layout.  The structural hash is the primary
// discriminator; the exact size/extent/span/blocks figures ride along so a
// hash collision cannot alias two different layouts in practice.
type planKey struct {
	sig    uint64
	size   int
	extent int
	span   int
	blocks int
	count  int
}

// CacheStats reports plan cache traffic.  Hits divided by (Hits+Misses) is
// the steady-state reuse rate benchmarks assert on; Entries and Bytes
// describe the live working set (Bytes is the plans' estimated memory,
// maintained incrementally on insert and evict).
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// Rewrites counts lookups whose type was normalized to a different
	// canonical representative before the key was formed — the TEMPI-style
	// collapses that let structurally equal types share one plan.
	Rewrites int64 `json:"rewrites"`
}

// PlanCache is a bounded LRU of compiled plans, safe for concurrent use.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are *cacheEntry
	index map[planKey]*list.Element
	stats CacheStats
}

type cacheEntry struct {
	key  planKey
	plan *Plan
}

// NewPlanCache returns an LRU holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		panic("datatype: plan cache capacity must be positive")
	}
	return &PlanCache{cap: capacity, ll: list.New(), index: make(map[planKey]*list.Element)}
}

// DefaultPlanCacheCap is the capacity of the package-level cache: generous
// for a solver's working set of layouts (a few per scatter object) while
// bounding memory for adversarial workloads that churn layouts.
const DefaultPlanCacheCap = 256

// defaultPlanCache is the package-level cache PlanFor uses.
var defaultPlanCache = NewPlanCache(DefaultPlanCacheCap)

// Get returns the cached plan for (t, count), compiling and inserting it on
// a miss.  The type is normalized to its canonical form first, so
// structurally equal types — however they were constructed — share one key
// and one compiled plan.
func (c *PlanCache) Get(t *Type, count int) *Plan {
	ct := Canonicalize(t)
	key := planKey{sig: ct.sig, size: ct.size, extent: ct.extent, span: ct.span, blocks: ct.blocks, count: count}
	c.mu.Lock()
	if ct != t {
		c.stats.Rewrites++
	}
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		p := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		return p
	}
	c.stats.Misses++
	c.mu.Unlock()

	// Compile outside the lock: flattening a huge subarray must not block
	// every other rank's cache hits.  A racing compile of the same key is
	// harmless — both produce identical plans and the second insert wins.
	p := CompilePlan(ct, count)

	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		// Lost the race; adopt the incumbent so all callers share one plan.
		c.ll.MoveToFront(el)
		p = el.Value.(*cacheEntry).plan
	} else {
		c.index[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p})
		c.stats.Bytes += p.MemBytes()
		if c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			evicted := oldest.Value.(*cacheEntry)
			delete(c.index, evicted.key)
			c.stats.Bytes -= evicted.plan.MemBytes()
			c.stats.Evictions++
		}
	}
	c.stats.Entries = c.ll.Len()
	c.mu.Unlock()
	return p
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// Reset empties the cache and zeroes its counters (test/benchmark hook).
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.index = make(map[planKey]*list.Element)
	c.stats = CacheStats{}
}

// PlanFor returns the compiled plan for count instances of t from the
// package-level LRU cache.  This is the entry point the mpi and petsc hot
// paths use; steady state is one mutex-guarded map hit.
func PlanFor(t *Type, count int) *Plan { return defaultPlanCache.Get(t, count) }

// PlanCacheStats returns the package-level cache counters.
func PlanCacheStats() CacheStats { return defaultPlanCache.Stats() }

// ResetPlanCache empties the package-level cache (test/benchmark hook).
func ResetPlanCache() { defaultPlanCache.Reset() }

// The package-level cache publishes its snapshot to the process metrics
// registry, so the nccdd debug endpoint reports plan-cache behavior with
// no wiring in the daemon.
func init() {
	obs.Metrics.RegisterFunc("datatype.plan_cache", func() any { return PlanCacheStats() })
}
