// Package plancache implements the shared plan cache that amortizes the
// cost of CBQT optimization across executions — the reproduction of the
// shared cursor cache the paper leans on to justify the optimizer's expense
// (§3: "the cost of optimization is amortized over many executions").
//
// The cache is sharded for concurrency, bounded with second-chance (clock)
// eviction, and coalesces concurrent misses for the same key through a
// per-key singleflight, so a burst of identical queries triggers exactly
// one optimizer run. Keys combine the normalized query text, the search
// strategy fingerprint, and the catalog's statistics/DDL version: ANALYZE
// or CREATE INDEX bumps the version, which both routes new lookups past
// stale plans and lets the cache sweep them out (counted as
// invalidations, distinct from capacity evictions).
//
// Hit/miss/eviction/invalidation/coalescing counters are published through
// an obsv.Registry under the "plancache." prefix.
package plancache

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// Metric names published to the registry.
const (
	MetricHits          = "plancache.hits"
	MetricMisses        = "plancache.misses"
	MetricEvictions     = "plancache.evictions"
	MetricInvalidations = "plancache.invalidations"
	MetricCoalesced     = "plancache.coalesced"
	MetricEntries       = "plancache.entries"
)

// DefaultMaxEntries bounds the cache when the caller passes maxEntries <= 0.
const DefaultMaxEntries = 1024

const numShards = 16

// Key identifies one cached plan.
type Key struct {
	// SQL is the normalized query text (see Normalize).
	SQL string
	// Strategy fingerprints the optimizer configuration (search strategy,
	// budget class, rule modes): plans chosen under different options are
	// distinct cache entries.
	Strategy string
	// Version is the catalog statistics/DDL version the plan was (or will
	// be) optimized under.
	Version int64
}

// String renders the key as the canonical cache-map key.
func (k Key) String() string {
	return fmt.Sprintf("v%d|%s|%s", k.Version, k.Strategy, k.SQL)
}

// entry is one cached plan with its clock-algorithm reference bit.
type entry struct {
	key  Key
	val  any
	slot int  // position in the shard's clock ring
	ref  bool // second-chance bit, set on every hit
}

// call is an in-flight singleflight computation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	ring    []*entry // clock ring, fixed capacity; nil slots are free
	hand    int
	calls   map[string]*call
}

// Cache is a sharded, bounded, concurrency-safe plan cache.
type Cache struct {
	shards   [numShards]shard
	perShard int
	count    atomic.Int64

	hits          *obsv.Counter
	misses        *obsv.Counter
	evictions     *obsv.Counter
	invalidations *obsv.Counter
	coalesced     *obsv.Counter
	entries       *obsv.Gauge
}

// New creates a cache bounded to maxEntries plans (DefaultMaxEntries when
// <= 0), publishing its counters to reg (which may be nil).
func New(maxEntries int, reg *obsv.Registry) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	per := (maxEntries + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{
		perShard:      per,
		hits:          reg.Counter(MetricHits),
		misses:        reg.Counter(MetricMisses),
		evictions:     reg.Counter(MetricEvictions),
		invalidations: reg.Counter(MetricInvalidations),
		coalesced:     reg.Counter(MetricCoalesced),
		entries:       reg.Gauge(MetricEntries),
	}
	for i := range c.shards {
		c.shards[i] = shard{
			entries: map[string]*entry{},
			ring:    make([]*entry, per),
			calls:   map[string]*call{},
		}
	}
	return c
}

func (c *Cache) shard(ks string) *shard {
	h := fnv.New32a()
	h.Write([]byte(ks))
	return &c.shards[h.Sum32()%numShards]
}

// Get returns the cached value for k, if present, marking it recently used.
func (c *Cache) Get(k Key) (any, bool) {
	ks := k.String()
	s := c.shard(ks)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[ks]; ok {
		e.ref = true
		c.hits.Inc()
		return e.val, true
	}
	c.misses.Inc()
	return nil, false
}

// GetOrCompute returns the cached value for k, computing and caching it on
// a miss. Concurrent misses for the same key are coalesced: exactly one
// caller runs compute, the rest block and share its result (shared reports
// whether the value came from the cache or another caller's computation —
// i.e. whether this call avoided an optimizer run). Errors are returned to
// every waiter and are not cached.
func (c *Cache) GetOrCompute(k Key, compute func() (any, error)) (val any, shared bool, err error) {
	ks := k.String()
	s := c.shard(ks)

	s.mu.Lock()
	if e, ok := s.entries[ks]; ok {
		e.ref = true
		c.hits.Inc()
		s.mu.Unlock()
		return e.val, true, nil
	}
	if cl, ok := s.calls[ks]; ok {
		c.coalesced.Inc()
		s.mu.Unlock()
		cl.wg.Wait()
		return cl.val, true, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	s.calls[ks] = cl
	c.misses.Inc()
	s.mu.Unlock()

	cl.val, cl.err = compute()

	s.mu.Lock()
	delete(s.calls, ks)
	if cl.err == nil {
		c.insertLocked(s, &entry{key: k, val: cl.val})
	}
	s.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// insertLocked places e into the shard, evicting by second chance when the
// ring is full. Caller holds s.mu.
func (c *Cache) insertLocked(s *shard, e *entry) {
	if old, ok := s.entries[e.key.String()]; ok {
		// A racing recompute of the same key: replace in place.
		old.val, old.ref = e.val, true
		return
	}
	for {
		v := s.ring[s.hand]
		if v == nil {
			break
		}
		if v.ref {
			v.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, v.key.String())
		s.ring[s.hand] = nil
		c.evictions.Inc()
		c.count.Add(-1)
		break
	}
	e.slot = s.hand
	s.ring[s.hand] = e
	s.hand = (s.hand + 1) % len(s.ring)
	s.entries[e.key.String()] = e
	c.entries.Set(c.count.Add(1))
}

// Invalidate removes every entry whose key version is below version —
// plans optimized under statistics that ANALYZE or DDL has since replaced —
// and returns how many were dropped. Stale entries that are never swept
// are still harmless (new lookups carry the new version and miss), but
// sweeping frees their slots immediately.
func (c *Cache) Invalidate(version int64) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed := 0
		for ks, e := range s.entries {
			if e.key.Version < version {
				delete(s.entries, ks)
				s.ring[e.slot] = nil
				removed++
			}
		}
		// Settle the count under the shard lock: an insert racing into a
		// freed slot after the unlock must see the removal already counted,
		// or Len overshoots the capacity.
		c.entries.Set(c.count.Add(int64(-removed)))
		s.mu.Unlock()
		n += removed
	}
	c.invalidations.Add(int64(n))
	return n
}

// Len counts the cached entries across all shards.
func (c *Cache) Len() int { return int(c.count.Load()) }
