package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"fepia/internal/vec"
)

// This file implements the memoizing impact-evaluation cache of the
// high-throughput evaluation engine. The numeric radius tier evaluates the
// impact function thousands of times per boundary search, and production
// callers re-run searches near the same boundary continuously (admission
// loops, candidate ranking, periodic re-analysis as workloads drift). The
// cache memoizes impact values keyed on the *quantized native* parameter
// vector, so repeated searches — same weighting, a different weighting that
// visits the same native points, or a whole batch of evaluations — reuse
// each evaluation instead of recomputing it.
//
// Structure: the cache is split into power-of-two many shards selected by a
// hash of the quantized key, and each shard keeps three generations of
// entries — a mutex-guarded "hot" write map plus two frozen generations
// published through an atomic pointer. A shard's hot map is created by its
// first store, so an unused cache costs the shard array alone. Reads probe
// the frozen generations without taking any lock (immutable maps are safe
// for concurrent readers), so at high QPS the common warm-cache hit costs
// two map probes and zero mutex operations; only writes and cold hits touch
// the shard mutex, and contention on it is divided by the shard count. When a shard's hot map
// reaches a third of the shard's capacity it is frozen: hot becomes
// generation 1, generation 1 becomes generation 2, and the old generation 2
// is dropped (its entries counted as evictions). The scheme approximates
// LRU with insertion generations: a hot entry survives two rotations
// (~two-thirds of the shard's capacity in intervening stores) and is then
// re-stored on its next miss.
//
// Safety rules (docs/architecture.md §cache):
//
//   - Keys quantize each coordinate by zeroing the low 12 mantissa bits
//     (~4e-13 relative), far below the level-set search tolerance, so a hit
//     returns a value whose input differs from the query by less than the
//     search can resolve. Cached and uncached radii agree to well under
//     1e-9 (property-tested in cache_test.go / batch_test.go).
//   - A poisoned evaluation — NaN/Inf result, or the NaN substituted by the
//     panic guard of failure.go — is NEVER stored. Faults must re-fire on
//     every evaluation so the containment layer of PR 1 keeps reporting
//     them; a cached NaN would also defeat DegradeOnNumeric retries.
//   - The cache is bounded: each shard holds at most three generations of
//     a third of its capacity, so the total never exceeds the configured
//     capacity (plus integer-division slack).
//
// The same structure memoizes Weighting.Scales vectors for comparable
// weighting values (Normalized{}, Sensitivity{}, …). Sensitivity scales
// recompute every single-parameter radius of the feature on each call, so
// this memo alone removes an O(|Φ|·|Π|) radius recomputation from every
// combined-radius query.

// CacheStats is a snapshot of the impact cache's aggregate counters.
// Per-shard counters are reported by Analysis.CacheShardStats.
type CacheStats struct {
	// Hits and Misses count impact-evaluation lookups.
	Hits, Misses uint64
	// Stores counts insertions (finite values only).
	Stores uint64
	// Evictions counts entries dropped by generation rotation.
	Evictions uint64
	// Entries is the current number of cached impact values across all
	// generations of all shards.
	Entries int
	// ScaleHits and ScaleMisses count Weighting.Scales memo lookups.
	ScaleHits, ScaleMisses uint64
}

// CacheShardStats is one shard's counters. A healthy cache spreads traffic
// roughly evenly; one shard drawing a large share of the misses while
// others sit idle indicates key skew (see docs/operations.md §performance
// troubleshooting).
type CacheShardStats struct {
	Hits, Misses, Stores, Evictions uint64
	Entries                         int
}

// DefaultCacheSize is the entry capacity EnableImpactCache uses when given
// a non-positive capacity. At 16 bytes of value plus ~64 bytes of key and
// bookkeeping per entry, the default stays in the low tens of megabytes.
const DefaultCacheSize = 1 << 16

// CacheOptions configure EnableImpactCacheWith.
type CacheOptions struct {
	// Capacity bounds the total entries across all shards. Non-positive
	// selects DefaultCacheSize.
	Capacity int
	// Shards is the shard count, rounded up to a power of two and capped at
	// 256. Non-positive derives it from GOMAXPROCS, clamped to [8, 64].
	// More shards divide write contention further at the cost of slightly
	// coarser per-shard capacity granularity.
	Shards int
}

// impactCache is the sharded, bounded, thread-safe memo behind
// EnableImpactCache.
type impactCache struct {
	shards []cacheShard
	mask   uint32
	genCap int // per-shard hot-generation capacity (capacity/shards/3)

	scalesMu    sync.Mutex
	scales      map[scalesKey]scalesVal
	scaleHits   atomic.Uint64
	scaleMisses atomic.Uint64
}

// frozenGens is an immutable pair of entry generations. g1 is the most
// recently frozen; g2 is dropped at the next rotation. Published via an
// atomic pointer, never mutated after publication — that immutability is
// what makes the read path lock-free.
type frozenGens struct {
	g1, g2 map[string]float64
}

type cacheShard struct {
	mu     sync.Mutex
	hot    map[string]float64
	frozen atomic.Pointer[frozenGens]

	hits, misses, stores, evictions atomic.Uint64
}

type scalesKey struct {
	w    Weighting
	feat int
}

type scalesVal struct {
	d   vec.V
	err error
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newImpactCache(opt CacheOptions) *impactCache {
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCacheSize
	}
	if opt.Shards <= 0 {
		opt.Shards = nextPow2(runtime.GOMAXPROCS(0))
		if opt.Shards < 8 {
			opt.Shards = 8
		}
		if opt.Shards > 64 {
			opt.Shards = 64
		}
	} else {
		opt.Shards = nextPow2(opt.Shards)
		if opt.Shards > 256 {
			opt.Shards = 256
		}
	}
	genCap := opt.Capacity / opt.Shards / 3
	if genCap < 1 {
		genCap = 1
	}
	c := &impactCache{
		shards: make([]cacheShard, opt.Shards),
		mask:   uint32(opt.Shards - 1),
		genCap: genCap,
		scales: make(map[scalesKey]scalesVal),
	}
	// Hot maps are created by a shard's first put, so a cache that never
	// stores — every closed-form-only analysis — costs the shard array and
	// one shared empty generation pair, whatever its capacity.
	empty := &frozenGens{}
	for i := range c.shards {
		c.shards[i].frozen.Store(empty)
	}
	return c
}

// quantize zeroes the low 12 mantissa bits of x, collapsing points within
// ~4.4e-13 relative distance onto one key. Quantization only widens the set
// of queries that share a key — the stored value is always a genuinely
// computed impact value, just at an input the search cannot distinguish
// from the query.
//
// Sign/zero canonicalization: plain mantissa masking maps +0.0 and −0.0 —
// and any tiny value whose magnitude bits vanish under the mask — to two
// distinct keys that both mean "zero as far as the search can resolve".
// IEEE-754 arithmetic produces −0.0 routinely (a sign-flipping multiply, a
// downward rounding at a sign boundary), so the split key made cache
// behavior depend on which side of zero an evaluation approached from:
// never a wrong value, but a spurious miss that defeated the memo exactly
// where boundary searches oscillate. Both patterns canonicalize to the
// +0.0 key. NaNs keep their (masked) payload but are never stored by put,
// so a NaN key can only ever miss.
func quantize(x float64) uint64 {
	b := math.Float64bits(x) &^ 0xFFF
	if b == 1<<63 { // −0.0 after masking: same bucket as +0.0
		b = 0
	}
	return b
}

// appendKey encodes (feature, quantized x) into buf and returns it. The
// caller reuses buf across evaluations; the encoded form only becomes a
// persistent string on store.
func appendKey(buf []byte, feature int, x vec.V) []byte {
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(feature))
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, quantize(v))
	}
	return buf
}

// shardOf hashes the encoded key (FNV-1a, high bits folded in) to a shard
// index. Keys differ mostly in the low mantissa-adjacent bytes of a few
// coordinates; FNV-1a mixes every byte, and the fold keeps the masked
// index sensitive to the high half.
func (c *impactCache) shardOf(key []byte) *cacheShard {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return &c.shards[(h^h>>16)&c.mask]
}

// get looks up an impact value. key is the appendKey encoding; the lookup
// does not retain or allocate from it. Hits in the frozen generations take
// no lock at all.
func (c *impactCache) get(key []byte) (float64, bool) {
	s := c.shardOf(key)
	fg := s.frozen.Load()
	if v, ok := fg.g1[string(key)]; ok { // compiler-optimized: no string alloc
		s.hits.Add(1)
		return v, true
	}
	if v, ok := fg.g2[string(key)]; ok {
		s.hits.Add(1)
		return v, true
	}
	s.mu.Lock()
	v, ok := s.hot[string(key)]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return v, true
	}
	s.misses.Add(1)
	return 0, false
}

// put stores a finite impact value, rotating the shard's generations when
// the hot map fills (the oldest generation's entries are the evictions).
// Non-finite values are dropped: a NaN/Inf (including the NaN a recovered
// panic substitutes) is a fault, and faults must re-fire.
func (c *impactCache) put(key []byte, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if s.hot == nil {
		// First store into this shard. Unsized: a shard that has not yet
		// filled a generation gives no sign it ever will.
		s.hot = make(map[string]float64)
	}
	if _, ok := s.hot[string(key)]; ok {
		s.hot[string(key)] = v
		s.mu.Unlock()
		return
	}
	s.hot[string(key)] = v
	s.stores.Add(1)
	if len(s.hot) >= c.genCap {
		// Freeze the hot generation. The ex-hot map is published before a
		// fresh map replaces it and is never written again, so lock-free
		// readers that acquire the new pointer observe a fully built map.
		fg := s.frozen.Load()
		s.frozen.Store(&frozenGens{g1: s.hot, g2: fg.g1})
		s.evictions.Add(uint64(len(fg.g2)))
		// This shard has filled a generation, so presizing its successor
		// avoids rehashing while it fills again.
		s.hot = make(map[string]float64, c.genCap)
	}
	s.mu.Unlock()
}

// statsLocked snapshots and aggregates the shard counters.
func (c *impactCache) statsLocked() CacheStats {
	var st CacheStats
	for _, sh := range c.shardStats() {
		st.Hits += sh.Hits
		st.Misses += sh.Misses
		st.Stores += sh.Stores
		st.Evictions += sh.Evictions
		st.Entries += sh.Entries
	}
	st.ScaleHits = c.scaleHits.Load()
	st.ScaleMisses = c.scaleMisses.Load()
	return st
}

// shardStats snapshots each shard's counters.
func (c *impactCache) shardStats() []CacheShardStats {
	out := make([]CacheShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hotLen := len(s.hot)
		s.mu.Unlock()
		fg := s.frozen.Load()
		out[i] = CacheShardStats{
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Stores:    s.stores.Load(),
			Evictions: s.evictions.Load(),
			Entries:   hotLen + len(fg.g1) + len(fg.g2),
		}
	}
	return out
}

// forEachValue visits every cached impact value (test support).
func (c *impactCache) forEachValue(fn func(float64)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, v := range s.hot {
			fn(v)
		}
		s.mu.Unlock()
		fg := s.frozen.Load()
		for _, v := range fg.g1 {
			fn(v)
		}
		for _, v := range fg.g2 {
			fn(v)
		}
	}
}

// EnableImpactCache attaches a bounded memoizing cache to the analysis:
// impact evaluations of the numeric radius tier are reused across repeated
// and batched searches, and Weighting.Scales vectors of comparable
// weighting values are memoized per feature. capacity ≤ 0 selects
// DefaultCacheSize entries. The shard count is derived from GOMAXPROCS;
// use EnableImpactCacheWith to set it explicitly.
//
// Enable the cache when the same analysis is queried repeatedly — service
// loops re-checking robustness as estimates drift, RobustnessBatch over
// many weightings, Tolerable/Certifier traffic — and the impact function is
// expensive (DES-backed, queueing models, anything beyond a few arithmetic
// ops). For one-shot numeric searches of cheap impacts the lookup overhead
// exceeds the evaluation cost; see docs/performance.md for measurements.
//
// Attaching a cache to an analysis whose features are all closed-form
// (linear or quadratic) is free: attaching allocates only the shard array,
// whatever the capacity, and a shard's map is created by its first store,
// which the closed-form tiers never make.
//
// The cache assumes the analysis is frozen: mutating Features, Params, or a
// weighting's underlying data after enabling invalidates cached values
// silently. Enable (or Disable) only from a single goroutine, before
// concurrent use; the cache itself is safe for concurrent readers and
// writers, and warm reads through the frozen generations take no lock.
// Faulty evaluations are never cached — see docs/architecture.md for how
// caching composes with the failure semantics of docs/failure-semantics.md.
func (a *Analysis) EnableImpactCache(capacity int) {
	a.cache = newImpactCache(CacheOptions{Capacity: capacity})
}

// EnableImpactCacheWith attaches a cache with explicit capacity and shard
// count. See EnableImpactCache for the usage contract.
func (a *Analysis) EnableImpactCacheWith(opt CacheOptions) {
	a.cache = newImpactCache(opt)
}

// DisableImpactCache detaches (and drops) the cache.
func (a *Analysis) DisableImpactCache() { a.cache = nil }

// CacheStats reports the cache's aggregate counters; the zero CacheStats
// when no cache is enabled.
func (a *Analysis) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	return a.cache.statsLocked()
}

// CacheShardStats reports per-shard counters (hit/miss/store/eviction and
// current entries), or nil when no cache is enabled. Shard imbalance —
// one shard much hotter than the rest — indicates key skew; see
// docs/operations.md.
func (a *Analysis) CacheShardStats() []CacheShardStats {
	if a.cache == nil {
		return nil
	}
	return a.cache.shardStats()
}

// scalesFor returns w.Scales(a, featIdx), memoized when the cache is
// enabled and the weighting value is comparable (usable as a map key —
// true for Normalized{}, Sensitivity{}, and other field-free or
// scalar-field weightings; Custom carries a slice and is computed afresh).
// The returned vector is shared: callers must not mutate it.
func (a *Analysis) scalesFor(w Weighting, featIdx int) (vec.V, error) {
	c := a.cache
	if c == nil || w == nil || !reflect.TypeOf(w).Comparable() {
		return w.Scales(a, featIdx)
	}
	k := scalesKey{w: w, feat: featIdx}
	c.scalesMu.Lock()
	if v, ok := c.scales[k]; ok {
		c.scaleHits.Add(1)
		c.scalesMu.Unlock()
		return v.d, v.err
	}
	c.scaleMisses.Add(1)
	c.scalesMu.Unlock()
	// Compute outside the lock: Sensitivity scales run whole radius
	// computations. Concurrent first queries may duplicate the work; the
	// last store wins and all results are identical for a frozen analysis.
	d, err := w.Scales(a, featIdx)
	c.scalesMu.Lock()
	c.scales[k] = scalesVal{d: d, err: err}
	c.scalesMu.Unlock()
	return d, err
}
