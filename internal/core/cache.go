package core

import (
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
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
// Keys: a search owns a reusable cacheKey holding the feature index and the
// quantized native coordinates as 64-bit words. The key's hash is computed
// once per evaluation, from whole words, and that one hash picks the shard,
// the table slot and the slot's tag for both the lookup and the store that
// follows a miss. A lookup allocates nothing and a miss remembers where its
// probe ended, so the store inserts without probing again.
//
// Structure: the cache is split into power-of-two many shards, and each
// shard keeps three generations of entries — a "hot" table written under
// the shard mutex plus two frozen generations published through an atomic
// pointer. Every generation is a flat open-addressing table (genTable)
// whose index and entries are plain []uint64 chunks: no entry is a heap
// object of its own and the garbage collector never scans cache contents.
// A shard's hot table is created by its first store, so an unused cache
// costs the shard array alone. Lookups take no lock at all — frozen tables
// are immutable, and a hot-table entry is complete before its index slot is
// published — so only stores touch the shard mutex, and contention on it is
// divided by the shard count. When a shard's hot table reaches a third of
// the shard's capacity it is frozen: hot becomes generation 1, generation 1
// becomes generation 2, and the old generation 2 is dropped (its entries
// counted as evictions). The scheme approximates LRU with insertion
// generations: a hot entry survives two rotations (~two-thirds of the
// shard's capacity in intervening stores) and is then re-stored on its next
// miss.
//
// Safety rules (docs/architecture.md §cache):
//
//   - Keys quantize each coordinate by zeroing the low 12 mantissa bits
//     (~4e-13 relative), far below the level-set search tolerance, so a hit
//     returns a value whose input differs from the query by less than the
//     search can resolve. Cached and uncached radii agree to well under
//     1e-9 (property-tested in cache_test.go / batch_test.go). A hit always
//     compares every key word: equal hashes alone never match.
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
// a non-positive capacity. An entry of a dim-dimensional analysis takes
// 8·(dim+2) bytes — the feature word, dim quantized coordinates and the
// value bits — plus two to four 8-byte index slots (the index is at most
// half full), so at dim 16 a full default cache holds about 11 MB.
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
	mask   uint64
	genCap int // per-shard hot-generation capacity (capacity/shards/3)

	scalesMu    sync.Mutex
	scales      map[scalesKey]scalesVal
	scaleHits   atomic.Uint64
	scaleMisses atomic.Uint64
}

// frozenGens is an immutable pair of entry generations. g1 is the most
// recently frozen; g2 is dropped at the next rotation. Published via an
// atomic pointer, never mutated after publication — that immutability is
// what makes the read path lock-free. A nil table is an empty generation.
type frozenGens struct {
	g1, g2 *genTable
}

type cacheShard struct {
	mu sync.Mutex
	// hot is nil until the shard's first store and after each rotation.
	// Readers load it without the lock; only put, holding mu, changes it.
	hot atomic.Pointer[genTable]
	// stores and evictions change only under mu.
	stores, evictions uint64

	frozen       atomic.Pointer[frozenGens]
	hits, misses atomic.Uint64
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

// maxGenCap keeps entry numbers within the 32 bits an index slot gives them.
const maxGenCap = 1 << 31

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
	genCap := min(max(opt.Capacity/opt.Shards/3, 1), maxGenCap)
	c := &impactCache{
		shards: make([]cacheShard, opt.Shards),
		mask:   uint64(opt.Shards - 1),
		genCap: genCap,
		scales: make(map[scalesKey]scalesVal),
	}
	// Hot tables are created by a shard's first put, so a cache that never
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

// hashWords hashes key words. Each word is folded in by xor, an odd
// multiply and a rotation — a bijection of the running state, so two keys
// of one width that differ in a single word never share a hash — and a
// murmur3 finalizer spreads every input bit over the result: the top byte
// picks the shard, the low 32 bits are the slot tag.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws)) * 0x9E3779B97F4A7C15
	for _, w := range ws {
		h = bits.RotateLeft64((h^w)*0xBF58476D1CE4E5B9, 27)
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// cacheKey is a reusable impact-cache key: the feature index followed by
// the quantized coordinates of a native point, and their hash. A search
// builds one per boundary search (one per probe row in k-probe mode) and
// refills it for every evaluation, so keying allocates nothing.
type cacheKey struct {
	words []uint64
	hash  uint64

	// Miss hint, left by get: the hot-table index it probed and the empty
	// slot its probe ended on. While that slot is still empty in the same
	// index, no equal key can have been inserted, so put stores there
	// without probing again.
	hintIdx  *[]uint64
	hintSlot int
}

func newCacheKey(dim int) *cacheKey {
	return &cacheKey{words: make([]uint64, 0, 1+dim)}
}

// set loads (feature, quantized x) into k and hashes it.
func (k *cacheKey) set(feature int, x vec.V) {
	w := append(k.words[:0], uint64(feature))
	for _, v := range x {
		w = append(w, quantize(v))
	}
	k.words = w
	k.hash = hashWords(w)
	k.hintIdx = nil
}

// genTable is one generation of a shard: a flat open-addressing hash table
// with no pointers into its contents. Each index slot holds the key hash's
// low 32 bits (the tag, which also gives the probe start) above the entry
// number plus one; zero marks an empty slot, and probing is linear at a
// load of at most one half. An entry is stride words — the key words, then
// the value's bits — in chunks of 16, 32, 64, … entries, the last cut so
// that the chunks hold at most limit entries: growth never moves an entry,
// and only the index is rebuilt when it doubles. A table holds keys of the
// single width its first store had.
//
// Only put, under the shard mutex, writes a table, and only while it is
// hot. Readers take no lock: a writer fills an entry before it publishes
// the entry's slot with an atomic store, builds a doubled index before it
// publishes the index pointer, and updates a stored value atomically, so a
// reader that loads a slot sees the whole entry.
type genTable struct {
	stride int // key width + 1
	limit  int // entry capacity: the cache's genCap
	n      int // entries; read and written under the shard mutex
	index  atomic.Pointer[[]uint64]
	chunks [][]uint64 // length fixed at creation; chunk c is made on first use
}

// chunk0 is the entry count of a table's first chunk; each later chunk
// doubles it.
const chunk0 = 16

// chunkOf locates entry e: its chunk and its first word in that chunk.
func chunkOf(e, stride int) (c, off int) {
	c = bits.Len(uint(e/chunk0+1)) - 1
	return c, (e - chunk0*(1<<c-1)) * stride
}

// newGenTable makes an empty table whose index holds expect entries before
// its first doubling.
func newGenTable(stride, limit, expect int) *genTable {
	last, _ := chunkOf(limit-1, stride)
	t := &genTable{stride: stride, limit: limit, chunks: make([][]uint64, last+1)}
	idx := make([]uint64, nextPow2(2*min(expect, limit)))
	t.index.Store(&idx)
	return t
}

func (t *genTable) len() int {
	if t == nil {
		return 0
	}
	return t.n
}

func (t *genTable) entry(e int) []uint64 {
	c, off := chunkOf(e, t.stride)
	return t.chunks[c][off : off+t.stride]
}

func entryValue(ent []uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(&ent[len(ent)-1]))
}

// find probes idx, an index of t, for k, whose width must be t's. It
// returns the matching slot and entry, or the empty slot ending the probe
// and a nil entry.
func (t *genTable) find(idx []uint64, k *cacheKey) (slot int, ent []uint64) {
	mask := uint64(len(idx) - 1)
	tag := k.hash & math.MaxUint32
	for i := tag & mask; ; i = (i + 1) & mask {
		s := atomic.LoadUint64(&idx[i])
		if s == 0 {
			return int(i), nil
		}
		if s>>32 == tag {
			ent := t.entry(int(s&math.MaxUint32) - 1)
			if slices.Equal(ent[:len(k.words)], k.words) {
				return int(i), ent
			}
		}
	}
}

// lookup returns k's value. Safe on a nil table and from any number of
// goroutines; a key of another width never matches.
func (t *genTable) lookup(k *cacheKey) (float64, bool) {
	if t == nil || t.stride != len(k.words)+1 {
		return 0, false
	}
	if _, ent := t.find(*t.index.Load(), k); ent != nil {
		return entryValue(ent), true
	}
	return 0, false
}

// insert stores k, absent from t, with value bits vb at the empty slot
// ending k's probe of idx, t's current index. It doubles the index first if
// the entry would take it past half full. The caller holds the shard mutex.
func (t *genTable) insert(idx []uint64, slot int, k *cacheKey, vb uint64) {
	if 2*(t.n+1) > len(idx) {
		idx = t.grow(idx)
		slot, _ = t.find(idx, k)
	}
	e := t.n
	if c, _ := chunkOf(e, t.stride); t.chunks[c] == nil {
		size := min(chunk0<<c, t.limit-chunk0*(1<<c-1))
		t.chunks[c] = make([]uint64, size*t.stride)
	}
	ent := t.entry(e)
	copy(ent, k.words)
	ent[t.stride-1] = vb
	atomic.StoreUint64(&idx[slot], k.hash<<32|uint64(e+1))
	t.n++
}

// grow publishes a doubled copy of idx, re-placing every slot by its tag,
// and returns it.
func (t *genTable) grow(idx []uint64) []uint64 {
	next := make([]uint64, 2*len(idx))
	mask := uint64(len(next) - 1)
	for _, s := range idx {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s
	}
	t.index.Store(&next)
	return next
}

func (c *impactCache) shardOf(h uint64) *cacheShard {
	return &c.shards[h>>56&c.mask]
}

// get looks up an impact value without taking any lock. A miss leaves k a
// hint for the put that follows.
func (c *impactCache) get(k *cacheKey) (float64, bool) {
	s := c.shardOf(k.hash)
	// hot before frozen: a rotation in between then leaves the ex-hot
	// table in g1, where it is still probed.
	hot := s.hot.Load()
	fg := s.frozen.Load()
	if v, ok := fg.g1.lookup(k); ok {
		s.hits.Add(1)
		return v, true
	}
	if v, ok := fg.g2.lookup(k); ok {
		s.hits.Add(1)
		return v, true
	}
	if hot != nil && hot.stride == len(k.words)+1 {
		idx := hot.index.Load()
		slot, ent := hot.find(*idx, k)
		if ent != nil {
			s.hits.Add(1)
			return entryValue(ent), true
		}
		k.hintIdx, k.hintSlot = idx, slot
	}
	s.misses.Add(1)
	return 0, false
}

// put stores a finite impact value, rotating the shard's generations when
// the hot table fills (the oldest generation's entries are the evictions).
// Non-finite values are dropped: a NaN/Inf (including the NaN a recovered
// panic substitutes) is a fault, and faults must re-fire.
func (c *impactCache) put(k *cacheKey, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	stride := len(k.words) + 1
	s := c.shardOf(k.hash)
	s.mu.Lock()
	t := s.hot.Load()
	if t != nil && t.stride != stride {
		// A key of another width freezes the hot table early, so that every
		// table keeps a single width.
		c.rotate(s, t)
		t = nil
	}
	if t == nil {
		// Unsized until the shard has filled a generation: before that it
		// gives no sign it ever will.
		expect := chunk0
		if s.frozen.Load().g1 != nil {
			expect = c.genCap
		}
		t = newGenTable(stride, c.genCap, expect)
		s.hot.Store(t)
	}
	idxp := t.index.Load()
	idx, slot := *idxp, k.hintSlot
	if k.hintIdx != idxp || idx[slot] != 0 {
		var ent []uint64
		if slot, ent = t.find(idx, k); ent != nil {
			atomic.StoreUint64(&ent[stride-1], math.Float64bits(v))
			s.mu.Unlock()
			return
		}
	}
	k.hintIdx = nil
	t.insert(idx, slot, k, math.Float64bits(v))
	s.stores++
	if t.n >= c.genCap {
		c.rotate(s, t)
	}
	s.mu.Unlock()
}

// rotate freezes the hot table t as g1, demotes g1 to g2 and drops the old
// g2, whose entries are the evictions. The caller holds s.mu.
func (c *impactCache) rotate(s *cacheShard, t *genTable) {
	fg := s.frozen.Load()
	s.frozen.Store(&frozenGens{g1: t, g2: fg.g1})
	s.hot.Store(nil)
	s.evictions += uint64(fg.g2.len())
}

// stats snapshots the shard's counters. Entries is read under the same
// lock as Stores and Evictions, so Entries == Stores − Evictions holds in
// every snapshot.
func (s *cacheShard) stats() CacheShardStats {
	s.mu.Lock()
	fg := s.frozen.Load()
	st := CacheShardStats{
		Stores:    s.stores,
		Evictions: s.evictions,
		Entries:   s.hot.Load().len() + fg.g1.len() + fg.g2.len(),
	}
	s.mu.Unlock()
	st.Hits, st.Misses = s.hits.Load(), s.misses.Load()
	return st
}

// totals sums the shard counters in place.
func (c *impactCache) totals() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := c.shards[i].stats()
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
		out[i] = c.shards[i].stats()
	}
	return out
}

// forEachValue visits every cached impact value (test support).
func (c *impactCache) forEachValue(fn func(float64)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		fg := s.frozen.Load()
		for _, t := range []*genTable{s.hot.Load(), fg.g1, fg.g2} {
			for e := 0; e < t.len(); e++ {
				fn(entryValue(t.entry(e)))
			}
		}
		s.mu.Unlock()
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
// whatever the capacity, and a shard's table is created by its first store,
// which the closed-form tiers never make.
//
// The cache assumes the analysis is frozen: mutating Features, Params, or a
// weighting's underlying data after enabling invalidates cached values
// silently. Enable (or Disable) only from a single goroutine, before
// concurrent use; the cache itself is safe for concurrent readers and
// writers, and lookups take no lock.
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
	return a.cache.totals()
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
