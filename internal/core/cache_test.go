package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"fepia/internal/stats"
	"fepia/internal/vec"
)

// prodAnalysis builds a one-feature analysis whose impact is the product of
// n one-element parameters — nonlinear, so radii go through the numeric
// level-set tier (the path the cache accelerates).
func prodAnalysis(t testing.TB, n int, bound float64) *Analysis {
	t.Helper()
	params := make([]Perturbation, n)
	for j := range params {
		params[j] = Perturbation{Name: "p", Orig: vec.Of(1)}
	}
	a, err := NewAnalysis([]Feature{{
		Name:   "product",
		Bounds: MaxOnly(bound),
		Impact: func(vs []vec.V) float64 {
			p := 1.0
			for _, v := range vs {
				p *= v[0]
			}
			return p
		},
	}}, params)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The sharded cache evicts by generation: when a shard's hot map fills, hot
// freezes to g1, g1 to g2, and the old g2 is dropped. With one shard and
// capacity 6 (hot generation of 2), six inserts fill all three generations
// and the seventh pair drops the first.
func TestImpactCacheGenerationalEviction(t *testing.T) {
	c := newImpactCache(CacheOptions{Capacity: 6, Shards: 1})
	key := func(i int) *cacheKey { return new(cacheKey).setWords(uint64(i)) }
	for i := 0; i < 6; i++ {
		c.put(key(i), float64(i))
	}
	st := c.totals()
	// Three rotations: {0,1}→g1, then →g2, then dropped when {4,5} froze.
	if st.Entries != 4 || st.Evictions != 2 || st.Stores != 6 {
		t.Fatalf("after 6 puts into cap-6 single-shard cache: %+v", st)
	}
	if _, ok := c.get(key(0)); ok {
		t.Fatal("oldest generation survived eviction")
	}
	for _, i := range []int{2, 3, 4, 5} {
		if v, ok := c.get(key(i)); !ok || v != float64(i) {
			t.Fatalf("get(%d) = %v, %v; surviving generations should hit", i, v, ok)
		}
	}
	// An evicted key is re-stored on its next put and hits again.
	c.put(key(0), 0)
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("re-stored key missed")
	}
	// The total never exceeds the configured capacity, no matter how many
	// distinct keys pass through.
	for i := 10; i < 110; i++ {
		c.put(key(i), float64(i))
	}
	st = c.totals()
	if st.Entries > 6 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	if st.Entries != int(st.Stores)-int(st.Evictions) {
		t.Fatalf("entry bookkeeping inconsistent: %+v", st)
	}
}

func TestImpactCacheNeverStoresNonFinite(t *testing.T) {
	c := newImpactCache(CacheOptions{Capacity: 8, Shards: 1})
	key := new(cacheKey).setWords('k')
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.put(key, v)
	}
	st := c.totals()
	if st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("non-finite values were stored: %+v", st)
	}
	if _, ok := c.get(key); ok {
		t.Fatal("lookup of never-stored key succeeded")
	}
}

// TestCacheNeverCachesFaultyEvaluations drives the integration path: an
// impact function that is finite only near the original point fails every
// numeric search with ErrNumeric. The fault must re-fire on a repeat run (a
// cached NaN would turn a contained failure into a silent one), and no
// non-finite value may ever appear among the cached entries.
func TestCacheNeverCachesFaultyEvaluations(t *testing.T) {
	a, err := NewAnalysis([]Feature{{
		Name:   "poison",
		Bounds: MaxOnly(2),
		Impact: func(vs []vec.V) float64 {
			x := vs[0][0]
			if math.Abs(x-1) > 0.05 {
				return math.NaN() // poisoned everywhere the search must go
			}
			return x * x
		},
	}}, []Perturbation{{Name: "x", Orig: vec.Of(1)}})
	if err != nil {
		t.Fatal(err)
	}
	a.EnableImpactCache(64)
	for trial := 0; trial < 2; trial++ {
		_, rerr := a.CombinedRadius(0, Normalized{})
		if !errors.Is(rerr, ErrNumeric) {
			t.Fatalf("trial %d: err = %v, want ErrNumeric", trial, rerr)
		}
	}
	st := a.CacheStats()
	if st.Misses == 0 {
		t.Fatal("expected cache lookups to have happened")
	}
	// Whatever was cached (the finite evaluations near the origin) must be
	// finite; the NaN region must never have been stored.
	a.cache.forEachValue(func(v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v found in cache", v)
		}
	})
	if st.Entries != int(st.Stores)-int(st.Evictions) {
		t.Fatalf("entry bookkeeping inconsistent: %+v", st)
	}
}

func TestCachedRadiusMatchesUncachedAndHits(t *testing.T) {
	a := prodAnalysis(t, 3, 4)
	cold, err := a.CombinedRadius(0, Normalized{})
	if err != nil {
		t.Fatal(err)
	}
	a.EnableImpactCache(0)
	warmup, err := a.CombinedRadius(0, Normalized{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := a.CombinedRadius(0, Normalized{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cold.Value - warmup.Value); d > 1e-9 {
		t.Fatalf("uncached %.15g vs first cached %.15g differ by %g", cold.Value, warmup.Value, d)
	}
	if d := math.Abs(cold.Value - cached.Value); d > 1e-9 {
		t.Fatalf("uncached %.15g vs warm cached %.15g differ by %g", cold.Value, cached.Value, d)
	}
	st := a.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("repeat of an identical search produced no cache hits: %+v", st)
	}
	if st.Stores == 0 {
		t.Fatalf("no evaluations were stored: %+v", st)
	}
}

func TestScalesMemo(t *testing.T) {
	k := vec.Of(2, 3, 5)
	orig := vec.Of(1, 2, 4)
	a, err := LinearOneElemAnalysis(k, orig, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	a.EnableImpactCache(0)

	// Sensitivity{} is comparable: the second query must be a memo hit.
	d1, err := a.scalesFor(Sensitivity{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.scalesFor(Sensitivity{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.V(d1).EqualApprox(d2, 0) {
		t.Fatalf("memoized scales differ: %v vs %v", d1, d2)
	}
	st := a.CacheStats()
	if st.ScaleHits != 1 || st.ScaleMisses != 1 {
		t.Fatalf("scale memo counters: %+v", st)
	}

	// Custom carries a slice (not comparable): computed fresh each time, no
	// memo traffic, and crucially no key collision between two different
	// alpha vectors sharing the name "custom".
	ca, err := a.scalesFor(Custom{Alphas: vec.Of(1, 1, 1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := a.scalesFor(Custom{Alphas: vec.Of(2, 2, 2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ca[0] == cb[0] {
		t.Fatal("distinct Custom weightings returned identical scales (memo collision)")
	}
	if st := a.CacheStats(); st.ScaleHits != 1 {
		t.Fatalf("Custom weighting went through the memo: %+v", st)
	}
}

func TestQuantizeResolution(t *testing.T) {
	// Values closer than ~4e-13 relative collapse onto one key…
	if quantize(1.0) != quantize(1.0+1e-14) {
		t.Fatal("quantize failed to collapse values 1e-14 apart")
	}
	// …while values the search can distinguish stay distinct.
	if quantize(1.0) == quantize(1.0+1e-9) {
		t.Fatal("quantize collapsed values 1e-9 apart")
	}
}

// TestQuantizeSignZeroCanonical is the regression fixture for the signed-
// zero key split: mantissa-bit masking alone maps +0.0 and −0.0 (and any
// tiny value whose magnitude bits vanish under the mask) to two distinct
// keys even though the search cannot distinguish them, so cache behavior
// depended on which side of zero an evaluation approached from.
func TestQuantizeSignZeroCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if quantize(negZero) != quantize(0.0) {
		t.Fatalf("quantize(−0.0)=%#x != quantize(+0.0)=%#x", quantize(negZero), quantize(0.0))
	}
	// Subnormals whose magnitude bits are entirely inside the masked low 12
	// bits land in the zero bucket; their signed variants must share it.
	tiny := math.Float64frombits(0x7FF) // smallest masked-away magnitude
	if quantize(-tiny) != quantize(tiny) {
		t.Fatalf("quantize(−tiny)=%#x != quantize(+tiny)=%#x", quantize(-tiny), quantize(tiny))
	}
	if quantize(tiny) != quantize(0.0) {
		t.Fatalf("masked-away magnitude %#x should share the zero bucket", quantize(tiny))
	}
	// Ordinary nonzero values must keep their sign distinct: −1 and +1 are
	// different inputs and must never share a key.
	if quantize(-1.0) == quantize(1.0) {
		t.Fatal("quantize collapsed −1.0 and +1.0")
	}
}

// TestCachedRadiusAcrossSignBoundary is the satellite property test: on
// impact functions whose level-set searches evaluate points on both sides
// of zero (|·|-shaped impacts centered near the origin, which generate
// −0.0 and sign-straddling coordinates inside the search), cached and
// uncached radii agree to 1e-9.
func TestCachedRadiusAcrossSignBoundary(t *testing.T) {
	src := stats.NewSource(1234)
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%3
		wv := make(vec.V, n)
		orig := make(vec.V, n)
		for i := 0; i < n; i++ {
			wv[i] = src.Uniform(0.5, 2)
			// Originals close to zero so boundary searches straddle it.
			orig[i] = src.Uniform(0.02, 0.3)
		}
		impact := func(vs []vec.V) float64 {
			s := 0.0
			for i, x := range vs[0] {
				s += wv[i] * math.Abs(x)
			}
			return s
		}
		bound := impact([]vec.V{orig}) * src.Uniform(1.5, 4)
		a, err := NewAnalysis([]Feature{{
			Name: "abs", Bounds: MaxOnly(bound), Impact: impact,
		}}, []Perturbation{{Name: "x", Orig: orig}})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := a.CombinedRadius(0, Normalized{})
		if err != nil {
			t.Fatalf("trial %d uncached: %v", trial, err)
		}
		a.EnableImpactCache(0)
		warm, err := a.CombinedRadius(0, Normalized{})
		if err != nil {
			t.Fatalf("trial %d cached: %v", trial, err)
		}
		if d := math.Abs(cold.Value - warm.Value); d > 1e-9 {
			t.Fatalf("trial %d: uncached %.15g vs cached %.15g differ by %g across sign boundary",
				trial, cold.Value, warm.Value, d)
		}
	}
}

// TestCacheEvictionRaceHammer drives LRU eviction from concurrent batch
// workers (run under -race in CI): a deliberately tiny cache forces
// eviction on nearly every store while many goroutines search the same
// analysis, then the documented mutation recipe (mutate the frozen
// analysis, re-enable the cache) must produce radii and weighting scales
// identical to a fresh uncached analysis — never a stale memo.
func TestCacheEvictionRaceHammer(t *testing.T) {
	a := prodAnalysis(t, 3, 6)
	a.EnableImpactCache(8) // tiny: evicts on almost every store
	ws := make([]Weighting, 8)
	for i := range ws {
		ws[i] = Custom{Alphas: vec.Of(1+float64(i)*0.1, 1, 1), Label: "w"}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs := a.RobustnessBatch(ws, EvalOptions{Workers: 4})
			for _, err := range errs {
				if err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	if st := a.CacheStats(); st.Evictions == 0 {
		t.Fatalf("hammer produced no evictions (cache too large for the test): %+v", st)
	}

	// Mutation recipe: change the analysis, re-enable the cache. Radii and
	// sensitivity scales must match a fresh analysis with no cache at all.
	a.Params[0].Orig = vec.Of(1.5)
	a.EnableImpactCache(8)
	got, err := a.Robustness(Sensitivity{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := prodAnalysis(t, 3, 6)
	fresh.Params[0].Orig = vec.Of(1.5)
	want, err := fresh.Robustness(Sensitivity{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got.Value - want.Value); d > 1e-9 {
		t.Fatalf("stale memo after mutation + re-enable: got %.15g, fresh %.15g (Δ %g)",
			got.Value, want.Value, d)
	}
}

func TestCacheDisabledStatsZero(t *testing.T) {
	a := prodAnalysis(t, 2, 4)
	if st := a.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("stats without a cache: %+v", st)
	}
	a.EnableImpactCache(16)
	if _, err := a.CombinedRadius(0, Normalized{}); err != nil {
		t.Fatal(err)
	}
	if st := a.CacheStats(); st.Misses == 0 {
		t.Fatalf("enabled cache saw no traffic: %+v", st)
	}
	a.DisableImpactCache()
	if st := a.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("stats after disable: %+v", st)
	}
}

// TestCacheSharedAcrossTiers verifies that single-parameter and combined
// searches of the same feature share cache entries: both key on the full
// quantized native vector.
func TestCacheSharedAcrossTiers(t *testing.T) {
	a := prodAnalysis(t, 2, 4)
	a.EnableImpactCache(0)
	if _, err := a.CombinedRadius(0, Normalized{}); err != nil {
		t.Fatal(err)
	}
	afterCombined := a.CacheStats()
	if _, err := a.RadiusSingle(0, 0); err != nil {
		t.Fatal(err)
	}
	afterSingle := a.CacheStats()
	if afterSingle.Hits <= afterCombined.Hits {
		t.Fatalf("single-parameter search reused no combined-search entries: %+v -> %+v",
			afterCombined, afterSingle)
	}
}

// TestCachedNumericAgreesOnRandomizedImpacts is the property test of the
// acceptance criteria: on randomized quadratic impacts evaluated through
// the *numeric* tier (the quadratic form is deliberately not declared Quad)
// and under both Normalized and Custom weightings, cached and uncached
// radii agree to 1e-9.
func TestCachedNumericAgreesOnRandomizedImpacts(t *testing.T) {
	src := stats.NewSource(42)
	for trial := 0; trial < 25; trial++ {
		n := 2 + trial%3
		av := make(vec.V, n)
		cv := make(vec.V, n)
		orig := make(vec.V, n)
		for i := 0; i < n; i++ {
			av[i] = src.Uniform(0.5, 2)
			cv[i] = src.Uniform(-0.5, 0.5)
			orig[i] = cv[i] + src.Uniform(0.3, 1)
		}
		impact := func(vs []vec.V) float64 {
			s := 0.0
			for i, x := range vs[0] {
				d := x - cv[i]
				s += av[i] * d * d
			}
			return s
		}
		bound := impact([]vec.V{orig}) * src.Uniform(1.2, 2)
		a, err := NewAnalysis([]Feature{{
			Name: "quad", Bounds: MaxOnly(bound), Impact: impact,
		}}, []Perturbation{{Name: "x", Orig: orig}})
		if err != nil {
			t.Fatal(err)
		}
		ws := []Weighting{Normalized{}, Custom{Alphas: vec.Of(src.Uniform(0.5, 2))}}
		for _, w := range ws {
			cold, err := a.CombinedRadius(0, w)
			if err != nil {
				t.Fatalf("trial %d (%s) uncached: %v", trial, w.Name(), err)
			}
			a.EnableImpactCache(0)
			for rep := 0; rep < 2; rep++ {
				warm, err := a.CombinedRadius(0, w)
				if err != nil {
					t.Fatalf("trial %d (%s) cached rep %d: %v", trial, w.Name(), rep, err)
				}
				if d := math.Abs(cold.Value - warm.Value); d > 1e-9 {
					t.Fatalf("trial %d (%s): uncached %.15g vs cached %.15g differ by %g",
						trial, w.Name(), cold.Value, warm.Value, d)
				}
			}
			a.DisableImpactCache()
		}
	}
}

// TestShardedCacheRaceHammer is the regression race test for the lock-free
// read path (run under -race in CI): goroutines hammer gets and puts over a
// shared keyspace with values derived from the key, interleaved with stats
// snapshots. Every hit must return exactly the key's value — a torn read,
// a reused map, or a publish without the atomic pointer would either trip
// the race detector or return a mismatched value.
func TestShardedCacheRaceHammer(t *testing.T) {
	c := newImpactCache(CacheOptions{Capacity: 384, Shards: 4})
	const keys = 200
	val := func(i int) float64 { return float64(i)*1.5 + 0.25 }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k cacheKey
			for op := 0; op < 4000; op++ {
				i := (op*7 + g*13) % keys
				k.setWords(uint64(i) * 2654435761)
				if v, ok := c.get(&k); ok {
					if v != val(i) {
						panic("cache hit returned a foreign value")
					}
				} else {
					c.put(&k, val(i))
				}
				if op%512 == 0 {
					c.totals()
					c.shardStats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.totals()
	if st.Hits+st.Misses != 8*4000 {
		t.Fatalf("lookup counters lost updates: %+v", st)
	}
	if st.Entries != int(st.Stores)-int(st.Evictions) {
		t.Fatalf("entry bookkeeping inconsistent after hammer: %+v", st)
	}
}

// TestShardedCacheEvictionUnderConcurrentWriters drives generation rotation
// from many concurrent writers on a deliberately tiny cache (satellite
// coverage, run under -race): every shard must evict, the total must stay
// within capacity, and the quiescent counters must reconcile.
func TestShardedCacheEvictionUnderConcurrentWriters(t *testing.T) {
	opt := CacheOptions{Capacity: 48, Shards: 2}
	c := newImpactCache(opt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k cacheKey
			for i := 0; i < 3000; i++ {
				c.put(k.setWords(uint64(g*100000+i)), float64(i))
			}
		}(g)
	}
	wg.Wait()
	st := c.totals()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under write pressure: %+v", st)
	}
	if st.Entries > opt.Capacity {
		t.Fatalf("capacity bound violated: %d entries > %d: %+v", st.Entries, opt.Capacity, st)
	}
	if st.Entries != int(st.Stores)-int(st.Evictions) {
		t.Fatalf("entry bookkeeping inconsistent: %+v", st)
	}
	for i, sh := range c.shardStats() {
		if sh.Evictions == 0 {
			t.Errorf("shard %d never rotated: %+v", i, sh)
		}
	}
}

// Per-shard stats must sum to the aggregate, and shard counts round up to a
// power of two.
func TestCacheShardStatsAggregate(t *testing.T) {
	a := prodAnalysis(t, 3, 4)
	a.EnableImpactCacheWith(CacheOptions{Capacity: 1 << 12, Shards: 3})
	if _, err := a.CombinedRadius(0, Normalized{}); err != nil {
		t.Fatal(err)
	}
	shards := a.CacheShardStats()
	if len(shards) != 4 {
		t.Fatalf("shard count 3 should round up to 4, got %d", len(shards))
	}
	var sum CacheStats
	for _, sh := range shards {
		sum.Hits += sh.Hits
		sum.Misses += sh.Misses
		sum.Stores += sh.Stores
		sum.Evictions += sh.Evictions
		sum.Entries += sh.Entries
	}
	st := a.CacheStats()
	if sum.Hits != st.Hits || sum.Misses != st.Misses || sum.Stores != st.Stores ||
		sum.Evictions != st.Evictions || sum.Entries != st.Entries {
		t.Fatalf("shard stats %+v do not sum to aggregate %+v", sum, st)
	}
	if a.CacheShardStats() == nil {
		t.Fatal("enabled cache reported nil shard stats")
	}
	a.DisableImpactCache()
	if a.CacheShardStats() != nil {
		t.Fatal("disabled cache reported shard stats")
	}
}

// allocBytesPerRun reports the heap bytes f allocates per call, the least
// of three measurements so that a stray allocation elsewhere in the test
// binary cannot inflate it.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / uint64(runs); b < best {
			best = b
		}
	}
	return best
}

// Attaching a cache allocates the shard array and nothing per entry of
// capacity: hot maps are created on a shard's first store. A closed-form
// analysis, which never stores, pays the same few KB whatever the
// capacity.
func TestEnableImpactCacheCostIndependentOfCapacity(t *testing.T) {
	a := prodAnalysis(t, 2, 4)
	var sizes []uint64
	for _, capacity := range []int{1 << 10, 1 << 16, 1 << 20} {
		b := allocBytesPerRun(50, func() {
			a.EnableImpactCacheWith(CacheOptions{Capacity: capacity, Shards: 64})
		})
		sizes = append(sizes, b)
	}
	t.Logf("bytes per attach: %v", sizes)
	for i, b := range sizes {
		if b != sizes[0] {
			t.Errorf("bytes per attach vary with capacity: %v (capacities 1<<10, 1<<16, 1<<20)", sizes)
			break
		}
		if b > 8<<10 {
			t.Errorf("attach #%d allocates %d B, want at most 8 KB", i, b)
		}
	}
}

// setWords loads raw key words into k and hashes them (test support: the
// engine builds keys with set).
func (k *cacheKey) setWords(ws ...uint64) *cacheKey {
	k.words = append(k.words[:0], ws...)
	k.hash = hashWords(k.words)
	k.hintIdx = nil
	return k
}

// presize gives every shard a hot table indexed for genCap entries of the
// given stride up front: the eager reference the lazy cache must match.
func presize(c *impactCache, stride int) {
	for i := range c.shards {
		c.shards[i].hot.Store(newGenTable(stride, c.genCap, c.genCap))
	}
}

// The lazy hot table changes no observable behaviour: a lookup before the
// first store creates nothing, the first store creates the shard's table,
// and through many rotations the lazy cache reports the same aggregate and
// per-shard counters, and the same radii bit for bit, as one whose hot
// tables are presized to genCap.
func TestLazyHotMapsMatchPresizedCache(t *testing.T) {
	opt := CacheOptions{Capacity: 96, Shards: 2}
	lazy, eager := prodAnalysis(t, 3, 4), prodAnalysis(t, 3, 4)
	lazy.EnableImpactCacheWith(opt)
	eager.EnableImpactCacheWith(opt)
	presize(eager.cache, 1+eager.TotalDim()+1)

	key := newCacheKey(3)
	key.set(0, vec.Of(42, 1, 1))
	if _, ok := lazy.cache.get(key); ok {
		t.Fatal("empty cache hit")
	}
	eager.cache.get(key)
	for i := range lazy.cache.shards {
		if lazy.cache.shards[i].hot.Load() != nil {
			t.Fatalf("shard %d has a hot table before its first store", i)
		}
	}
	same := func(when string) {
		t.Helper()
		if l, e := lazy.CacheStats(), eager.CacheStats(); l != e {
			t.Fatalf("%s: lazy stats %+v, presized %+v", when, l, e)
		}
		l, e := lazy.CacheShardStats(), eager.CacheShardStats()
		for i := range l {
			if l[i] != e[i] {
				t.Fatalf("%s: shard %d lazy %+v, presized %+v", when, i, l[i], e[i])
			}
		}
	}
	same("before the first store")

	lazy.cache.put(key, 1)
	eager.cache.put(key, 1)
	s := lazy.cache.shardOf(key.hash)
	if n := s.hot.Load().len(); n != 1 {
		t.Fatalf("first store left the shard's hot table with %d entries", n)
	}
	same("after the first store")

	for run := 0; run < 3; run++ {
		rl, errL := lazy.CombinedRadius(0, Normalized{})
		re, errE := eager.CombinedRadius(0, Normalized{})
		if errL != nil || errE != nil {
			t.Fatalf("run %d: %v, %v", run, errL, errE)
		}
		if math.Float64bits(rl.Value) != math.Float64bits(re.Value) {
			t.Fatalf("run %d: lazy radius %.17g, presized %.17g", run, rl.Value, re.Value)
		}
		same("after a search")
	}
	st := lazy.CacheStats()
	if st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("searches never rotated a generation or hit: %+v", st)
	}
	if st.Entries != int(st.Stores)-int(st.Evictions) {
		t.Fatalf("entry bookkeeping inconsistent: %+v", st)
	}
}

// refCache is the string-keyed generation store the flat tables replaced,
// kept as the reference model of the differential tests: per shard a hot
// map in front of two frozen maps, keyed on the bytes of the key words,
// with the same genCap and rotation rule. It runs on one goroutine, so it
// needs neither the mutex nor the atomic pointer. It picks shards by the
// same hash as impactCache, so on sequences whose stores all have one
// width the two agree lookup for lookup and counter for counter.
type refCache struct {
	shards []refShard
	mask   uint64
	genCap int
}

type refShard struct {
	hot, g1, g2                     map[string]float64
	hits, misses, stores, evictions uint64
}

func newRefCache(c *impactCache) *refCache {
	return &refCache{shards: make([]refShard, len(c.shards)), mask: c.mask, genCap: c.genCap}
}

func refKey(ws []uint64) string {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

func (r *refCache) shard(k *cacheKey) *refShard {
	return &r.shards[k.hash>>56&r.mask]
}

func (r *refCache) get(k *cacheKey) (float64, bool) {
	s, key := r.shard(k), refKey(k.words)
	for _, m := range []map[string]float64{s.g1, s.g2, s.hot} {
		if v, ok := m[key]; ok {
			s.hits++
			return v, true
		}
	}
	s.misses++
	return 0, false
}

func (r *refCache) put(k *cacheKey, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s, key := r.shard(k), refKey(k.words)
	if s.hot == nil {
		s.hot = make(map[string]float64)
	}
	if _, ok := s.hot[key]; ok {
		s.hot[key] = v
		return
	}
	s.hot[key] = v
	s.stores++
	if len(s.hot) >= r.genCap {
		s.evictions += uint64(len(s.g2))
		s.g1, s.g2, s.hot = s.hot, s.g1, nil
	}
}

func (s *refShard) stats() CacheShardStats {
	return CacheShardStats{
		Hits: s.hits, Misses: s.misses, Stores: s.stores, Evictions: s.evictions,
		Entries: len(s.hot) + len(s.g1) + len(s.g2),
	}
}

// cacheOpCoords are the coordinates the differential runs draw keys from:
// both zeros, two values within one quantum of each other, one just beyond
// it, a masked-away subnormal of each sign, NaN and both infinities.
var cacheOpCoords = []float64{
	0, math.Copysign(0, -1), 1, 1 + 1e-14, 1 + 1e-9, -1,
	math.Float64frombits(0x7FF), -math.Float64frombits(0x7FF), 2.5, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// runCacheOps drives an impactCache and the reference model with the op
// stream in data. Each op looks up one to three keys in turn and then
// stores the misses in reverse order, as a k-probe block does (so a miss
// hint can go stale before its put), or re-stores a key without looking it
// up first. Values are fresh per store, and one in eight is NaN or ±Inf.
// Every hit must return a value stored under the equal quantized key; a key
// one word shorter or longer than a looked-up key must miss unless it was
// stored itself; Entries must equal Stores − Evictions and stay within
// three generations per shard. With width > 0 every key has that many
// words, and the two models must then agree on every lookup and on every
// shard's counters; with width 0 widths vary per op. collide keeps only the
// shard byte and the low three bits of every hash, so that unequal keys —
// of one width or of two — share tags and probe chains all the time.
func runCacheOps(t testing.TB, opt CacheOptions, width int, collide bool, data []byte) {
	c := newImpactCache(opt)
	ref := newRefCache(c)
	stored := map[string]map[uint64]bool{}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	seq := 0.0
	value := func() float64 {
		switch b := next(); b % 8 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		default:
			seq++
			return seq + float64(b)/256
		}
	}
	put := func(k *cacheKey, v float64) {
		c.put(k, v)
		ref.put(k, v)
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s := refKey(k.words)
			if stored[s] == nil {
				stored[s] = map[uint64]bool{}
			}
			stored[s][math.Float64bits(v)] = true
		}
	}
	var gets uint64
	get := func(k *cacheKey) bool {
		gets++
		v, ok := c.get(k)
		rv, rok := ref.get(k)
		if ok && !stored[refKey(k.words)][math.Float64bits(v)] {
			t.Fatalf("hit on %x returned %v, never stored under that key", k.words, v)
		}
		if width > 0 && (ok != rok || math.Float64bits(v) != math.Float64bits(rv)) {
			t.Fatalf("lookup of %x: cache (%v, %v), reference (%v, %v)", k.words, v, ok, rv, rok)
		}
		return ok
	}
	var keys [3]cacheKey
	var probe cacheKey
	setWords := func(k *cacheKey, ws []uint64) {
		k.setWords(ws...)
		if collide {
			k.hash &= 0xFF<<56 | 7
		}
	}
	buf := make([]uint64, 0, 8)
	for len(data) > 0 {
		op := next()
		n := 1 + int(op%4)
		if n == 4 { // re-store without a lookup
			n = 1
		}
		for i := 0; i < n; i++ {
			w := width
			if w == 0 {
				w = 1 + int(next()%4)
			}
			buf = append(buf[:0], uint64(next()%3))
			for len(buf) < w {
				buf = append(buf, quantize(cacheOpCoords[int(next())%len(cacheOpCoords)]))
			}
			setWords(&keys[i], buf)
		}
		if op%4 == 3 {
			put(&keys[0], value())
		} else {
			var hit [3]bool
			for i := 0; i < n; i++ {
				hit[i] = get(&keys[i])
				// Keys one word shorter and one word longer.
				ws := keys[i].words
				for _, pw := range [][]uint64{ws[:len(ws)-1], append(ws[:len(ws):len(ws)], 0)} {
					if len(pw) == 0 {
						continue
					}
					setWords(&probe, pw)
					if get(&probe) && stored[refKey(pw)] == nil {
						t.Fatalf("key %x matched an entry of another width", pw)
					}
				}
			}
			for i := n - 1; i >= 0; i-- {
				if !hit[i] {
					put(&keys[i], value())
				}
			}
		}

		st := c.totals()
		if st.Hits+st.Misses != gets {
			t.Fatalf("%d lookups, counters %+v", gets, st)
		}
		if st.Entries != int(st.Stores)-int(st.Evictions) {
			t.Fatalf("entry bookkeeping inconsistent: %+v", st)
		}
		for i := range c.shards {
			sh := c.shards[i].stats()
			if sh.Entries > 3*c.genCap {
				t.Fatalf("shard %d holds %d entries, more than 3×%d", i, sh.Entries, c.genCap)
			}
			if width > 0 && sh != ref.shards[i].stats() {
				t.Fatalf("shard %d: cache %+v, reference %+v", i, sh, ref.shards[i].stats())
			}
		}
	}
}

// TestImpactCacheMatchesReferenceModel is the differential test of the flat
// generation tables against the string-keyed store they replaced: random op
// streams over small caches (so generations rotate constantly), half with
// one key width per run and half with widths varying per op, and a third of
// them with hashes cut down to collide.
func TestImpactCacheMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for run := 0; run < 120; run++ {
		opt := CacheOptions{Capacity: []int{3, 6, 12, 48, 200}[run%5], Shards: []int{1, 2, 4}[run%3]}
		width := 0
		if run%2 == 0 {
			width = 2 + run/2%4
		}
		// Mostly small bytes, so that keys repeat and lookups hit.
		data := make([]byte, 3000)
		for i := range data {
			if rng.IntN(5) == 0 {
				data[i] = byte(rng.Uint32())
			} else {
				data[i] = byte(rng.IntN(8))
			}
		}
		runCacheOps(t, opt, width, run%3 == 1, data)
	}
}

// FuzzImpactCache runs the differential check of
// TestImpactCacheMatchesReferenceModel on fuzzed op streams. cfg picks the
// capacity (1–16), whether hashes collide, the shard count (1–8) and
// whether widths are fixed.
func FuzzImpactCache(f *testing.F) {
	f.Add(byte(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Add(byte(0x85), []byte{1, 0, 0, 2, 3, 1, 2, 0, 4, 0, 5, 9, 3, 0, 1, 1})
	f.Add(byte(0x50), []byte("\x02\x00\x01\x03\x00\x0a\x0b\x0c\x02\x00\x01\x03\x00\x0a\x0b\x0c"))
	f.Fuzz(func(t *testing.T, cfg byte, data []byte) {
		opt := CacheOptions{Capacity: 1 + int(cfg%16), Shards: 1 << (cfg >> 5 & 3)}
		width := 0
		if cfg&0x80 != 0 {
			width = 2 + len(data)%4
		}
		runCacheOps(t, opt, width, cfg&0x10 != 0, data)
	})
}

// CacheStats sums the shard counters in place: served requests read it on
// every response, so it must not allocate.
func TestCacheStatsAllocatesNothing(t *testing.T) {
	a := prodAnalysis(t, 3, 4)
	a.EnableImpactCacheWith(CacheOptions{Shards: 64})
	if _, err := a.CombinedRadius(0, Normalized{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.CacheStats() }); n != 0 {
		t.Fatalf("CacheStats allocates %v times per call, want 0", n)
	}
}

// Distinct stores into one shard below genCap allocate O(log N) times —
// entry chunks of doubling size and index doublings — never once per entry.
func TestImpactCacheStoresAllocateLogarithmically(t *testing.T) {
	k := newCacheKey(3)
	x := vec.Of(0, 2, 3)
	for _, n := range []int{256, 4096} {
		allocs := testing.AllocsPerRun(3, func() {
			c := newImpactCache(CacheOptions{Capacity: 3 * (n + 1), Shards: 1})
			for i := 0; i < n; i++ {
				x[0] = float64(i)
				k.set(0, x)
				c.put(k, 1)
			}
			if st := c.totals(); st.Stores != uint64(n) || st.Evictions != 0 {
				t.Fatalf("%d stores below genCap: %+v", n, st)
			}
		})
		t.Logf("%d stores: %v allocations", n, allocs)
		if limit := 3 * bits.Len(uint(n)); allocs > float64(limit) {
			t.Errorf("%d stores allocate %v times, want at most %d", n, allocs, limit)
		}
	}
}

// BenchmarkImpactCacheLookup measures one evaluation's cache traffic on an
// 8-dimensional key: a miss followed by its store, and a hit in the hot
// table (under the shard mutex) or in a frozen generation (lock-free).
func BenchmarkImpactCacheLookup(b *testing.B) {
	const dim = 8
	x := make(vec.V, dim)
	for j := range x {
		x[j] = 1 + float64(j)/3
	}
	k := newCacheKey(dim)
	b.Run("miss+put", func(b *testing.B) {
		c := newImpactCache(CacheOptions{Capacity: 4096, Shards: 8})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x[0] = float64(i)
			k.set(0, x)
			if _, ok := c.get(k); !ok {
				c.put(k, x[0])
			}
		}
	})
	// 256 keys in one shard: a genCap of 256 freezes them all into g1, a
	// larger one keeps them hot.
	for _, bc := range []struct {
		name     string
		capacity int
	}{{"hit-frozen", 3 * 256}, {"hit-hot", 3 * 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			c := newImpactCache(CacheOptions{Capacity: bc.capacity, Shards: 1})
			for i := 0; i < 256; i++ {
				x[0] = float64(i)
				k.set(0, x)
				c.put(k, x[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x[0] = float64(i & 255)
				k.set(0, x)
				if _, ok := c.get(k); !ok {
					b.Fatal("miss on a stored key")
				}
			}
		})
	}
}
