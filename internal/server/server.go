// Package server implements fepiad, the resilient robustness-evaluation
// daemon: an HTTP JSON service exposing the engine's single-kind, combined,
// and batch evaluations on top of the hardened Ctx/batch/cache tiers, built
// to stay correct and responsive when its inputs and environment misbehave.
//
// The resilience mechanisms, in request order:
//
//   - Admission control (admission.go): every request is costed from its
//     scenario size; a cost-bounded queue sheds excess load with 429 and a
//     backlog-derived Retry-After instead of queuing without bound.
//   - Deadlines: every request runs under a context deadline — its own
//     requested timeout clamped to a server maximum, or the server default —
//     threaded into the evaluation engine, which cancels within one
//     impact-function evaluation.
//   - Circuit breaking (breaker.go): consecutive numeric-tier failures for
//     a scenario class trip that class to the Monte-Carlo degraded tier
//     (EvalOptions.ForceDegraded) and recover through jittered-backoff
//     half-open probes.
//   - Graceful drain: BeginDrain flips /readyz to 503 and rejects new work;
//     Drain then waits for in-flight requests, cancelling them at the
//     deadline so every accepted request still gets a terminal response.
//
// /healthz, /readyz, and /statz expose liveness, readiness, and a counters
// snapshot (queue depth, shed count, breaker states, cache hit rate).
// docs/operations.md is the operator manual; docs/failure-semantics.md
// §server maps HTTP statuses to the engine's typed errors.
package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fepia/internal/core"
	"fepia/internal/scenario"
)

// Config tunes the daemon. The zero value serves with the defaults noted on
// each field.
type Config struct {
	// DefaultTimeout applies when a request names no timeout (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps any requested timeout (default 2m).
	MaxTimeout time.Duration
	// MaxConcurrent is the number of evaluation slots (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueueCost bounds the admission queue in cost units — estimated
	// impact evaluations of queued-plus-running work (default 1<<20).
	MaxQueueCost int64
	// TenantHeader names the header carrying the tenant identity (default
	// "X-Tenant"); requests without it are charged to the "default" tenant.
	TenantHeader string
	// TenantQuotaCost is the per-tenant reserved-cost ceiling at weight 1:
	// a tenant over quota is shed with 429 and a tenant-scoped Retry-After
	// even when the aggregate queue has room. 0 defaults to MaxQueueCost/4;
	// <0 disables per-tenant quotas (only the aggregate bound applies).
	TenantQuotaCost int64
	// TenantWeights sets per-tenant weights for the weighted-fair slot
	// queue and scales quotas; unlisted tenants weigh 1.
	TenantWeights map[string]float64
	// Workers is the per-evaluation worker-pool size handed to the engine
	// (default 1: concurrency comes from serving many requests).
	Workers int
	// DegradeSamples is the Monte-Carlo fallback's sampling budget per
	// bisection round (default 256; tests shrink it).
	DegradeSamples int
	// CacheCap enables the per-analysis impact cache: >0 sets the entry
	// capacity, 0 uses the engine default, <0 disables caching. The cache
	// allocates per entry only as the numeric tier stores into it, so on a
	// request whose features are all closed-form (linear or quadratic) it
	// costs nothing beyond its shard array.
	CacheCap int
	// CacheShards overrides the impact cache's shard count (rounded up to a
	// power of two by the engine). 0 lets the engine derive it from
	// GOMAXPROCS; raise it if /statz cacheShards shows contended shards on
	// wide machines. Ignored when CacheCap < 0.
	CacheShards int
	// ScenarioCacheCap enables the cross-request scenario cache: >0 keeps
	// that many built analyses — with their warm impact caches — in an LRU
	// keyed by scenario fingerprint, so repeated traffic for a scenario
	// skips the rebuild and starts cache-warm. 0 (the default) disables it;
	// see scache.go for the bit-stability trade-off. Chaos-decorated
	// requests always bypass it.
	ScenarioCacheCap int
	// StoreDir enables the persistent scenario store: every scenario the
	// cache builds is also written (content-addressed by fingerprint,
	// atomic + checksummed) under this directory, and WarmStart reloads it
	// after a restart so the scenario cache starts warm instead of cold.
	// Requires ScenarioCacheCap > 0 to have any effect; empty disables
	// persistence. Corrupt store files are skipped and rebuilt from
	// traffic, never fatal.
	StoreDir string
	// StoreMaxBytes bounds the persistent scenario store's on-disk
	// footprint: after every write the least-recently-accessed unpinned
	// entries are evicted until the store fits (fepiad_store_evictions_total
	// counts them). Entries pinned by a running search are never evicted.
	// ≤ 0 (the default) leaves the store unbounded.
	StoreMaxBytes int64
	// StateDir enables search checkpointing: every completed generation of
	// a /v1/search run is persisted (atomic + checksummed) under
	// <StateDir>/searches, surviving checkpoints appear as "resumable" rows
	// in /statz after a restart (call LoadResumableSearches), and a request
	// with resumeId continues the run bit-identically. Empty disables
	// checkpointing. Corrupt checkpoint files are quarantined, never fatal.
	StateDir string
	// MaxWatches bounds the live watches the daemon keeps in memory
	// (default 64; <0 disables the bound).
	MaxWatches int
	// MaxWatchesPerTenant bounds one tenant's live watches (default 8;
	// <0 disables the per-tenant bound). Over-quota creates are shed with
	// 429 kind "tenant-quota", mirroring admission.
	MaxWatchesPerTenant int
	// WatchEventCap bounds each watch's in-memory (and checkpointed) event
	// journal; a subscriber resuming from before the journal's horizon gets
	// 410 and must re-create its view (default 1024; <0 unbounded).
	WatchEventCap int
	// BreakerThreshold is the consecutive-failure count that trips a
	// class's breaker (default 5).
	BreakerThreshold int
	// BreakerBackoff / BreakerMaxBackoff shape the open interval: it
	// starts at BreakerBackoff (default 1s) and doubles per failed probe
	// up to BreakerMaxBackoff (default 2m), ±25% jitter.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// BreakerSeed seeds the jitter stream (0 = time-seeded).
	BreakerSeed int64
	// DrainGrace is how long Drain keeps waiting after cancelling
	// in-flight work at its deadline (default 5s).
	DrainGrace time.Duration
	// EnableChaos accepts test-only fault-injection decorations on
	// requests (see docs/operations.md §chaos). Never enable in
	// production: it lets callers inject panics and latency.
	EnableChaos bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueueCost <= 0 {
		c.MaxQueueCost = 1 << 20
	}
	if c.TenantHeader == "" {
		c.TenantHeader = HeaderTenant
	}
	if c.TenantQuotaCost == 0 {
		c.TenantQuotaCost = c.MaxQueueCost / 4
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxWatches == 0 {
		c.MaxWatches = 64
	}
	if c.MaxWatchesPerTenant == 0 {
		c.MaxWatchesPerTenant = 8
	}
	if c.WatchEventCap == 0 {
		c.WatchEventCap = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the daemon's request-independent state. Create with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg      Config
	adm      *admission
	brk      *breakerSet
	scache   *scenarioCache
	store    *scenario.Store  // nil unless Config.StoreDir is set and opened
	warmRegs *warmRegCache    // warm-start registries that outlive scache evictions
	searches *SearchTracker   // allocation-search progress for /statz
	ckpts    *CheckpointStore // nil unless Config.StateDir is set and opened
	watches  *watchTracker    // live watch subscriptions (watch.go)
	wstore   *watchStore      // nil unless Config.StateDir is set and opened

	// warmRegDir persists warm-start registries across restarts (see
	// warmdisk.go); empty unless Config.StateDir is set and usable.
	warmRegDir string

	// Warm-start outcome (set once by WarmStart, read by /statz).
	warmLoaded  atomic.Int64
	warmSkipped atomic.Int64

	// Per-class impact-cache counters for /statz (classMu guards the map;
	// classes are few — one per structural scenario signature).
	classMu    sync.Mutex
	classCache map[string]*classCacheCounters

	// base is cancelled at the drain deadline to abort in-flight work; all
	// request contexts are tied to it.
	base       context.Context
	baseCancel context.CancelFunc

	// In-flight accounting for drain. draining also gates admission.
	mu       sync.Mutex
	inflight int
	draining bool
	idle     chan struct{}
	idleOnce sync.Once

	start time.Time
	stats serverStats
}

// serverStats are the daemon's monotonic counters, all atomics: they are
// bumped from request goroutines and read by /statz without locks.
type serverStats struct {
	accepted         atomic.Uint64 // requests admitted past the queue bound
	shed             atomic.Uint64 // 429s from admission control
	rejectedDraining atomic.Uint64 // 503s because drain had begun
	badRequests      atomic.Uint64 // 400s (malformed/invalid scenarios)
	completedOK      atomic.Uint64 // 200s with certified (non-degraded) results
	completedDegr    atomic.Uint64 // 200s with at least one degraded radius
	errDeadline      atomic.Uint64 // 504s
	errCancelled     atomic.Uint64 // 503s (drain/client cancellation mid-flight)
	errInternal      atomic.Uint64 // 500s (panic/numeric/unexpected)

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// Scenario-cache lookups (distinct from the impact-cache counters
	// above): a hit reuses a built analysis, a warm hit reuses one the
	// store warm-started after a restart.
	scenarioHits   atomic.Uint64
	scenarioMisses atomic.Uint64
	storeWarmHits  atomic.Uint64

	// Warm-registry persistence outcomes (see warmdisk.go).
	warmRegSaved      atomic.Uint64
	warmRegSaveErrors atomic.Uint64
	warmRegLoaded     atomic.Uint64
	warmRegSkipped    atomic.Uint64

	// Live-watch lifecycle and delta outcomes (see watch.go).
	watchCreated       atomic.Uint64
	watchResumed       atomic.Uint64
	watchClosed        atomic.Uint64
	watchUpdates       atomic.Uint64
	watchStructural    atomic.Uint64
	watchEvents        atomic.Uint64
	watchLagDrops      atomic.Uint64
	watchDirtyFeatures atomic.Uint64
	watchCleanFeatures atomic.Uint64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	bcfg := breakerConfig{
		threshold:  cfg.BreakerThreshold,
		backoff:    cfg.BreakerBackoff,
		maxBackoff: cfg.BreakerMaxBackoff,
	}
	if cfg.BreakerSeed != 0 {
		bcfg.rng = rand.New(rand.NewSource(cfg.BreakerSeed))
	}
	adm := newAdmission(cfg.MaxConcurrent, cfg.MaxQueueCost)
	if cfg.TenantQuotaCost > 0 {
		adm.tenantQuota = cfg.TenantQuotaCost
	}
	adm.weights = cfg.TenantWeights
	s := &Server{
		cfg:        cfg,
		adm:        adm,
		brk:        newBreakerSet(bcfg),
		scache:     newScenarioCache(cfg.ScenarioCacheCap),
		warmRegs:   newWarmRegCache(4 * cfg.ScenarioCacheCap),
		searches:   NewSearchTracker(64),
		watches:    newWatchTracker(),
		classCache: make(map[string]*classCacheCounters),
		base:       base,
		baseCancel: cancel,
		idle:       make(chan struct{}),
		start:      time.Now(),
	}
	if cfg.StoreDir != "" {
		st, err := scenario.OpenStore(cfg.StoreDir)
		if err != nil {
			// Persistence is best-effort: a store that cannot open costs the
			// warm start, never the daemon.
			cfg.Logf("server: scenario store disabled: %v", err)
		} else {
			s.store = st
			if cfg.StoreMaxBytes > 0 {
				st.SetMaxBytes(cfg.StoreMaxBytes)
			}
		}
	}
	if cfg.StateDir != "" {
		cs, err := OpenCheckpointStore(filepath.Join(cfg.StateDir, "searches"))
		if err != nil {
			// Same best-effort stance: losing checkpointing costs resume,
			// never the daemon.
			cfg.Logf("server: search checkpointing disabled: %v", err)
		} else {
			s.ckpts = cs
		}
		wdir := filepath.Join(cfg.StateDir, "warm")
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			cfg.Logf("server: warm registry persistence disabled: %v", err)
		} else {
			s.warmRegDir = wdir
		}
		ws, err := openWatchStore(filepath.Join(cfg.StateDir, "watches"))
		if err != nil {
			cfg.Logf("server: watch checkpointing disabled: %v", err)
		} else {
			s.wstore = ws
		}
	}
	return s
}

// LoadResumableSearches publishes every intact on-disk checkpoint as a
// "resumable" /statz row, so a restarted daemon advertises what a client
// can pass as resumeId. Call it once, before serving. Returns the count.
func (s *Server) LoadResumableSearches() int {
	if s.ckpts == nil {
		return 0
	}
	recs := s.ckpts.List()
	for _, rec := range recs {
		s.searches.Update(rec.ResumableRow())
	}
	if len(recs) > 0 {
		s.cfg.Logf("server: %d resumable search(es) on disk", len(recs))
	}
	return len(recs)
}

// WarmStart reloads the persistent scenario store into the scenario cache,
// so the first post-restart request for a known scenario is served from a
// built analysis instead of a cold rebuild. Call it once, before serving.
// Corrupt store files are skipped (and quarantined for rebuild); a document
// that no longer builds under the current engine is skipped too. Returns
// (loaded, skipped).
func (s *Server) WarmStart() (loaded, skipped int) {
	// Restore persisted warm-start registries first: the analyses rebuilt
	// below re-attach them through decorateCachedAnalysis, so their first
	// boundary searches replay the previous process's recorded state.
	s.loadWarmRegistries()
	if s.store == nil || s.scache == nil {
		return 0, 0
	}
	rep, err := s.store.Load(func(fp string, doc scenario.AnalysisDoc) bool {
		a, err := doc.Build()
		if err != nil {
			skipped++
			return true
		}
		s.decorateCachedAnalysis(fp, a)
		s.scache.put(fp, a, true)
		loaded++
		return loaded < s.cfg.ScenarioCacheCap
	})
	if err != nil {
		s.cfg.Logf("server: warm start aborted: %v", err)
	}
	skipped += rep.Skipped
	s.warmLoaded.Store(int64(loaded))
	s.warmSkipped.Store(int64(skipped))
	s.cfg.Logf("server: warm start loaded %d scenario(s), skipped %d", loaded, skipped)
	return loaded, skipped
}

// enableImpactCache decorates a freshly built analysis with the sharded
// impact cache per Config.CacheCap / Config.CacheShards; a no-op when
// caching is disabled.
func (s *Server) enableImpactCache(a *core.Analysis) {
	if s.cfg.CacheCap < 0 {
		return
	}
	a.EnableImpactCacheWith(core.CacheOptions{
		Capacity: s.cfg.CacheCap,
		Shards:   s.cfg.CacheShards,
	})
}

// decorateCachedAnalysis prepares an analysis that will live in the
// scenario cache and serve repeat traffic: the sharded impact cache plus
// warm-started boundary searches (bit-exact replay of the previous
// search's trajectory — see docs/performance.md). One-shot analyses (the
// handlers' fresh-build fallback) get only the impact cache: warm state
// there would be recorded and never reused.
//
// The warm-start registry is keyed by the scenario fingerprint and owned by
// the server, not the analysis: when a scenario-cache eviction later forces
// a rebuild of the same document, the rebuilt analysis re-attaches the
// registry and its boundary searches start warm instead of cold (warm
// states self-validate bit-for-bit, so a stale registry only ever costs a
// cold re-run). An empty fingerprint (un-fingerprintable document) falls
// back to a private registry.
func (s *Server) decorateCachedAnalysis(fp string, a *core.Analysis) {
	s.enableImpactCache(a)
	if fp == "" || s.warmRegs == nil {
		a.EnableWarmStart()
		return
	}
	a.EnableWarmStartWith(s.warmRegs.get(fp))
}

// Handler mounts the daemon's routes behind the request-ID middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/robustness", s.handleRobustness)
	mux.HandleFunc("POST /v1/radius", s.handleRadius)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/watch", s.handleWatch)
	mux.HandleFunc("POST /v1/watch/update", s.handleWatchUpdate)
	mux.HandleFunc("POST /v1/watch/close", s.handleWatchClose)
	return WithRequestID(mux)
}

// enter registers an accepted request for drain accounting; it fails once
// draining has begun. The returned func must run exactly once, after the
// request's terminal response.
func (s *Server) enter() (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight++
	return func() {
		s.mu.Lock()
		s.inflight--
		signal := s.draining && s.inflight == 0
		s.mu.Unlock()
		if signal {
			s.signalIdle()
		}
	}, true
}

func (s *Server) signalIdle() { s.idleOnce.Do(func() { close(s.idle) }) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admission: /readyz turns 503 and every new evaluation
// request is rejected with 503. In-flight requests continue.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	idle := s.inflight == 0
	s.mu.Unlock()
	if !already {
		s.cfg.Logf("server: drain started")
		// End every watch stream: subscriptions hold no admission slot, so
		// drain would otherwise never see them. Watch state was checkpointed
		// at its last update; clients resume byte-identically after restart.
		s.watches.closeAllSubs()
	}
	if idle {
		s.signalIdle()
	}
}

// Drain performs the graceful shutdown sequence: stop accepting, wait for
// in-flight requests to reach their terminal responses, and — if ctx
// expires first — cancel them (they abort within one impact evaluation and
// still respond, with 503) and keep waiting up to DrainGrace. A nil error
// means every accepted request got its terminal response.
func (s *Server) Drain(ctx context.Context) error {
	// Persist warm-start state whatever the drain outcome: states checked
	// out by still-running searches are skipped inside the snapshot, so
	// saving is safe even if the wait below times out.
	defer s.SaveWarmRegistries()
	s.BeginDrain()
	select {
	case <-s.idle:
		s.cfg.Logf("server: drain complete (all in-flight requests finished)")
		return nil
	case <-ctx.Done():
	}
	s.cfg.Logf("server: drain deadline reached, cancelling in-flight work")
	s.baseCancel()
	select {
	case <-s.idle:
		s.cfg.Logf("server: drain complete (in-flight work cancelled)")
		return nil
	case <-time.After(s.cfg.DrainGrace):
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("server: %d request(s) still in flight %v after drain cancellation", n, s.cfg.DrainGrace)
	}
}

// classCacheCounters are one class's impact-cache counters for /statz.
type classCacheCounters struct{ hits, misses uint64 }

// reportCache charges one request's impact-cache activity to the daemon-wide
// aggregate and to its scenario class. For analyses shared through the
// scenario cache, only the growth since the entry's last report is charged
// (the entry's delta watermark); fresh per-request analyses report their
// whole counters.
func (s *Server) reportCache(class string, a *core.Analysis, e *scacheEntry) {
	var st core.CacheStats
	if e != nil {
		st = e.delta()
	} else {
		st = a.CacheStats()
	}
	s.stats.cacheHits.Add(st.Hits)
	s.stats.cacheMisses.Add(st.Misses)
	if class == "" {
		return
	}
	s.classMu.Lock()
	c := s.classCache[class]
	if c == nil {
		c = &classCacheCounters{}
		s.classCache[class] = c
	}
	c.hits += st.Hits
	c.misses += st.Misses
	s.classMu.Unlock()
}

// Statz is the /statz document.
type Statz struct {
	UptimeMs int64 `json:"uptimeMs"`
	Draining bool  `json:"draining"`

	Inflight     int   `json:"inflight"`     // accepted, not yet responded
	Running      int   `json:"running"`      // holding an evaluation slot
	QueuedCost   int64 `json:"queuedCost"`   // reserved cost units
	MaxQueueCost int64 `json:"maxQueueCost"` //
	Slots        int   `json:"slots"`        // evaluation slot count

	Accepted         uint64 `json:"accepted"`
	Shed             uint64 `json:"shed"`
	RejectedDraining uint64 `json:"rejectedDraining"`
	BadRequests      uint64 `json:"badRequests"`
	CompletedOK      uint64 `json:"completedOk"`
	CompletedDegr    uint64 `json:"completedDegraded"`
	ErrDeadline      uint64 `json:"deadlineExceeded"`
	ErrCancelled     uint64 `json:"cancelled"`
	ErrInternal      uint64 `json:"internalErrors"`

	BreakerTrips uint64            `json:"breakerTrips"`
	Breakers     []BreakerSnapshot `json:"breakers"`

	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`

	// CacheShards breaks the impact-cache counters down per shard,
	// aggregated across the scenario cache's long-lived analyses (the only
	// ones whose caches outlive a request). A shard whose hit rate trails
	// the others signals probe-key skew — see docs/operations.md
	// §performance troubleshooting. Omitted when the scenario cache is
	// empty or disabled.
	CacheShards []ShardStatz `json:"cacheShards,omitempty"`

	// Tenants breaks admission down per tenant (weight, quota, reserved
	// backlog, accepted/shed counts), sorted by tenant name.
	Tenants []TenantStatz `json:"tenants,omitempty"`

	// Store reports the persistent scenario store, when configured.
	Store *StoreStatz `json:"store,omitempty"`

	// Checkpoints reports the search checkpoint store, when a state dir is
	// configured.
	Checkpoints *CheckpointStatz `json:"checkpoints,omitempty"`

	// WarmRegistries reports warm-registry persistence (save at drain,
	// restore at warm start), when a state dir is configured.
	WarmRegistries *WarmRegStatz `json:"warmRegistries,omitempty"`

	// Watches reports the live-watch subsystem (subscriptions, delta
	// updates, checkpoint store).
	Watches *WatchStatz `json:"watches,omitempty"`

	// Classes breaks the cache and breaker counters down per scenario class
	// (the same classification the breaker and the cluster coordinator key
	// on), sorted by class name.
	Classes []ClassStatz `json:"classes,omitempty"`

	// Searches lists recent and in-flight allocation searches (bounded,
	// oldest evicted). A deadline-truncated search's row carries the
	// partial best allocation, which a client can pass back as the next
	// request's resume field.
	Searches []SearchStatz `json:"searches,omitempty"`
}

// StoreStatz is the persistent scenario store's section of /statz.
type StoreStatz struct {
	Dir string `json:"dir"`
	// Puts / PutErrors count persistence writes since startup.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"putErrors"`
	// WarmLoaded / WarmSkipped are the WarmStart outcome: documents loaded
	// into the scenario cache at startup vs files skipped as corrupt,
	// truncated, or unbuildable.
	WarmLoaded  int64 `json:"warmLoaded"`
	WarmSkipped int64 `json:"warmSkipped"`
	// CorruptSkipped counts store files refused (and quarantined) since
	// startup, warm start included.
	CorruptSkipped uint64 `json:"corruptSkipped"`
	// WarmHits counts scenario-cache hits served by warm-started entries;
	// HitRate is WarmHits over all scenario-cache lookups (0 until there
	// have been lookups).
	WarmHits uint64  `json:"warmHits"`
	HitRate  float64 `json:"hitRate"`
	// Evictions counts entries removed by the size bound's LRU sweep
	// (Config.StoreMaxBytes); SizeBytes is the current indexed footprint.
	Evictions uint64 `json:"evictions"`
	SizeBytes int64  `json:"sizeBytes"`
}

// storeStatz snapshots the store section; nil when no store is configured.
func (s *Server) storeStatz() *StoreStatz {
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	lookups := s.stats.scenarioHits.Load() + s.stats.scenarioMisses.Load()
	warmHits := s.stats.storeWarmHits.Load()
	return &StoreStatz{
		Dir:            s.store.Dir(),
		Puts:           st.Puts,
		PutErrors:      st.PutErrors,
		WarmLoaded:     s.warmLoaded.Load(),
		WarmSkipped:    s.warmSkipped.Load(),
		CorruptSkipped: st.CorruptSkipped,
		WarmHits:       warmHits,
		HitRate:        safeRate(warmHits, lookups),
		Evictions:      st.Evictions,
		SizeBytes:      s.store.SizeBytes(),
	}
}

// ShardStatz is one impact-cache shard's row in /statz: absolute counters
// summed index-wise over the scenario cache's analyses. Absolute, not
// deltas: shard rows diagnose imbalance, and the per-class delta accounting
// (reportCache) stays the source of request-attributed rates.
type ShardStatz struct {
	Shard     int     `json:"shard"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Stores    uint64  `json:"stores"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hitRate"`
}

// cacheShardStatz aggregates per-shard impact-cache counters across the
// scenario cache's entries. Analyses built under one Config share a shard
// count, so index-wise summation lines up; nil when there is nothing to
// report.
func (s *Server) cacheShardStatz() []ShardStatz {
	if s.scache == nil {
		return nil
	}
	var rows []ShardStatz
	for _, e := range s.scache.entries() {
		for i, sh := range e.a.CacheShardStats() {
			if i >= len(rows) {
				rows = append(rows, ShardStatz{Shard: i})
			}
			rows[i].Hits += sh.Hits
			rows[i].Misses += sh.Misses
			rows[i].Stores += sh.Stores
			rows[i].Evictions += sh.Evictions
			rows[i].Entries += sh.Entries
		}
	}
	for i := range rows {
		rows[i].HitRate = safeRate(rows[i].Hits, rows[i].Hits+rows[i].Misses)
	}
	return rows
}

// ClassStatz is one scenario class's row in /statz: its impact-cache hit
// rate and its circuit-breaker history.
type ClassStatz struct {
	Class        string  `json:"class"`
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`
	BreakerState string  `json:"breakerState,omitempty"`
	BreakerTrips uint64  `json:"breakerTrips,omitempty"`
}

// statz assembles the snapshot.
func (s *Server) statz() Statz {
	_, running, cost := s.adm.depths()
	breakers, trips := s.brk.snapshot()
	s.mu.Lock()
	inflight, draining := s.inflight, s.draining
	s.mu.Unlock()
	st := Statz{
		UptimeMs:         time.Since(s.start).Milliseconds(),
		Draining:         draining,
		Inflight:         inflight,
		Running:          running,
		QueuedCost:       cost,
		MaxQueueCost:     s.cfg.MaxQueueCost,
		Slots:            s.adm.slots,
		Accepted:         s.stats.accepted.Load(),
		Shed:             s.stats.shed.Load(),
		RejectedDraining: s.stats.rejectedDraining.Load(),
		BadRequests:      s.stats.badRequests.Load(),
		CompletedOK:      s.stats.completedOK.Load(),
		CompletedDegr:    s.stats.completedDegr.Load(),
		ErrDeadline:      s.stats.errDeadline.Load(),
		ErrCancelled:     s.stats.errCancelled.Load(),
		ErrInternal:      s.stats.errInternal.Load(),
		BreakerTrips:     trips,
		Breakers:         breakers,
		CacheHits:        s.stats.cacheHits.Load(),
		CacheMisses:      s.stats.cacheMisses.Load(),
	}
	st.CacheHitRate = safeRate(st.CacheHits, st.CacheHits+st.CacheMisses)
	st.CacheShards = s.cacheShardStatz()
	st.Tenants = s.adm.tenantStatz()
	st.Store = s.storeStatz()
	st.Checkpoints = checkpointStatz(s.ckpts)
	st.WarmRegistries = s.warmRegStatz()
	st.Watches = s.watchStatz()
	st.Classes = s.classStatz(breakers)
	st.Searches = s.searches.Snapshot()
	return st
}

// safeRate is hits/total guarded against the zero-lookup case: JSON cannot
// carry NaN/Inf (encoding/json errors out and the whole /statz body would be
// lost), so a rate with no observations is reported as 0.
func safeRate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// classStatz joins the per-class cache counters with the breaker snapshot:
// one row per class known to either side, sorted by name.
func (s *Server) classStatz(breakers []BreakerSnapshot) []ClassStatz {
	rows := make(map[string]*ClassStatz)
	s.classMu.Lock()
	for class, c := range s.classCache {
		rows[class] = &ClassStatz{Class: class, CacheHits: c.hits, CacheMisses: c.misses}
	}
	s.classMu.Unlock()
	for _, b := range breakers {
		row := rows[b.Class]
		if row == nil {
			row = &ClassStatz{Class: b.Class}
			rows[b.Class] = row
		}
		row.BreakerState, row.BreakerTrips = b.State, b.Trips
	}
	if len(rows) == 0 {
		return nil
	}
	out := make([]ClassStatz, 0, len(rows))
	for _, row := range rows {
		row.CacheHitRate = safeRate(row.CacheHits, row.CacheHits+row.CacheMisses)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
