package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/core"
	"fepia/internal/delta"
	"fepia/internal/etc"
	"fepia/internal/makespan"
	"fepia/internal/scenario"
	"fepia/internal/sched"
	"fepia/internal/server"
	"fepia/internal/vec"
)

// The traced run. Spans are recorded only from the benchmark's own code:
// every client operation gets a root span "op"; on every sampleEvery-th op
// the request is served in process through the front end's
// Handler().ServeHTTP (span "server.handler"), and the same input is then
// replayed through the layers' public functions as children of that span —
// json decode, Validate, Fingerprint, Build, the impact-cache setup, the
// evaluation (RobustnessWith, RobustnessDelta), delta.Classify and
// sched.Search. A span's self time is its duration minus its children's.

// sampleEvery is the traced run's sampling period, in ops.
const sampleEvery = 16

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run writes them out. Span
// buffers live off the Go heap like the op records (arena.go), so tracing
// costs its CPU time without also changing the servers' GC pacing; span
// names are string constants, not heap memory.
type tracer struct {
	epoch   time.Time
	size    int // span capacity of one buffer
	ids     atomic.Int32
	dropped atomic.Int64 // spans lost to full buffers
	mu      sync.Mutex
	clients []*clientSpans
}

// clientSpans is one goroutine's span buffer (no locking on the hot path).
type clientSpans struct {
	t     *tracer
	spans []span
}

// newTracer sizes its buffers for one client's spans over d.
func newTracer(d time.Duration) *tracer {
	return &tracer{epoch: time.Now(), size: 4 * maxOpsPerSecond * int(d/time.Second+1)}
}

func (t *tracer) client() (*clientSpans, error) {
	spans, err := offHeap[span](t.size)
	if err != nil {
		return nil, err
	}
	cs := &clientSpans{t: t, spans: spans}
	t.mu.Lock()
	t.clients = append(t.clients, cs)
	t.mu.Unlock()
	return cs, nil
}

func (cs *clientSpans) begin(name string, parent int32, op int64) int32 {
	if len(cs.spans) == cap(cs.spans) {
		cs.t.dropped.Add(1)
		return -1
	}
	id := cs.t.ids.Add(1)
	cs.spans = append(cs.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(cs.t.epoch))})
	return id
}

func (cs *clientSpans) end(id int32) {
	if id < 0 {
		return // dropped at begin
	}
	now := int64(time.Since(cs.t.epoch))
	for i := len(cs.spans) - 1; i >= 0; i-- {
		if cs.spans[i].ID == id {
			cs.spans[i].End = now
			return
		}
	}
}

// timed runs f as a span named name under parent.
func (cs *clientSpans) timed(name string, parent int32, op int64, f func()) {
	id := cs.begin(name, parent, op)
	f()
	cs.end(id)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, cs := range t.clients {
		out = append(out, cs.spans...)
	}
	return out
}

// stats aggregates spans by name: durations and self times, in ns.
func (t *tracer) stats() (dur, self map[string][]float64) {
	spans := t.all()
	childSum := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	dur, self = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-childSum[s.ID]))
	}
	return dur, self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay times the sampled input through each layer's public functions, as
// children of the handler span h. Fingerprinting is not part of every
// handler's work (only the scenario cache and the watch path do it), so its
// span hangs off the op's root and does not count against the handler's
// self time.
func replay(cs *clientSpans, root, h int32, k int64, r *runner, it *input) {
	ctx := context.Background()
	switch it.path {
	case "/v1/robustness", "/v1/radius":
		var req struct {
			Scenario scenario.AnalysisDoc `json:"scenario"`
		}
		cs.timed("scenario.decode", h, k, func() { _ = json.Unmarshal(it.body, &req) })
		doc := req.Scenario
		cs.timed("scenario.validate", h, k, func() { _ = doc.Validate() })
		cs.timed("scenario.fingerprint", root, k, func() { _, _ = doc.Fingerprint() })
		var a *core.Analysis
		cs.timed("scenario.build", h, k, func() { a, _ = doc.Build() })
		if a == nil {
			return
		}
		cs.timed("core.cache_setup", h, k, func() { enableCache(a, r.w.worker) })
		cs.timed("core.eval", h, k, func() {
			if it.path == "/v1/radius" {
				for j := range a.Params {
					_, _ = a.RobustnessSingleCtx(ctx, j)
				}
				return
			}
			_, _ = a.RobustnessWith(ctx, core.Normalized{}, refEvalOptions)
		})
	case "/v1/watch/update":
		var req server.WatchUpdateRequest
		cs.timed("scenario.decode", h, k, func() { _ = json.Unmarshal(it.body, &req) })
		period := int64(len(r.in.states))
		prev := r.in.states[k%period]
		var next scenario.AnalysisDoc
		cs.timed("delta.apply", h, k, func() { next, _ = delta.ApplyParams(prev, req.Params) })
		var d *delta.Diff
		cs.timed("delta.classify", h, k, func() { d = delta.Classify(prev, next, "normalized") })
		cs.timed("scenario.fingerprint", root, k, func() { _, _ = next.Fingerprint() })
		var a *core.Analysis
		cs.timed("scenario.build", h, k, func() { a, _ = next.Build() })
		if a == nil {
			return
		}
		cs.timed("core.cache_setup", h, k, func() { enableCache(a, r.w.worker) })
		prior := r.v.ref(int((k - 1 + period) % period))
		cs.timed("core.delta_eval", h, k, func() {
			_, _ = a.RobustnessDelta(ctx, core.Normalized{}, refEvalOptions, prior.rob.PerFeature, d.Dirty)
		})
	case "/v1/search":
		var m *etc.Matrix
		var opt sched.SearchOptions
		cs.timed("scenario.decode", h, k, func() { m, opt, _ = parseSearch(it.body) })
		if m == nil {
			return
		}
		doc, err := minMinDoc(m, opt.Bound)
		if err != nil {
			return
		}
		cs.timed("scenario.fingerprint", root, k, func() { _, _ = doc.Fingerprint() })
		cs.timed("scenario.build", h, k, func() { _, _ = doc.Build() })
		cs.timed("sched.search", h, k, func() {
			_, _ = sched.Search(ctx, m, &sched.EngineEvaluator{M: m, Bound: opt.Bound}, opt, nil)
		})
	}
}

// enableCache decorates a like fepiad does for a fresh build under cfg.
func enableCache(a *core.Analysis, cfg server.Config) {
	if cfg.CacheCap >= 0 {
		a.EnableImpactCacheWith(core.CacheOptions{Capacity: cfg.CacheCap, Shards: cfg.CacheShards})
	}
}

func (v *verifier) ref(id int) *reference {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refs[id]
}

func parseSearch(body []byte) (*etc.Matrix, sched.SearchOptions, error) {
	var req server.SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, sched.SearchOptions{}, err
	}
	return server.ParseSearchRequest(req)
}

// minMinDoc is the makespan document of the instance's min-min allocation:
// the shape of every candidate document a fleet search scatters.
func minMinDoc(m *etc.Matrix, bound float64) (scenario.AnalysisDoc, error) {
	alloc, err := sched.MinMin(m)
	if err != nil {
		return scenario.AnalysisDoc{}, err
	}
	sys, err := makespan.New(m, alloc)
	if err != nil {
		return scenario.AnalysisDoc{}, err
	}
	return sys.AnalysisDoc(bound)
}

// layerPass turns the traced run into the per-layer metrics: span
// statistics from the traced window, response and counter deltas from the
// untraced one, and isolated single-goroutine measurements (allocations,
// cache and warm-start counters, coordinator overhead) on the sampled
// inputs. A layer the workload does not exercise is timed on probe inputs
// from the workload that does, drawn with the same seed.
func (r *runner) layerPass(tr *tracer, plain, traced *window) (map[string]metric, error) {
	ctx := context.Background()
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	sampled := sampledItems(traced)
	probe, err := tr.client()
	if err != nil {
		return nil, err
	}
	if r.w.name != "fleet-watch" {
		r.probeWatch(ctx, probe)
	}
	if r.w.name != "fleet-search" {
		r.probeSearch(ctx, probe)
	}
	if n := tr.dropped.Load(); n > 0 {
		return nil, fmt.Errorf("%d spans lost to full span buffers", n)
	}
	spanMetrics(tr, put)
	if err := r.isolatedMetrics(ctx, sampled, put); err != nil {
		return nil, err
	}
	r.windowMetrics(plain, put)
	overhead, err := r.clusterOverhead(sampled)
	if err != nil {
		return nil, err
	}
	put("cluster.overhead_ms_p50", overhead, "ms")
	n := float64(len(plain.ops))
	put("trace.overhead_share", 1-float64(len(traced.ops))/traced.wall.Seconds()/(n/plain.wall.Seconds()), "ratio")
	return out, nil
}

// spanMetrics are the medians of the traced spans.
func spanMetrics(tr *tracer, put func(string, float64, string)) {
	dur, self := tr.stats()
	us := func(name string) float64 { return median(dur[name]) / 1e3 }
	put("scenario.decode_us", us("scenario.decode"), "us")
	put("scenario.build_us", us("scenario.build"), "us")
	put("scenario.fingerprint_us", us("scenario.fingerprint"), "us")
	put("core.delta_eval_ms", us("core.delta_eval")/1e3, "ms")
	put("delta.classify_us", us("delta.classify"), "us")
	put("sched.search_ms", us("sched.search")/1e3, "ms")
	put("server.handler_us", us("server.handler"), "us")
	put("server.self_us", median(self["server.handler"])/1e3, "us")
}

// isolatedMetrics measures the sampled inputs' scenarios one call at a
// time, with the clients stopped: allocations of Build and of the impact
// cache set-up, closed-form and numeric evaluation times, impact calls of a
// cold evaluation, and a repeat evaluation under the worker's cache and
// warm start. It ends with the handler's allocations on 8 more ops.
func (r *runner) isolatedMetrics(ctx context.Context, sampled []int, put func(string, float64, string)) error {
	docs, numericDocs := r.layerDocs(sampled)
	if len(numericDocs) == 0 {
		numericDocs = firstDocs(genNumeric(r.seed, 0), 8)
	}
	var buildAllocs, setupBytes, closedUs, repeatMs, memo, inval []float64
	var hits, lookups uint64
	var impactEvals float64
	for _, doc := range docs {
		buildAllocs = append(buildAllocs, float64(allocsOf(func() { _, _ = doc.doc.Build() }).mallocs))
		a, err := doc.doc.Build()
		if err != nil {
			return err
		}
		setupBytes = append(setupBytes, float64(allocsOf(func() { a.EnableImpactCacheWith(core.CacheOptions{}) }).bytes))

		cold, _ := doc.doc.Build()
		calls := countImpact(cold)
		for i, f := range cold.Features {
			if f.Linear == nil && f.Quad == nil {
				_, _ = cold.CombinedRadiusWith(ctx, i, doc.w, refEvalOptions)
				continue
			}
			st := time.Now()
			_, _ = cold.CombinedRadiusWith(ctx, i, doc.w, refEvalOptions)
			closedUs = append(closedUs, float64(time.Since(st))/1e3)
		}
		impactEvals += float64(calls.Load())

		warm, _ := doc.doc.Build()
		enableCache(warm, r.w.worker)
		warm.EnableWarmStart()
		_, _ = warm.RobustnessWith(ctx, doc.w, refEvalOptions)
		c0, w0 := warm.CacheStats(), warm.WarmStats()
		st := time.Now()
		_, _ = warm.RobustnessWith(ctx, doc.w, refEvalOptions)
		repeatMs = append(repeatMs, float64(time.Since(st))/1e6)
		c1, w1 := warm.CacheStats(), warm.WarmStats()
		hits += c1.Hits - c0.Hits
		lookups += c1.Hits - c0.Hits + c1.Misses - c0.Misses
		memo = append(memo, float64(w1.MemoHits-w0.MemoHits))
		inval = append(inval, float64(w1.Invalidations-w0.Invalidations))
	}
	put("scenario.build_allocs", median(buildAllocs), "count")
	put("core.impact_cache_setup_bytes", median(setupBytes), "B")
	put("core.closed_form_eval_us", median(closedUs), "us")
	put("core.impact_evals_per_op", ratio(impactEvals, float64(len(docs))), "count")
	put("core.repeat_eval_ms", median(repeatMs), "ms")
	put("core.impact_cache_hit_rate", ratio(float64(hits), float64(lookups)), "ratio")
	put("core.warm_memo_hits", mean(memo), "count")
	put("core.warm_invalidations", mean(inval), "count")

	var numMs []float64
	for _, doc := range numericDocs {
		a, err := doc.doc.Build()
		if err != nil {
			return err
		}
		st := time.Now()
		for i, f := range a.Features {
			if f.Linear == nil && f.Quad == nil {
				_, _ = a.CombinedRadiusWith(ctx, i, doc.w, refEvalOptions)
			}
		}
		numMs = append(numMs, float64(time.Since(st))/1e6)
	}
	put("core.numeric_eval_ms", median(numMs), "ms")

	// The op sequence runs on, so fleet-watch's chain stays intact.
	var hAllocs, hBytes []float64
	for i := 0; i < 8; i++ {
		k := r.next.Add(1) - 1
		it := &r.in.items[r.in.seq[k%int64(len(r.in.seq))]]
		a := allocsOf(func() { serveInProcess(r.t.frontHandler, it.path, it.body) })
		hAllocs = append(hAllocs, float64(a.mallocs))
		hBytes = append(hBytes, float64(a.bytes))
	}
	put("server.handler_allocs", median(hAllocs), "count")
	put("server.handler_alloc_bytes", median(hBytes), "B")
	return nil
}

// windowMetrics are read off the untraced window: its responses, the
// /statz deltas of the workers and the coordinator, and its resource
// counters.
func (r *runner) windowMetrics(plain *window, put func(string, float64, string)) {
	var evalMs, outside []float64
	var radiusEvals, dirty, features float64
	for _, o := range plain.ops {
		if o.status != http.StatusOK {
			continue
		}
		var resp struct {
			ElapsedMs   float64 `json:"elapsedMs"`
			RadiusEvals int64   `json:"radiusEvals"`
			Dirty       []int   `json:"dirty"`
			Robustness  struct {
				PerFeature []json.RawMessage `json:"perFeature"`
			} `json:"robustness"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			continue
		}
		evalMs = append(evalMs, resp.ElapsedMs)
		outside = append(outside, float64(o.lat)/1e6-resp.ElapsedMs)
		radiusEvals += float64(resp.RadiusEvals)
		dirty += float64(len(resp.Dirty))
		features += float64(len(resp.Robustness.PerFeature))
	}
	sort.Float64s(outside)
	n := float64(len(plain.ops))
	put("server.eval_ms_p50", median(evalMs), "ms")
	put("server.outside_eval_ms_p50", percentile(outside, 0.50), "ms")
	put("server.outside_eval_ms_p99", percentile(outside, 0.99), "ms")
	put("sched.radius_evals_per_op", radiusEvals/n, "count")
	put("delta.dirty_share", ratio(dirty, features), "ratio")

	var acc, shed, degr, errs, chits, clook float64
	for i, a := range plain.after.workers {
		b := plain.before.workers[i]
		acc += float64(a.Accepted - b.Accepted)
		shed += float64(a.Shed - b.Shed)
		degr += float64(a.CompletedDegr - b.CompletedDegr)
		errs += float64(a.BadRequests - b.BadRequests + a.ErrDeadline - b.ErrDeadline +
			a.ErrCancelled - b.ErrCancelled + a.ErrInternal - b.ErrInternal + a.RejectedDraining - b.RejectedDraining)
		chits += float64(a.CacheHits - b.CacheHits)
		clook += float64(a.CacheHits - b.CacheHits + a.CacheMisses - b.CacheMisses)
	}
	put("server.accepted", acc, "count")
	put("server.shed", shed, "count")
	put("server.completed_degraded", degr, "count")
	put("server.errors", errs, "count")
	put("server.impact_cache_hit_rate", ratio(chits, clook), "ratio")
	first := int(plain.ops[0].k)
	put("server.repeat_share", r.in.repeatShare(first, first+len(plain.ops)), "ratio")

	var shards, hedges, retries, werrs, skipped float64
	if a, b := plain.after.coord, plain.before.coord; a != nil {
		shards = float64(a.Shards - b.Shards)
		hedges = float64(a.Hedges - b.Hedges)
		retries = float64(a.Retries - b.Retries)
		werrs = float64(a.WorkerErrors - b.WorkerErrors)
		skipped = float64(a.Watches.ShardsSkipped - b.Watches.ShardsSkipped)
	}
	put("cluster.shards_per_op", shards/n, "count")
	put("cluster.watch_shards_skipped_share", ratio(skipped, skipped+shards), "ratio")
	put("cluster.hedges", hedges, "count")
	put("cluster.retries", retries, "count")
	put("cluster.worker_errors", werrs, "count")

	put("durable.state_dir_bytes_per_op", float64(plain.written)/n, "B")
	put("runtime.gc_cycles_per_kop", float64(plain.numGC)*1000/n, "count")
	put("runtime.gc_pause_ms_total", float64(plain.pauseNs)/1e6, "ms")
}

// layerDoc is one scenario the isolated measurements run on, with the
// weighting it is served under.
type layerDoc struct {
	doc scenario.AnalysisDoc
	w   core.Weighting
}

// layerDocs returns the scenarios behind the sampled inputs, and the subset
// with numeric-tier features.
func (r *runner) layerDocs(items []int) (docs, numeric []layerDoc) {
	for _, id := range items {
		it := &r.in.items[id]
		if it.search != nil {
			m, opt, err := server.ParseSearchRequest(*it.search)
			if err != nil {
				continue
			}
			if doc, err := minMinDoc(m, opt.Bound); err == nil {
				docs = append(docs, layerDoc{doc: doc, w: core.Unweighted{}})
			}
			continue
		}
		doc, err := r.in.doc(id)
		if err != nil {
			continue
		}
		d := layerDoc{doc: doc, w: core.Normalized{}}
		docs = append(docs, d)
		for _, f := range doc.Features {
			if f.NumericTier() {
				numeric = append(numeric, d)
				break
			}
		}
	}
	return docs, numeric
}

func firstDocs(in *inputs, n int) []layerDoc {
	var out []layerDoc
	for i := 0; i < n && i < len(in.items); i++ {
		out = append(out, layerDoc{doc: in.docs[i], w: core.Normalized{}})
	}
	return out
}

// sampledItems lists the distinct inputs the traced window sampled.
func sampledItems(win *window) []int {
	seen := map[int]bool{}
	var out []int
	for _, o := range win.ops {
		if id := int(o.item); o.sampled && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// probeWatch times delta.Classify and RobustnessDelta on fleet-watch's
// inputs for workloads that do not exercise them.
func (r *runner) probeWatch(ctx context.Context, cs *clientSpans) {
	in := genWatch(r.seed)
	a, err := in.states[0].Build()
	if err != nil {
		return
	}
	prior, err := a.RobustnessWith(ctx, core.Normalized{}, refEvalOptions)
	if err != nil {
		return
	}
	for u := 0; u < watchKinds; u++ {
		prev, next := in.states[u], in.states[u+1]
		var d *delta.Diff
		cs.timed("delta.classify", -1, -1, func() { d = delta.Classify(prev, next, "normalized") })
		b, err := next.Build()
		if err != nil {
			return
		}
		enableCache(b, server.Config{})
		var res core.Robustness
		cs.timed("core.delta_eval", -1, -1, func() {
			res, _ = b.RobustnessDelta(ctx, core.Normalized{}, refEvalOptions, prior.PerFeature, d.Dirty)
		})
		prior = res
	}
}

// probeSearch times sched.Search on fleet-search's inputs for workloads
// that do not exercise it.
func (r *runner) probeSearch(ctx context.Context, cs *clientSpans) {
	in := genSearch(r.seed)
	for _, it := range in.items[:searchInstances] {
		m, opt, err := server.ParseSearchRequest(*it.search)
		if err != nil {
			return
		}
		cs.timed("sched.search", -1, -1, func() {
			_, _ = sched.Search(ctx, m, &sched.EngineEvaluator{M: m, Bound: opt.Bound}, opt, nil)
		})
	}
}

// clusterOverhead is the median coordinator latency minus the median
// latency of the same requests sent to one worker directly. Workloads
// served by a single worker get a coordinator in front of it for this
// measurement; fleet-watch replays one period of updates on a mirror
// watch on each side.
func (r *runner) clusterOverhead(items []int) (float64, error) {
	t := r.t
	front := ""
	if t.cnode != nil {
		front = t.cnode.url
	} else {
		c, err := cluster.New(cluster.Config{Workers: []string{t.wnodes[0].url}})
		if err != nil {
			return 0, err
		}
		n, err := serve(c.Handler())
		if err != nil {
			c.Close()
			return 0, err
		}
		defer func() {
			n.close()
			c.Close()
		}()
		front = n.url
	}
	direct := t.wnodes[0].url
	type call struct{ path, body []byte }
	var coordCalls, directCalls []call
	if r.in.states != nil {
		subs := make([]*subscriber, 0, 2)
		defer func() {
			for _, s := range subs {
				s.stop()
			}
		}()
		for _, side := range []struct {
			url, id string
			calls   *[]call
		}{{front, "perfbench-overhead-c", &coordCalls}, {direct, "perfbench-overhead-w", &directCalls}} {
			s, err := openWatch(t.client, side.url, side.id, r.in.states[0])
			if err != nil {
				return 0, err
			}
			subs = append(subs, s)
			for u := range r.in.states {
				next := r.in.states[(u+1)%len(r.in.states)]
				origs := make([][]float64, len(next.Params))
				for j, p := range next.Params {
					origs[j] = p.Orig
				}
				*side.calls = append(*side.calls, call{[]byte("/v1/watch/update"),
					mustJSON(server.WatchUpdateRequest{Watch: side.id, Params: origs})})
			}
		}
	} else {
		for _, id := range items {
			it := &r.in.items[id]
			c := call{[]byte(it.path), it.body}
			coordCalls, directCalls = append(coordCalls, c), append(directCalls, c)
		}
	}
	var coordMs, directMs []float64
	for i := range coordCalls {
		for _, side := range []struct {
			url string
			c   call
			out *[]float64
		}{{front, coordCalls[i], &coordMs}, {direct, directCalls[i], &directMs}} {
			st := time.Now()
			status, err := post(t.client, side.url+string(side.c.path), side.c.body)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("overhead probe %s: status %d: %v", side.c.path, status, err)
			}
			*side.out = append(*side.out, float64(time.Since(st))/1e6)
		}
	}
	return median(coordMs) - median(directMs), nil
}

func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func serveInProcess(h http.Handler, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(httptest.NewRecorder(), req)
}

type allocDelta struct{ mallocs, bytes uint64 }

// allocsOf measures f's heap allocations (process-wide, so callers run it
// with the clients stopped).
func allocsOf(f func()) allocDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return allocDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc}
}

// countImpact wraps every feature's scalar impact with a call counter.
func countImpact(a *core.Analysis) *atomic.Int64 {
	var n atomic.Int64
	for i := range a.Features {
		if f := a.Features[i].Impact; f != nil {
			a.Features[i].Impact = func(vs []vec.V) float64 {
				n.Add(1)
				return f(vs)
			}
		}
	}
	return &n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
