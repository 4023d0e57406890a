package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fepia/internal/core"
	"fepia/internal/etc"
	"fepia/internal/makespan"
	"fepia/internal/server"
)

// POST /v1/search on the coordinator: the same robustness-aware allocation
// search as the worker daemon's, but with every generation's feasible
// candidates scattered over the fleet. The scatter is exact for the same
// reason the per-feature one is — each candidate's radii are a pure function
// of (instance, allocation, bound), evaluated under core.Unweighted on
// whichever worker receives it — so the search trajectory, which depends
// only on the seed and the returned scores, is bit-identical to a
// single-node run. Worker kills mid-generation are absorbed by the scatter
// path's retry/hedge machinery: the chunk is re-issued to the next
// candidate worker and the gathered scores do not change.

// searchEvaluator implements sched.Evaluator over the worker fleet. Each
// Scores call (one generation's feasible candidates) takes one topology
// snapshot, splits the candidates into one contiguous chunk per active
// worker, and posts each chunk to /v1/batch through the hedged scatter
// path. Each chunk's primary is a different active worker, so a generation
// spreads evenly across the fleet instead of collapsing onto the one worker
// that owns the instance's scenario class, or doubling up where chunk keys
// happen to hash to the same worker. Chunk keys are distinct per (search,
// generation, chunk) and order each chunk's retry and hedge targets.
type searchEvaluator struct {
	c     *Coordinator
	m     *etc.Matrix
	bound float64
	id    string
	rid   string
	// workerTimeout is the per-chunk deadline handed to workers.
	workerTimeout time.Duration

	mu  sync.Mutex
	gen int // generations dispatched, for chunk-key uniqueness
}

func (e *searchEvaluator) Scores(ctx context.Context, allocs [][]int) ([]float64, error) {
	e.mu.Lock()
	gen := e.gen
	e.gen++
	e.mu.Unlock()

	t := e.c.topology()
	shards := len(t.active)
	if shards < 1 {
		shards = 1 // doShard will walk the ring and report the failure
	}
	if shards > len(allocs) {
		shards = len(allocs)
	}
	chunks := core.ShardFeatures(len(allocs), shards)

	out := make([]float64, len(allocs))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(ci int, idxs []int) {
			defer wg.Done()
			errs[ci] = e.scoreChunk(ctx, t, gen, ci, idxs, allocs, out)
		}(ci, chunks[ci])
	}
	wg.Wait()
	// Lowest-chunk-index error wins: deterministic regardless of which
	// worker failed first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scoreChunk evaluates one chunk of candidates on one worker (plus retries
// and hedges) and writes their combined radii into out at their global
// indices.
func (e *searchEvaluator) scoreChunk(ctx context.Context, t *topology, gen, ci int, idxs []int, allocs [][]int, out []float64) error {
	items := make([]server.BatchItemRequest, len(idxs))
	for k, i := range idxs {
		sys, err := makespan.New(e.m, allocs[i])
		if err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
		doc, err := sys.AnalysisDoc(e.bound)
		if err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
		items[k] = server.BatchItemRequest{Scenario: doc}
	}
	body, err := json.Marshal(server.BatchRequest{
		Items:     items,
		Weighting: "unweighted",
		Timeout:   e.workerTimeout.String(),
	})
	if err != nil {
		return err
	}
	key := "search/" + e.id + "/g" + strconv.Itoa(gen) + "/c" + strconv.Itoa(ci)
	// Chunk ci goes to active worker gen+ci, so a generation's chunks land
	// on distinct workers; the offset rotates the (possibly larger) first
	// chunk around the fleet.
	res := e.c.doShardOn(ctx, t.candidatesAt(gen+ci, key), key, "/v1/batch", body, e.rid)
	if res.err != nil {
		f := relayFailure{err: res.err}
		_, er := f.errorResponse(e.rid)
		return fmt.Errorf("generation %d chunk %d: %s", gen, ci, er.Error)
	}
	if res.status != http.StatusOK {
		f := relayFailure{status: res.status, body: res.body}
		_, er := f.errorResponse(e.rid)
		return fmt.Errorf("generation %d chunk %d: worker %s: %s", gen, ci, res.worker, er.Error)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(res.body, &br); err != nil {
		return fmt.Errorf("generation %d chunk %d: decoding batch response from %s: %w", gen, ci, res.worker, err)
	}
	if len(br.Results) != len(idxs) {
		return fmt.Errorf("generation %d chunk %d: worker %s returned %d results for %d items", gen, ci, res.worker, len(br.Results), len(idxs))
	}
	for k, i := range idxs {
		item := br.Results[k]
		if item.Error != "" {
			return fmt.Errorf("generation %d candidate %d: %s", gen, i, item.Error)
		}
		if item.Robustness == nil || item.Robustness.Value == nil {
			// The engine never scores infeasible candidates, so an
			// unbounded/absent combined radius here is a contract breach.
			return fmt.Errorf("generation %d candidate %d: worker %s returned no combined radius", gen, i, res.worker)
		}
		out[i] = *item.Robustness.Value
	}
	return nil
}

// searchFailure maps a non-client search error to (status, body): context
// errors keep the single-node kinds, everything else — a chunk no worker
// could serve, or a worker-reported evaluation error — is 502 upstream.
func searchFailure(err error, rid string) (int, server.ErrorResponse) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, server.ErrorResponse{Error: err.Error(), Kind: "deadline-exceeded", RequestID: rid}
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, server.ErrorResponse{Error: err.Error(), Kind: "cancelled", RequestID: rid}
	default:
		return http.StatusBadGateway, server.ErrorResponse{Error: err.Error(), Kind: "upstream", RequestID: rid}
	}
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	rid := server.RequestIDFrom(r.Context())
	var req server.SearchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		c.badRequest(w, r, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, opt, id, persist, err := server.ResolveSearchRequest(req, c.ckpts)
	if err != nil {
		if status, kind, ok := server.ResumeFailure(err); ok {
			c.stats.badRequests.Add(1)
			c.cfg.Logf("cluster: rid=%s search resume %q refused: %v", rid, req.ResumeID, err)
			writeJSON(w, status, server.ErrorResponse{Error: err.Error(), Kind: kind, RequestID: rid})
			return
		}
		c.badRequest(w, r, err)
		return
	}
	timeout, err := c.requestTimeout(persist.Timeout)
	if err != nil {
		c.badRequest(w, r, err)
		return
	}

	ctx, finish, ok := c.admit(w, r, timeout)
	if !ok {
		return
	}
	defer finish()

	if id == "" {
		id = req.SearchID
	}
	if id == "" {
		id = rid
	}
	ev := &searchEvaluator{
		c:             c,
		m:             m,
		bound:         opt.Bound,
		id:            id,
		rid:           rid,
		workerTimeout: c.workerTimeout(timeout),
	}
	start := time.Now()
	res, err := server.ExecuteSearch(ctx, m, opt, ev, c.searches, id, rid, c.ckpts, persist)
	if err != nil {
		if status, kind, ok := server.ResumeFailure(err); ok {
			c.stats.failed.Add(1)
			writeJSON(w, status, server.ErrorResponse{Error: err.Error(), Kind: kind, RequestID: rid})
			return
		}
		if server.SearchBadRequest(err) {
			c.badRequest(w, r, err)
			return
		}
		c.stats.failed.Add(1)
		status, er := searchFailure(err, rid)
		c.cfg.Logf("cluster: rid=%s search id=%s failed: %s", rid, id, er.Error)
		writeJSON(w, status, er)
		return
	}
	c.stats.completed.Add(1)
	c.cfg.Logf("cluster: rid=%s search id=%s algo=%s gens=%d candidates=%d radiusEvals=%d elapsed=%.1fms",
		rid, id, res.Algo, res.Generations, res.Candidates, res.RadiusEvals,
		float64(time.Since(start).Microseconds())/1000)
	writeJSON(w, http.StatusOK, res)
}
