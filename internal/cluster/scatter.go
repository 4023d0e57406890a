package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"fepia/internal/server"
)

// The scatter layer: getting one shard's request to one worker, with the
// failure handling that makes a fleet usable.
//
//   - Bounded in-flight per worker: each member has a semaphore; a slow
//     worker backs its own queue up instead of soaking up every shard.
//   - Retries: a transport error (worker marked down on the spot), a 429
//     (admission shed), a 502, or a 503 (draining) re-routes the shard to
//     the next candidate worker, up to MaxAttempts. A 200 or any other 4xx
//     is terminal — evaluation failures ride inside 200 shard responses and
//     are never retried (they are deterministic; a second worker would
//     produce the identical error).
//   - Hedging: if the first attempt is still running after the hedge delay,
//     the shard is re-issued to the next candidate and whichever response
//     arrives first wins. Safe because shard evaluation is deterministic —
//     both responses are interchangeable. The delay is HedgeAfter, or
//     adaptively 3× the primary worker's smoothed latency.

// maxWorkerResponse bounds a worker response body read.
const maxWorkerResponse = 32 << 20

// shardResult is one shard call's outcome: a worker HTTP response (any
// status) or a transport-level error after all attempts.
type shardResult struct {
	status   int
	body     []byte
	worker   string
	attempts int
	hedged   bool // the winning response came from a hedge
	elapsed  time.Duration
	err      error
}

// post sends one request to one worker, observing health passively.
func (c *Coordinator) post(ctx context.Context, m *member, path string, body []byte, rid string, hedged bool) shardResult {
	res := shardResult{worker: m.url, hedged: hedged}
	if err := m.acquire(ctx); err != nil {
		res.err = err
		return res
	}
	defer m.release()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.HeaderRequestID, rid)
	resp, err := c.client.Do(req)
	if err != nil {
		// Don't let a cancelled context (deadline, drain, or a lost hedge
		// race) condemn the worker: only genuine transport failures do.
		if ctx.Err() == nil {
			m.setState(stateDown, c.cfg.Logf)
			c.stats.workerErrors.Add(1)
		}
		res.err = err
		return res
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWorkerResponse))
	if err != nil {
		if ctx.Err() == nil {
			m.setState(stateDown, c.cfg.Logf)
			c.stats.workerErrors.Add(1)
		}
		res.err = err
		return res
	}
	res.elapsed = time.Since(start)
	m.observe(res.elapsed)
	switch resp.StatusCode {
	case http.StatusOK:
		m.setState(stateUp, c.cfg.Logf)
	case http.StatusServiceUnavailable:
		m.setState(stateDraining, c.cfg.Logf)
	}
	res.status, res.body = resp.StatusCode, data
	return res
}

// retryable reports whether a shard outcome should be re-routed to another
// worker.
func retryable(res shardResult) bool {
	if res.err != nil {
		return true
	}
	switch res.status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// hedgeDelay picks how long to wait before re-issuing a shard.
func (c *Coordinator) hedgeDelay(primary *member) time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	ewma := time.Duration(primary.ewmaNs.Load())
	if ewma <= 0 {
		return 100 * time.Millisecond
	}
	d := 3 * ewma
	if d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// doShard races one shard's request across the key's candidate workers:
// launch on the first candidate, hedge to the next after the hedge delay,
// re-route on retryable failures, and return the first terminal response.
// The whole race runs against the caller's ONE topology snapshot — a
// rebalance published mid-shard changes the next shard's placement, never
// this one's candidate list (hedging stays coherent).
func (c *Coordinator) doShard(ctx context.Context, t *topology, key, path string, body []byte, rid string) shardResult {
	return c.doShardOn(ctx, t.candidates(key), key, path, body, rid)
}

// doShardOn is doShard over an explicit candidate order (first = primary).
func (c *Coordinator) doShardOn(ctx context.Context, cands []*member, key, path string, body []byte, rid string) shardResult {
	if len(cands) == 0 {
		// A snapshot published while the last active worker drains out has
		// an empty ring; a request holding it must fail cleanly, not index
		// into an empty candidate list.
		return shardResult{err: fmt.Errorf("no candidate worker for key %q (ring is empty)", key)}
	}
	maxAttempts := c.cfg.MaxAttempts
	if maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}
	resCh := make(chan shardResult, maxAttempts)
	launched, inflight := 0, 0
	launch := func(hedged bool) bool {
		if launched >= maxAttempts {
			return false
		}
		m := cands[launched]
		launched++
		inflight++
		c.stats.shards.Add(1)
		go func() { resCh <- c.post(ctx, m, path, body, rid, hedged) }()
		return true
	}
	launch(false)

	hedge := time.NewTimer(c.hedgeDelay(cands[0]))
	defer hedge.Stop()

	var last shardResult
	for inflight > 0 {
		select {
		case res := <-resCh:
			inflight--
			res.attempts = launched
			if !retryable(res) {
				return res
			}
			last = res
			if inflight == 0 && launched < maxAttempts {
				c.stats.retries.Add(1)
				launch(false)
			}
		case <-hedge.C:
			if launch(true) {
				c.stats.hedges.Add(1)
			}
		case <-ctx.Done():
			return shardResult{attempts: launched, err: ctx.Err()}
		}
	}
	last.attempts = launched
	return last
}
