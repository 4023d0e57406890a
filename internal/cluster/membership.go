package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Membership: the coordinator's view of its worker fleet. The worker list is
// static (configured at startup); what changes is each worker's health
// state, learned two ways:
//
//   - actively, from a background probe loop hitting every worker's /readyz
//     on a fixed interval (200 = up, 503 = draining, anything else or a
//     transport error = down);
//   - passively, from the scatter path (a transport error on a shard marks
//     the worker down immediately; a served request marks it back up).
//
// Every state transition increments the member's generation counter, so
// operators (and tests) can distinguish "has been up the whole time" from
// "flapped twelve times since you last looked" — /statz reports both.
//
// New members start optimistically up: the first scatter may race the first
// probe, and trying a worker that turns out to be down costs one retried
// shard, while refusing to use a healthy worker until probed costs
// availability.

// Worker health states.
const (
	stateUp int32 = iota
	stateDraining
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// member is one worker in the fleet.
type member struct {
	url string
	idx int // position in the worker list at the time it was added

	state   atomic.Int32
	gen     atomic.Uint64 // state transitions observed
	ewmaNs  atomic.Int64  // smoothed request latency, 0 = no sample yet
	leaving atomic.Bool   // RemoveWorker drain in progress: excluded from the ring

	sem chan struct{} // bounds in-flight requests to this worker
}

func newMember(url string, idx, maxInflight int) *member {
	return &member{url: url, idx: idx, sem: make(chan struct{}, maxInflight)}
}

// setState transitions the member, bumping the generation on change.
func (m *member) setState(s int32, logf func(string, ...any)) {
	if m.state.Swap(s) != s {
		m.gen.Add(1)
		logf("cluster: worker %s is %s (generation %d)", m.url, stateName(s), m.gen.Load())
	}
}

func (m *member) up() bool { return m.state.Load() == stateUp }

// acquire bounds the in-flight requests to this worker; ctx aborts the wait.
func (m *member) acquire(ctx context.Context) error {
	select {
	case m.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *member) release() { <-m.sem }

// observe feeds one served request's latency into the member's EWMA (the
// adaptive hedge delay keys off it).
func (m *member) observe(elapsed time.Duration) {
	ns := elapsed.Nanoseconds()
	for {
		old := m.ewmaNs.Load()
		next := ns
		if old > 0 {
			next = (old*4 + ns) / 5
		}
		if m.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// probeOnce sweeps every member's /readyz once (against the topology
// current at sweep start; a mid-sweep rebalance is picked up next sweep).
func (c *Coordinator) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range c.topology().members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.url+"/readyz", nil)
			if err != nil {
				m.setState(stateDown, c.cfg.Logf)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				m.setState(stateDown, c.cfg.Logf)
				return
			}
			drainClose(resp)
			switch resp.StatusCode {
			case http.StatusOK:
				m.setState(stateUp, c.cfg.Logf)
			case http.StatusServiceUnavailable:
				m.setState(stateDraining, c.cfg.Logf)
			default:
				m.setState(stateDown, c.cfg.Logf)
			}
		}(m)
	}
	wg.Wait()
}

// drainClose reads what is left of a small response body (up to 4 KB) and
// closes it. A body closed unread takes its connection down with it, so a
// probe sweep every HealthInterval would otherwise re-dial one connection
// per worker that the scatter path then has to replace.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
}

// ProbeNow runs one synchronous health sweep (tests and startup use it to
// avoid waiting out the probe interval).
func (c *Coordinator) ProbeNow(ctx context.Context) { c.probeOnce(ctx) }

// probeLoop is the background health prober; it stops when the coordinator's
// base context is cancelled (Close or drained shutdown).
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.base.Done():
			return
		case <-t.C:
			c.probeOnce(c.base)
		}
	}
}
