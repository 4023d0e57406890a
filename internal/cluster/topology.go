package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// Live ring rebalancing. The fleet is no longer fixed at startup: workers
// join and leave while the coordinator serves, and scenario classes re-home
// across the ring without a restart and without breaking the bit-identity
// guarantee (shards are deterministic, so WHERE a shard runs never changes
// WHAT it returns — rebalancing only moves cache warmth).
//
// The mechanism is an immutable topology snapshot behind an atomic pointer:
//
//   - Readers (scatter, candidates, /statz, /readyz) load the snapshot once
//     per request and use it throughout. A shard's whole attempt sequence —
//     primary, retries, hedge — runs against ONE topology, so a concurrent
//     rebalance can never hand the hedge a different candidate list than
//     the primary attempt saw (hedging-safety).
//   - Writers (AddWorker / RemoveWorker) are serialized by topoMu, build a
//     new snapshot with the generation bumped, and publish it with one
//     atomic store. There is no lock on the request path.
//
// Handoff semantics:
//
//   - Join is probe-then-cutover: the candidate worker's /readyz is polled
//     until it answers 200 (bounded by the caller's context), and only then
//     does the new topology — whose ring re-homes the classes adjacent to
//     the new worker's vnodes — get published. Traffic never cuts over to a
//     worker that was not observed ready.
//   - Leave is drain-then-cutover: the member is first marked leaving, and
//     an intermediate topology is published whose ring excludes it (new
//     work re-homes immediately) but whose member list still carries it
//     (operators see it draining in /statz). The coordinator then waits for
//     the member's in-flight shards to finish before publishing the final
//     topology without it. In-flight work holds *member references, so even
//     a timed-out drain strands nothing.

// topology is one immutable fleet snapshot.
type topology struct {
	gen     uint64
	members []*member // everyone, including leaving members (visibility)
	active  []*member // ring-eligible members (not leaving)
	ring    *ring     // over active
}

// newTopology assembles a snapshot from a full member list.
func newTopology(gen uint64, members []*member, vnodes int) *topology {
	active := make([]*member, 0, len(members))
	for _, m := range members {
		if !m.leaving.Load() {
			active = append(active, m)
		}
	}
	return &topology{gen: gen, members: members, active: active, ring: newRing(active, vnodes)}
}

// topology returns the current snapshot. Use one snapshot per request.
func (c *Coordinator) topology() *topology {
	return c.topo.Load()
}

// candidates returns the ordered workers to try for a key: the ring's
// primary if it is up, then every other up active worker in rendezvous
// order. When no active worker is up at all it returns the full rendezvous
// order anyway — health state may be stale, and trying beats failing
// without a request.
func (t *topology) candidates(key string) []*member {
	return t.candidatesFrom(t.ring.primary(key), key)
}

// candidatesAt is candidates with the primary set to active worker i (mod
// the active count) instead of the ring's choice. A request split into one
// chunk per active worker places chunk i on worker i, so no worker gets two
// chunks of it while another has none; the retry and hedge order after the
// primary is still key's rendezvous order.
func (t *topology) candidatesAt(i int, key string) []*member {
	if len(t.active) == 0 {
		return t.candidates(key)
	}
	return t.candidatesFrom(t.active[i%len(t.active)], key)
}

// candidatesFrom orders the up active workers for key behind prim.
func (t *topology) candidatesFrom(prim *member, key string) []*member {
	out := make([]*member, 0, len(t.active))
	if prim != nil && prim.up() {
		out = append(out, prim)
	}
	order := rendezvousOrder(key, t.active)
	for _, m := range order {
		if m != prim && m.up() {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		out = order
	}
	return out
}

// findMember locates a member by URL in a snapshot.
func (t *topology) findMember(url string) *member {
	for _, m := range t.members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// publish installs a new snapshot built from the given member list, bumping
// the generation. Caller holds c.topoMu.
func (c *Coordinator) publish(members []*member) *topology {
	next := newTopology(c.topo.Load().gen+1, members, c.cfg.VNodes)
	c.topo.Store(next)
	return next
}

// probeReady polls one worker's /readyz until it answers 200, the retry
// budget runs out, or ctx expires. Used by AddWorker's probe-then-cutover.
func (c *Coordinator) probeReady(ctx context.Context, url string) error {
	var lastErr error
	for {
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			cancel()
			return fmt.Errorf("cluster: probing %s: %w", url, err)
		}
		resp, err := c.client.Do(req)
		if err == nil {
			drainClose(resp)
		}
		cancel()
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("readyz answered %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: worker %s never became ready: %v (last: %v)", url, ctx.Err(), lastErr)
		case <-time.After(c.cfg.ProbeTimeout / 4):
		}
	}
}

// AddWorker joins a worker to the fleet: probe its /readyz until it answers
// ready (bounded by ctx), then publish a new topology whose ring includes
// it. Returns the new topology generation.
func (c *Coordinator) AddWorker(ctx context.Context, url string) (uint64, error) {
	if url == "" {
		return 0, fmt.Errorf("cluster: join: empty worker url")
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	cur := c.topo.Load()
	if m := cur.findMember(url); m != nil {
		return 0, fmt.Errorf("cluster: join: %s is already a member", url)
	}
	if _, ok := ctx.Deadline(); !ok {
		// Never ready-poll forever on a deadline-less caller.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 10*c.cfg.ProbeTimeout)
		defer cancel()
	}
	if err := c.probeReady(ctx, url); err != nil {
		return 0, err
	}
	m := newMember(url, len(cur.members), c.cfg.MaxInflightPerWorker)
	members := append(append([]*member{}, cur.members...), m)
	next := c.publish(members)
	c.stats.joins.Add(1)
	c.journalAppend(opJoin, url, next.gen)
	c.cfg.Logf("cluster: worker %s joined (generation %d, %d active)", url, next.gen, len(next.active))
	return next.gen, nil
}

// RemoveWorker drains a worker out of the fleet: mark it leaving, publish an
// intermediate topology whose ring excludes it (new shards re-home at once),
// wait — bounded by ctx — for its in-flight shards to finish, then publish
// the final topology without it. The member is removed even if the drain
// wait times out (its in-flight work holds the *member and completes
// normally); the returned error reports the incomplete drain.
func (c *Coordinator) RemoveWorker(ctx context.Context, url string) (uint64, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	cur := c.topo.Load()
	m := cur.findMember(url)
	if m == nil {
		return 0, fmt.Errorf("cluster: leave: %s is not a member", url)
	}
	if len(cur.active) <= 1 && !m.leaving.Load() {
		return 0, fmt.Errorf("cluster: leave: %s is the last active worker", url)
	}

	// Cutover: re-home the member's classes before touching its in-flight
	// work.
	m.leaving.Store(true)
	mid := c.publish(cur.members)
	c.cfg.Logf("cluster: worker %s draining out (generation %d)", url, mid.gen)

	// Drain: wait for the member's in-flight shards to finish.
	var drainErr error
	for len(m.sem) > 0 {
		select {
		case <-ctx.Done():
			drainErr = fmt.Errorf("cluster: leave: %s removed with %d shard(s) still in flight: %w", url, len(m.sem), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
		if drainErr != nil {
			break
		}
	}

	members := make([]*member, 0, len(cur.members)-1)
	for _, mm := range cur.members {
		if mm != m {
			members = append(members, mm)
		}
	}
	next := c.publish(members)
	c.stats.leaves.Add(1)
	c.journalAppend(opLeave, url, next.gen)
	c.cfg.Logf("cluster: worker %s left (generation %d, %d active)", url, next.gen, len(next.active))
	return next.gen, drainErr
}
