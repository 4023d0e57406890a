package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fepia/internal/scenario"
	"fepia/internal/server"
)

func f64(v float64) *float64 { return &v }

// testDoc is a scenario with an analytic and a numeric feature, so shards
// exercise both tiers.
func testDoc() scenario.AnalysisDoc {
	return scenario.AnalysisDoc{
		Params: []scenario.AnalysisParam{
			{Name: "load", Unit: "jobs", Orig: []float64{1, 2}},
			{Name: "mem", Unit: "GiB", Orig: []float64{4}},
		},
		Features: []scenario.AnalysisFeature{
			{Name: "lat", Max: f64(40), Coeffs: [][]float64{{2, 3}, {1}}},
			{Name: "mult", Impact: scenario.ImpactMultiplicative,
				Max: f64(100), Scale: 1, Pows: [][]float64{{1, 1}, {0.5}}},
			{Name: "quad", Max: f64(30),
				Impact: scenario.ImpactQuadratic,
				Curv:   [][]float64{{1, 0.5}, {2}},
				Center: [][]float64{{0.5, 1}, {1.5}}},
		},
	}
}

func workerConfig() server.Config {
	return server.Config{DegradeSamples: 64, EnableChaos: true}
}

// newFleet starts n workers and a coordinator over them.
func newFleet(t *testing.T, n int, mutate func(*Config)) ([]*httptest.Server, *Coordinator, *httptest.Server) {
	t.Helper()
	workers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range workers {
		s := server.New(workerConfig())
		workers[i] = httptest.NewServer(s.Handler())
		t.Cleanup(workers[i].Close)
		urls[i] = workers[i].URL
	}
	cfg := Config{Workers: urls, EnableChaos: true, HealthInterval: 100 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	return workers, coord, front
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// sameEval compares two /v1/robustness responses bit-exactly, ignoring
// request IDs and timings.
func sameEval(t *testing.T, got, want server.EvalResponse) {
	t.Helper()
	if got.Class != want.Class || got.Breaker != want.Breaker {
		t.Fatalf("class/breaker: got %s/%s, want %s/%s", got.Class, got.Breaker, want.Class, want.Breaker)
	}
	g, w := got.Robustness, want.Robustness
	if g.Critical != w.Critical || g.Weighting != w.Weighting || g.Degraded != w.Degraded || g.Unbounded != w.Unbounded {
		t.Fatalf("robustness meta: got %+v, want %+v", g, w)
	}
	sameFloatPtr(t, "rho", g.Value, w.Value)
	if len(g.PerFeature) != len(w.PerFeature) {
		t.Fatalf("perFeature lengths: %d vs %d", len(g.PerFeature), len(w.PerFeature))
	}
	for i := range g.PerFeature {
		a, b := g.PerFeature[i], w.PerFeature[i]
		if a.Feature != b.Feature || a.Param != b.Param || a.Side != b.Side || a.Name != b.Name ||
			a.Analytic != b.Analytic || a.Degraded != b.Degraded || a.Unbounded != b.Unbounded {
			t.Fatalf("radius %d: got %+v, want %+v", i, a, b)
		}
		sameFloatPtr(t, "radius", a.Value, b.Value)
	}
}

func sameFloatPtr(t *testing.T, what string, a, b *float64) {
	t.Helper()
	switch {
	case a == nil && b == nil:
	case a == nil || b == nil:
		t.Fatalf("%s: one side nil (%v vs %v)", what, a, b)
	case math.Float64bits(*a) != math.Float64bits(*b):
		t.Fatalf("%s bits differ: %v vs %v", what, *a, *b)
	}
}

// singleNode evaluates the request on a fresh one-node daemon for reference.
func singleNode(t *testing.T, req server.EvalRequest) server.EvalResponse {
	t.Helper()
	s := server.New(workerConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/robustness", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status = %d, body %s", resp.StatusCode, body)
	}
	var out server.EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// testMembers builds a standalone member list for ring/rendezvous tests.
func testMembers(urls ...string) []*member {
	out := make([]*member, len(urls))
	for i, u := range urls {
		out[i] = newMember(u, i, 1)
	}
	return out
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	mems := testMembers("http://a", "http://b", "http://c")
	r1, r2 := newRing(mems, 64), newRing(mems, 64)
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := "class/d4/s" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		p := r1.primary(key)
		if p != r2.primary(key) {
			t.Fatalf("ring placement not deterministic for %q", key)
		}
		counts[p.url]++
	}
	for url, n := range counts {
		if n < 100 {
			t.Fatalf("worker %s got only %d/1000 keys — ring badly unbalanced: %v", url, n, counts)
		}
	}
}

func TestRendezvousOrderCoversAll(t *testing.T) {
	mems := testMembers("http://a", "http://b", "http://c", "http://d", "http://e")
	order := rendezvousOrder("some/class", mems)
	seen := map[string]bool{}
	for _, m := range order {
		seen[m.url] = true
	}
	if len(seen) != 5 {
		t.Fatalf("rendezvous order does not cover all workers: %v", seen)
	}
}

// TestRendezvousStableAcrossLeave checks the URL-keyed property live
// rebalancing relies on: removing one member must not reorder the survivors'
// fallback ranking for any key.
func TestRendezvousStableAcrossLeave(t *testing.T) {
	all := testMembers("http://a", "http://b", "http://c", "http://d")
	without := all[:3] // drop http://d
	for i := 0; i < 50; i++ {
		key := "class/d8/s" + string(rune('a'+i))
		full := rendezvousOrder(key, all)
		sub := rendezvousOrder(key, without)
		filtered := make([]*member, 0, 3)
		for _, m := range full {
			if m != all[3] {
				filtered = append(filtered, m)
			}
		}
		for j := range sub {
			if sub[j] != filtered[j] {
				t.Fatalf("key %q: survivor order changed after leave", key)
			}
		}
	}
}

func TestCandidatesSkipDownWorkers(t *testing.T) {
	_, coord, _ := newFleet(t, 3, nil)
	key := "multiplicative/d4/s0"
	topo := coord.topology()
	prim := topo.ring.primary(key)
	prim.setState(stateDown, coord.cfg.Logf)
	for _, m := range topo.candidates(key) {
		if m == prim {
			t.Fatalf("down worker %s still offered as candidate", prim.url)
		}
	}
	// All down: candidates must still offer the full fleet (stale-health
	// optimism) rather than none.
	for _, m := range topo.members {
		m.setState(stateDown, coord.cfg.Logf)
	}
	if len(topo.candidates(key)) != 3 {
		t.Fatalf("all-down fleet should fall back to trying everyone")
	}
}

func TestCoordinatorMatchesSingleNode(t *testing.T) {
	_, _, front := newFleet(t, 3, nil)
	for _, weighting := range []string{"", "sensitivity"} {
		req := server.EvalRequest{Scenario: testDoc(), Weighting: weighting}
		resp, body := postJSON(t, front.URL+"/v1/robustness", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator status = %d, body %s", resp.StatusCode, body)
		}
		var got EvalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cluster == nil || len(got.Cluster.Shards) == 0 {
			t.Fatalf("response carries no shard provenance: %s", body)
		}
		sameEval(t, got.EvalResponse, singleNode(t, req))
	}
}

func TestCoordinatorErrorMatchesSingleNode(t *testing.T) {
	_, _, front := newFleet(t, 3, nil)
	req := server.EvalRequest{Scenario: testDoc(), Chaos: []server.ChaosSpec{{Feature: 2, Fault: "panic"}}}

	s := server.New(workerConfig())
	ref := httptest.NewServer(s.Handler())
	defer ref.Close()
	refResp, refBody := postJSON(t, ref.URL+"/v1/robustness", req)
	var want server.ErrorResponse
	if err := json.Unmarshal(refBody, &want); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, front.URL+"/v1/robustness", req)
	if resp.StatusCode != refResp.StatusCode {
		t.Fatalf("status = %d, single-node = %d (%s)", resp.StatusCode, refResp.StatusCode, body)
	}
	var got server.ErrorResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Error != want.Error || got.Kind != want.Kind {
		t.Fatalf("error = %q/%q, single-node = %q/%q", got.Error, got.Kind, want.Error, want.Kind)
	}
	if got.RequestID == "" {
		t.Fatal("coordinator error carries no request ID")
	}
}

func TestCoordinatorReroutesAroundDeadWorker(t *testing.T) {
	workers, coord, front := newFleet(t, 3, nil)
	// Kill one worker outright; the coordinator should discover it (or trip
	// over it) and re-route its shards.
	workers[1].CloseClientConnections()
	workers[1].Close()
	req := server.EvalRequest{Scenario: testDoc()}
	resp, body := postJSON(t, front.URL+"/v1/robustness", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	sameEval(t, got.EvalResponse, singleNode(t, req))
	coord.ProbeNow(context.Background())
	dead := coord.topology().members[1]
	if dead.state.Load() != stateDown {
		t.Fatalf("dead worker not marked down after probe")
	}
	if gen := dead.gen.Load(); gen == 0 {
		t.Fatalf("dead worker's generation did not advance")
	}
}

func TestCoordinatorHedgesSlowShard(t *testing.T) {
	// Every worker's shard endpoint gets 100ms of added HTTP latency — well
	// past the 20ms hedge delay — so every shard hedges, and since the
	// latency sits outside the evaluation, the merged result is still exact.
	const delay = 100 * time.Millisecond
	urls := make([]string, 3)
	for i := range urls {
		s := server.New(workerConfig())
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	coord, err := New(Config{Workers: urls, HedgeAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	req := server.EvalRequest{Scenario: testDoc()}
	resp, body := postJSON(t, front.URL+"/v1/robustness", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	sameEval(t, got.EvalResponse, singleNode(t, req))

	resp2, err := http.Get(front.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hedges == 0 {
		t.Fatalf("no hedges launched: %+v", st)
	}
}

func TestCoordinatorBatchMatchesSingleNode(t *testing.T) {
	_, _, front := newFleet(t, 3, nil)
	req := server.BatchRequest{Items: []server.BatchItemRequest{
		{Scenario: testDoc()},
		{Scenario: testDoc(), Weighting: "sensitivity"},
		{Scenario: testDoc(), Chaos: []server.ChaosSpec{{Feature: 0, Fault: "panic"}}},
	}}

	s := server.New(workerConfig())
	ref := httptest.NewServer(s.Handler())
	defer ref.Close()
	_, refBody := postJSON(t, ref.URL+"/v1/batch", req)
	var want server.BatchResponse
	if err := json.Unmarshal(refBody, &want); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, front.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for k := range got.Results {
		g, w := got.Results[k], want.Results[k]
		if g.Error != w.Error || g.Kind != w.Kind || g.Class != w.Class || g.Breaker != w.Breaker {
			t.Fatalf("item %d: got %+v, want %+v", k, g, w)
		}
		if (g.Robustness == nil) != (w.Robustness == nil) {
			t.Fatalf("item %d: robustness presence differs", k)
		}
		if g.Robustness != nil {
			sameEval(t,
				server.EvalResponse{Robustness: *g.Robustness, Class: g.Class, Breaker: g.Breaker},
				server.EvalResponse{Robustness: *w.Robustness, Class: w.Class, Breaker: w.Breaker})
		}
	}
	if got.Cluster == nil || len(got.Cluster.Shards) != len(req.Items) {
		t.Fatalf("batch provenance missing or wrong size: %+v", got.Cluster)
	}
}

func TestCoordinatorRadiusForwards(t *testing.T) {
	_, _, front := newFleet(t, 3, nil)
	req := server.RadiusRequest{Scenario: testDoc()}

	s := server.New(workerConfig())
	ref := httptest.NewServer(s.Handler())
	defer ref.Close()
	_, refBody := postJSON(t, ref.URL+"/v1/radius", req)
	var want server.RadiusResponse
	if err := json.Unmarshal(refBody, &want); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, front.URL+"/v1/radius", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Fepia-Worker") == "" {
		t.Fatal("forwarded radius response names no worker")
	}
	var got server.RadiusResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Radii) != len(want.Radii) {
		t.Fatalf("got %d radii, want %d", len(got.Radii), len(want.Radii))
	}
	for i := range got.Radii {
		sameFloatPtr(t, "radius", got.Radii[i].Value, want.Radii[i].Value)
		if got.Radii[i].Param != want.Radii[i].Param || got.Radii[i].Feature != want.Radii[i].Feature {
			t.Fatalf("radius %d: got %+v, want %+v", i, got.Radii[i], want.Radii[i])
		}
	}
}

func TestCoordinatorDrain(t *testing.T) {
	_, coord, front := newFleet(t, 2, nil)
	coord.BeginDrain()
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp2, body := postJSON(t, front.URL+"/v1/robustness", server.EvalRequest{Scenario: testDoc()})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining = %d, body %s", resp2.StatusCode, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "draining" {
		t.Fatalf("kind = %q, want draining", er.Kind)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestCoordinatorStatz(t *testing.T) {
	_, _, front := newFleet(t, 2, nil)
	if resp, body := postJSON(t, front.URL+"/v1/robustness", server.EvalRequest{Scenario: testDoc()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	resp, err := http.Get(front.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("statz reports %d workers, want 2", len(st.Workers))
	}
	if st.Completed != 1 || st.Shards == 0 {
		t.Fatalf("statz counters off: %+v", st)
	}
	for _, w := range st.Workers {
		if w.State != "up" {
			t.Fatalf("worker %s state = %q after a served request", w.URL, w.State)
		}
	}
}

// TestCoordinatorRequestIDForwarded checks the same correlation ID reaches
// the worker and comes back in the coordinator's response.
func TestCoordinatorRequestIDForwarded(t *testing.T) {
	_, _, front := newFleet(t, 2, nil)
	raw, _ := json.Marshal(server.EvalRequest{Scenario: testDoc()})
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/robustness", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.HeaderRequestID, "fleet-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(server.HeaderRequestID) != "fleet-trace-7" {
		t.Fatalf("response header rid = %q", resp.Header.Get(server.HeaderRequestID))
	}
	var got EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.RequestID != "fleet-trace-7" {
		t.Fatalf("body rid = %q, want fleet-trace-7", got.RequestID)
	}
}

// A health probe must hand its connection back to the idle pool. A body
// closed unread closes its connection, so every sweep would re-dial every
// worker and leave the scatter path to replace the connections.
func TestHealthProbesReuseConnections(t *testing.T) {
	var conns atomic.Int64
	w := httptest.NewUnstartedServer(server.New(workerConfig()).Handler())
	w.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	w.Start()
	t.Cleanup(w.Close)
	coord, err := New(Config{Workers: []string{w.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	for i := 0; i < 5; i++ {
		coord.ProbeNow(context.Background())
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 probe sweeps opened %d connections to the worker, want 1", n)
	}
}
