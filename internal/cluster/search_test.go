package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fepia/internal/etc"
	"fepia/internal/sched"
	"fepia/internal/server"
	"fepia/internal/stats"
)

// candidatesAt puts active worker i first and keeps every other up worker
// behind it, skipping a primary that is down.
func TestCandidatesAtRotatesPrimary(t *testing.T) {
	topo := newTopology(1, testMembers("http://a", "http://b", "http://c"), 16)
	for _, m := range topo.active {
		m.setState(stateUp, func(string, ...any) {})
	}
	for i := 0; i < 6; i++ {
		cands := topo.candidatesAt(i, "k")
		if len(cands) != 3 || cands[0] != topo.active[i%3] {
			t.Fatalf("candidatesAt(%d) = %v, want active[%d] first of 3", i, urls(cands), i%3)
		}
	}
	topo.active[1].setState(stateDown, func(string, ...any) {})
	if cands := topo.candidatesAt(1, "k"); len(cands) != 2 || cands[0] == topo.active[1] {
		t.Fatalf("down primary kept: %v", urls(cands))
	}
}

func urls(ms []*member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.url
	}
	return out
}

// One generation split over three workers sends each worker exactly one
// chunk, in every generation. Placement by chunk key alone can hash two
// chunks onto one worker while another sits idle.
func TestSearchGenerationSpreadsOverWorkers(t *testing.T) {
	var mu sync.Mutex
	batches := map[string]int{}
	urlsByIdx := make([]string, 3)
	for i := range urlsByIdx {
		s := server.New(workerConfig())
		h := s.Handler()
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				mu.Lock()
				batches[ts.URL]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urlsByIdx[i] = ts.URL
	}
	coord, err := New(Config{Workers: urlsByIdx, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.ProbeNow(context.Background())

	m, err := etc.CVB(etc.CVBParams{Tasks: 8, Machines: 3, MeanTask: 10, TaskCV: 0.4, MachineCV: 0.4}, stats.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := sched.MinMin(m)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sched.ResolveBound(m, sched.SearchOptions{Tau: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ev := &searchEvaluator{c: coord, m: m, bound: bound, id: "spread", rid: "rid", workerTimeout: 10 * time.Second}
	allocs := [][]int{alloc, alloc, alloc}
	for gen := 0; gen < 6; gen++ {
		if _, err := ev.Scores(context.Background(), allocs); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, u := range urlsByIdx {
			if batches[u] != gen+1 {
				t.Fatalf("after generation %d: batches per worker %v, want %d each", gen, batches, gen+1)
			}
		}
		mu.Unlock()
	}
}
