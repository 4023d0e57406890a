package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"fepia/internal/etc"
	"fepia/internal/scenario"
	"fepia/internal/stats"
)

// searchInstance builds a CVB ETC instance serialized as the makespan
// document /v1/search expects (the format `rank -save` writes).
func searchInstance(t *testing.T, tasks, machines int, seed int64) json.RawMessage {
	t.Helper()
	m, err := etc.CVB(etc.CVBParams{Tasks: tasks, Machines: machines, MeanTask: 10, TaskCV: 0.4, MachineCV: 0.4}, stats.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scenario.SaveMakespan(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchEndpoint is the end-to-end acceptance check for the search
// service: one POST /v1/search drives ≥10⁴ radius evaluations through the
// batch engine, repeats bit-identically, and leaves a "done" row in /statz.
func TestSearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SearchRequest{
		Instance: searchInstance(t, 32, 8, 37),
		Algo:     "ga",
		Tau:      1.5,
		Seed:     1,
		SearchID: "e2e",
	}
	resp, body := postJSON(t, ts.URL+"/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/search = %d: %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Partial {
		t.Fatal("untimed search reported partial")
	}
	if out.RadiusEvals < 10000 {
		t.Fatalf("RadiusEvals = %d, want >= 10000 (one request must drive 10^4 evaluations through the engine)", out.RadiusEvals)
	}
	if !out.Best.Feasible || out.Best.Rho <= 0 {
		t.Fatalf("best = %+v, want feasible with positive rho", out.Best)
	}
	if len(out.Baseline.Alloc) != 32 {
		t.Fatalf("baseline alloc has %d tasks, want 32", len(out.Baseline.Alloc))
	}
	if out.Best.Rho < out.Baseline.Rho {
		t.Fatalf("search rho %v < min-min baseline rho %v", out.Best.Rho, out.Baseline.Rho)
	}

	// Equal seeds are bit-identical across runs.
	resp2, body2 := postJSON(t, ts.URL+"/v1/search", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST /v1/search = %d: %s", resp2.StatusCode, body2)
	}
	var out2 SearchResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !slicesEqual(out.Best.Alloc, out2.Best.Alloc) {
		t.Fatalf("best allocation differs across identical requests:\n%v\n%v", out.Best.Alloc, out2.Best.Alloc)
	}
	if math.Float64bits(out.Best.Rho) != math.Float64bits(out2.Best.Rho) {
		t.Fatalf("best rho differs bitwise: %x vs %x", math.Float64bits(out.Best.Rho), math.Float64bits(out2.Best.Rho))
	}
	if out.RadiusEvals != out2.RadiusEvals {
		t.Fatalf("RadiusEvals differs: %d vs %d", out.RadiusEvals, out2.RadiusEvals)
	}

	st := getStatz(t, ts)
	var row *SearchStatz
	for i := range st.Searches {
		if st.Searches[i].ID == "e2e" {
			row = &st.Searches[i]
		}
	}
	if row == nil {
		t.Fatalf("no e2e row in /statz searches: %+v", st.Searches)
	}
	if row.State != "done" || row.RadiusEvals != out2.RadiusEvals {
		t.Fatalf("statz row = %+v, want done with %d radius evals", row, out2.RadiusEvals)
	}
}

// TestSearchBadRequests maps each client mistake to 400.
func TestSearchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := searchInstance(t, 8, 3, 5)
	cases := []struct {
		name string
		req  SearchRequest
	}{
		{"missing instance", SearchRequest{Tau: 1.3}},
		{"bad tau", SearchRequest{Instance: inst, Tau: 0.9}},
		{"bad algo", SearchRequest{Instance: inst, Tau: 1.3, Algo: "tabu"}},
		{"bad objective", SearchRequest{Instance: inst, Tau: 1.3, Objective: "min-flow"}},
		{"bad mutation", SearchRequest{Instance: inst, Tau: 1.3, MutationRate: 1.5}},
		{"bad resume", SearchRequest{Instance: inst, Tau: 1.3, Resume: []int{0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/search", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, data)
			}
		})
	}
}

// TestSearchPartialOnDeadline: a deadline mid-search returns 200 with the
// best of the completed generations and Partial set, and the /statz row
// lands in state "partial" carrying the resume allocation.
func TestSearchPartialOnDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SearchRequest{
		Instance:    searchInstance(t, 48, 10, 7),
		Tau:         1.5,
		Seed:        3,
		Generations: 100000, // far more than the deadline allows
		Population:  40,
		SearchID:    "truncated",
		Timeout:     "250ms",
	}
	resp, body := postJSON(t, ts.URL+"/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/search = %d, want 200 partial: %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Fatalf("response not partial: %+v", out)
	}
	if out.Generations <= 0 || out.Generations >= 100000 {
		t.Fatalf("partial generations = %d, want in (0, 100000)", out.Generations)
	}
	if len(out.Best.Alloc) != 48 {
		t.Fatalf("partial best alloc has %d tasks, want 48", len(out.Best.Alloc))
	}
	st := getStatz(t, ts)
	found := false
	for _, row := range st.Searches {
		if row.ID == "truncated" {
			found = true
			if row.State != "partial" {
				t.Fatalf("statz state = %q, want partial", row.State)
			}
			if len(row.BestAlloc) != 48 {
				t.Fatalf("statz row carries no resume allocation: %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("no truncated row in /statz: %+v", st.Searches)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The tracker keeps rows in its own storage: updates copy the caller's
// best allocation, snapshots hand out copies, insertion order and
// oldest-first eviction hold, and a longer allocation widens the slab
// without disturbing the rows already held.
func TestSearchTrackerRows(t *testing.T) {
	tr := NewSearchTracker(3)
	best := []int{1, 2}
	tr.Update(SearchStatz{ID: "a", State: "running", BestAlloc: best})
	tr.Update(SearchStatz{ID: "b", State: "running"})
	best[0] = 99 // the caller may reuse its slice
	tr.Update(SearchStatz{ID: "a", State: "done", BestAlloc: []int{3, 4}})
	tr.Update(SearchStatz{ID: "c", State: "running", BestAlloc: []int{5, 6, 7, 8}})
	tr.Update(SearchStatz{ID: "d", State: "failed", BestAlloc: []int{9}})

	rows := tr.Snapshot()
	want := []struct {
		id, state string
		best      []int
	}{{"b", "running", nil}, {"c", "running", []int{5, 6, 7, 8}}, {"d", "failed", []int{9}}}
	if len(rows) != len(want) {
		t.Fatalf("rows %+v, want ids b, c, d", rows)
	}
	for i, w := range want {
		r := rows[i]
		if r.ID != w.id || r.State != w.state || len(r.BestAlloc) != len(w.best) {
			t.Fatalf("row %d = %+v, want %s %s %v", i, r, w.id, w.state, w.best)
		}
		for j := range w.best {
			if r.BestAlloc[j] != w.best[j] {
				t.Fatalf("row %d bestAlloc %v, want %v", i, r.BestAlloc, w.best)
			}
		}
	}
	if rows[0].BestAlloc != nil {
		t.Fatalf("row without an allocation reports %v", rows[0].BestAlloc)
	}
	rows[1].BestAlloc[0] = -1 // a snapshot must not alias the tracker
	if again := tr.Snapshot(); again[1].BestAlloc[0] != 5 {
		t.Fatalf("snapshot aliases tracker storage: %v", again[1].BestAlloc)
	}
}

// Once its storage is sized, the tracker records progress without
// allocating: rows written on behalf of a request must not be separate
// objects that outlive it.
func TestSearchTrackerUpdateDoesNotAllocate(t *testing.T) {
	tr := NewSearchTracker(4)
	best := make([]int, 16)
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	tr.Update(SearchStatz{ID: ids[0], BestAlloc: best})
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		tr.Update(SearchStatz{ID: ids[i%len(ids)], State: "running", BestAlloc: best})
	})
	if allocs != 0 {
		t.Fatalf("Update allocates %v times per call, want 0", allocs)
	}
}
