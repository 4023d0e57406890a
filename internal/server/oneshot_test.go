package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"fepia/internal/scenario"
)

// requestBytes reports the heap bytes one /v1/robustness request for body
// allocates when served in process by h: the least of three averages, so a
// stray allocation elsewhere in the test binary cannot inflate it.
func requestBytes(t *testing.T, h http.Handler, body []byte) uint64 {
	t.Helper()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/robustness", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serve()
	const runs = 50
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b < best {
			best = b
		}
	}
	return best
}

// A closed-form request never stores into the impact cache, so the default
// worker (cache on) must cost what a worker with the cache off does, give
// or take the cache's shard array.
func TestClosedFormRequestCostsNoMoreWithDefaultCache(t *testing.T) {
	body, err := json.Marshal(EvalRequest{Scenario: analyticDoc()})
	if err != nil {
		t.Fatal(err)
	}
	def := requestBytes(t, New(Config{}).Handler(), body)
	off := requestBytes(t, New(Config{CacheCap: -1}).Handler(), body)
	t.Logf("bytes per request: default %d, cache off %d", def, off)
	if def > off+4<<10 {
		t.Fatalf("default config allocates %d B per request, cache off %d B: more than 4 KB apart", def, off)
	}
}

// An inside origin level with a quadratic feature's center on its
// largest-curvature element is the ellipsoid solve's hard case, where the
// multiplier bracket search cannot close. The request must come back, with
// a finite radius.
func TestQuadraticHardCaseRequestReturns(t *testing.T) {
	doc := scenario.AnalysisDoc{
		Params: []scenario.AnalysisParam{{Name: "p", Orig: []float64{1, 1}}},
		Features: []scenario.AnalysisFeature{{
			Name: "q", Impact: scenario.ImpactQuadratic, Const: 1, Max: f64(3),
			Curv: [][]float64{{0.9, 0.1}}, Center: [][]float64{{1, 1.2}},
		}},
	}
	body, err := json.Marshal(EvalRequest{Scenario: doc})
	if err != nil {
		t.Fatal(err)
	}
	// Served in process rather than over a listener, so that a request that
	// never returns fails the test at the deadline instead of blocking the
	// listener's shutdown.
	h := New(Config{}).Handler()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/robustness", bytes.NewReader(body)))
		done <- rec
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var out EvalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if v := out.Robustness.Value; v == nil || !(*v > 0) || math.IsInf(*v, 0) {
			t.Fatalf("want a finite positive radius, got body %s", rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/v1/robustness on the hard-case quadratic doc did not return within 10s")
	}
}
