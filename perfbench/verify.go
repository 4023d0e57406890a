package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"fepia/internal/core"
	"fepia/internal/delta"
	"fepia/internal/oracle"
	"fepia/internal/sched"
	"fepia/internal/server"
)

// The verifier recomputes every response in process through the library
// and compares under internal/oracle's tolerance model: a radius the
// serving side computed with an impact cache (every non-analytic radius,
// since every served configuration enables one) may differ by the Cached
// tolerance, relative; everything else must be bit-identical. Searches must
// return the bit-identical best allocation of an in-process sched.Search
// with the same seed.

// refEvalOptions mirror fepiad's per-request engine options.
var refEvalOptions = core.EvalOptions{Workers: 1, DegradeOnNumeric: true, DegradeSeed: 1}

// reference is one input's in-process result.
type reference struct {
	rob    core.Robustness     // /v1/robustness, /v1/watch/update
	radii  []core.Radius       // /v1/radius, one per param
	search *sched.SearchResult // /v1/search
	err    error
}

type verifier struct {
	in   *inputs
	mu   sync.Mutex
	refs map[int]*reference
}

func newVerifier(in *inputs) *verifier {
	return &verifier{in: in, refs: make(map[int]*reference)}
}

// prepare computes the references of items in parallel on two goroutines.
func (v *verifier) prepare(items []int) {
	todo := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range todo {
				ref := v.compute(id)
				v.mu.Lock()
				v.refs[id] = ref
				v.mu.Unlock()
			}
		}()
	}
	for _, id := range items {
		v.mu.Lock()
		_, done := v.refs[id]
		v.mu.Unlock()
		if !done {
			todo <- id
		}
	}
	close(todo)
	wg.Wait()
}

func (v *verifier) compute(id int) *reference {
	it := &v.in.items[id]
	ctx := context.Background()
	ref := &reference{}
	if it.search != nil {
		m, opt, err := server.ParseSearchRequest(*it.search)
		if err != nil {
			ref.err = err
			return ref
		}
		ref.search, ref.err = sched.Search(ctx, m, &sched.EngineEvaluator{M: m, Bound: opt.Bound}, opt, nil)
		return ref
	}
	doc, err := v.in.doc(id)
	if err != nil {
		ref.err = err
		return ref
	}
	a, err := doc.Build()
	if err != nil {
		ref.err = err
		return ref
	}
	if it.path == "/v1/radius" {
		for j := range a.Params {
			rad, err := a.RobustnessSingleCtx(ctx, j)
			if err != nil {
				ref.err = err
				return ref
			}
			ref.radii = append(ref.radii, rad)
		}
		return ref
	}
	ref.rob, ref.err = a.RobustnessWith(ctx, core.Normalized{}, refEvalOptions)
	return ref
}

// check verifies one successful response; a non-empty result describes a
// wrong result.
func (v *verifier) check(o *op) string {
	v.mu.Lock()
	ref := v.refs[int(o.item)]
	v.mu.Unlock()
	if ref == nil {
		return "no reference computed"
	}
	if ref.err != nil {
		return "reference failed: " + ref.err.Error()
	}
	it := &v.in.items[o.item]
	switch it.path {
	case "/v1/robustness":
		var resp server.EvalResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return "decoding response: " + err.Error()
		}
		return compareRobustness(resp.Robustness, ref.rob)
	case "/v1/watch/update":
		var resp server.WatchUpdateResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return "decoding response: " + err.Error()
		}
		return compareRobustness(resp.Robustness, ref.rob)
	case "/v1/radius":
		var resp server.RadiusResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return "decoding response: " + err.Error()
		}
		if len(resp.Radii) != len(ref.radii) {
			return fmt.Sprintf("%d radii, want %d", len(resp.Radii), len(ref.radii))
		}
		for j, rj := range resp.Radii {
			if msg := compareRadius(rj, ref.radii[j]); msg != "" {
				return fmt.Sprintf("param %d: %s", j, msg)
			}
		}
		return ""
	case "/v1/search":
		var resp server.SearchResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return "decoding response: " + err.Error()
		}
		want := ref.search
		switch {
		case resp.Partial:
			return "partial search"
		case !reflect.DeepEqual(resp.Best.Alloc, want.Best):
			return fmt.Sprintf("best alloc %v, want %v", resp.Best.Alloc, want.Best)
		case math.Float64bits(resp.Best.Rho) != math.Float64bits(want.BestRho):
			return fmt.Sprintf("best rho %.17g, want %.17g", resp.Best.Rho, want.BestRho)
		case math.Float64bits(resp.Best.Makespan) != math.Float64bits(want.BestMakespan):
			return fmt.Sprintf("best makespan %.17g, want %.17g", resp.Best.Makespan, want.BestMakespan)
		}
		return ""
	}
	return "unknown path " + it.path
}

// agree compares a served value with the reference: bit-identical when
// exact, else within the oracle's Cached relative tolerance.
func agree(got *float64, want float64, exact bool) bool {
	if got == nil {
		return math.IsInf(want, 1)
	}
	if math.Float64bits(*got) == math.Float64bits(want) {
		return true
	}
	if exact {
		return false
	}
	tol := oracle.DefaultTolerances().Cached
	return math.Abs(*got-want) <= tol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

func compareRadius(rj server.RadiusJSON, want core.Radius) string {
	switch {
	case rj.Side != want.Side.String():
		return fmt.Sprintf("side %s, want %s", rj.Side, want.Side)
	case rj.Analytic != want.Analytic || rj.Degraded != want.Degraded:
		return fmt.Sprintf("tier analytic=%v degraded=%v, want %v/%v", rj.Analytic, rj.Degraded, want.Analytic, want.Degraded)
	case !agree(rj.Value, want.Value, want.Analytic):
		return fmt.Sprintf("value %v, want %.17g", deref(rj.Value), want.Value)
	}
	return ""
}

func compareRobustness(got server.RobustnessJSON, want core.Robustness) string {
	if len(got.PerFeature) != len(want.PerFeature) {
		return fmt.Sprintf("%d per-feature radii, want %d", len(got.PerFeature), len(want.PerFeature))
	}
	exact := true
	for i, rj := range got.PerFeature {
		if msg := compareRadius(rj, want.PerFeature[i]); msg != "" {
			return fmt.Sprintf("feature %d: %s", i, msg)
		}
		exact = exact && want.PerFeature[i].Analytic
	}
	if got.Critical != want.Critical || got.Degraded != want.Degraded {
		return fmt.Sprintf("critical %d degraded %v, want %d/%v", got.Critical, got.Degraded, want.Critical, want.Degraded)
	}
	if !agree(got.Value, want.Value, exact) {
		return fmt.Sprintf("rho %v, want %.17g", deref(got.Value), want.Value)
	}
	return ""
}

func deref(p *float64) any {
	if p == nil {
		return "null"
	}
	return *p
}

// checkFrame verifies that the watch subscriber received the update's
// event and that it carries the response's robustness.
func checkFrame(sub *subscriber, body []byte) string {
	var resp server.WatchUpdateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "decoding response: " + err.Error()
	}
	var f frame
	ok := false
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if f, ok = sub.frame(resp.Seq); ok || time.Now().After(deadline) {
			break
		}
	}
	if !ok {
		return "missing"
	}
	var ev struct {
		Seq        uint64                `json:"seq"`
		Robustness server.RobustnessJSON `json:"robustness"`
	}
	if err := json.Unmarshal(f.data, &ev); err != nil {
		return "undecodable frame: " + err.Error()
	}
	if !bytes.Equal(mustJSON(ev.Robustness), mustJSON(resp.Robustness)) || ev.Seq != resp.Seq || f.event != "delta" {
		return "frame differs from the update response"
	}
	return ""
}

// selfTest checks the generated inputs before anything is timed: every doc
// passes Validate and Build, fleet-watch updates dirty exactly the features
// of the moved kind (the intended delta.dirty_share), and numeric-repeat's
// sequence hits its intended repeat share.
func selfTest(w *workload, in *inputs) error {
	for id := range in.items {
		it := &in.items[id]
		if it.search != nil {
			if _, _, err := server.ParseSearchRequest(*it.search); err != nil {
				return fmt.Errorf("search input %d: %w", id, err)
			}
			continue
		}
		if err := in.docs[id].Validate(); err != nil {
			return fmt.Errorf("input %d: %w", id, err)
		}
		if _, err := in.docs[id].Build(); err != nil {
			return fmt.Errorf("input %d: %w", id, err)
		}
	}
	switch w.name {
	case "fleet-watch":
		period := len(in.states)
		for u := 0; u < period; u++ {
			got := delta.Classify(in.states[u], in.states[(u+1)%period], "normalized").Dirty
			want := in.dependents[u%watchKinds]
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("update %d dirties %v, want %v", u, got, want)
			}
		}
	case "numeric-repeat":
		// By construction every op re-sends except the fresh ones and each
		// working-set doc's first touch.
		ops := len(in.seq)
		want := 1 - freshShare - float64(workingSet)/float64(ops)
		if got := in.repeatShare(0, ops); math.Abs(got-want) > 0.03 {
			return fmt.Errorf("repeat share %.3f over %d ops, want %.3f±0.03", got, ops, want)
		}
	}
	return nil
}
