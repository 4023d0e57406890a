package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"fepia/internal/etc"
	"fepia/internal/scenario"
	"fepia/internal/server"
	"fepia/internal/stats"
)

// Seeded input generators, one per workload. Every generator is a pure
// function of the seed: the same seed gives byte-identical request bodies.
// Bounds are always set as a factor τ > 1 times the feature's value at
// π^orig (computed here from the rounded document values), so no generated
// scenario already violates its bounds at the origin.

// input is one distinct request the benchmark can send: its endpoint, its
// pre-encoded body, and (search) the request the verifier re-runs.
type input struct {
	path   string
	body   []byte
	search *server.SearchRequest
}

// inputs is a workload's generated traffic: the distinct inputs and the
// order in which closed-loop clients take them (op k sends
// items[seq[k%len(seq)]]).
type inputs struct {
	items []input
	seq   []int32
	// docs[i] is the scenario items[i] evaluates, until releaseDocs: a
	// pool of parsed docs would only add to the live heap that paces the
	// servers' garbage collector. doc decodes it again when needed.
	docs []scenario.AnalysisDoc

	// fleet-watch only: the watch's document before update 0 (states[0])
	// and after each update u (states[(u+1)%period]), and the features each
	// kind's move dirties.
	states     []scenario.AnalysisDoc
	dependents [][]int
}

func (in *inputs) add(it input, doc scenario.AnalysisDoc) int {
	in.items = append(in.items, it)
	in.docs = append(in.docs, doc)
	return len(in.items) - 1
}

// doc returns the scenario input id evaluates.
func (in *inputs) doc(id int) (scenario.AnalysisDoc, error) {
	switch {
	case in.docs != nil:
		return in.docs[id], nil
	case in.states != nil:
		return in.states[(id+1)%len(in.states)], nil
	}
	var req struct {
		Scenario scenario.AnalysisDoc `json:"scenario"`
	}
	err := json.Unmarshal(in.items[id].body, &req)
	return req.Scenario, err
}

// releaseDocs drops the parsed docs and moves every request body into a,
// outside the Go heap.
func (in *inputs) releaseDocs(a *arena) error {
	in.docs = nil
	for i := range in.items {
		b, err := a.add(in.items[i].body)
		if err != nil {
			return err
		}
		in.items[i].body = b
	}
	return nil
}

// watchID names the benchmark's watch on the coordinator.
const watchID = "perfbench"

// q rounds to three decimals: shorter bodies, exact decimal round-trip.
func q(x float64) float64 { return math.Round(x*1000) / 1000 }

// uniform draws from [lo, hi), rounded.
func uniform(r *rand.Rand, lo, hi float64) float64 { return q(lo + (hi-lo)*r.Float64()) }

// maxBound is τ·φ0 rounded up to three decimals, so it stays strictly above
// φ0 after rounding.
func maxBound(r *rand.Rand, phi0, tauLo, tauHi float64) *float64 {
	tau := tauLo + (tauHi-tauLo)*r.Float64()
	b := math.Ceil(tau*phi0*1000) / 1000
	return &b
}

func origins(r *rand.Rand, dims []int) []scenario.AnalysisParam {
	ps := make([]scenario.AnalysisParam, len(dims))
	for j, d := range dims {
		orig := make([]float64, d)
		for e := range orig {
			orig[e] = uniform(r, 0.5, 2)
		}
		ps[j] = scenario.AnalysisParam{Name: fmt.Sprintf("p%d", j), Orig: orig}
	}
	return ps
}

// block draws one [param][elem] block; dep[j] false gives an all-zero block
// on parameter j (the feature does not depend on it).
func block(r *rand.Rand, ps []scenario.AnalysisParam, dep []bool, lo, hi float64) [][]float64 {
	out := make([][]float64, len(ps))
	for j, p := range ps {
		out[j] = make([]float64, len(p.Orig))
		if dep != nil && !dep[j] {
			continue
		}
		for e := range out[j] {
			out[j][e] = uniform(r, lo, hi)
		}
	}
	return out
}

func linearFeature(r *rand.Rand, name string, ps []scenario.AnalysisParam, dep []bool) scenario.AnalysisFeature {
	f := scenario.AnalysisFeature{Name: name, Impact: scenario.ImpactLinear,
		Coeffs: block(r, ps, dep, 0.1, 2), Const: uniform(r, 0, 5)}
	phi0 := f.Const
	for j, p := range ps {
		for e, x := range p.Orig {
			phi0 += f.Coeffs[j][e] * x
		}
	}
	f.Max = maxBound(r, phi0, 1.3, 3)
	return f
}

// quadraticFeature keeps every center off its origin. A center equal to
// the origin on the largest-curvature element makes the closed-form tier
// (geom.AxisEllipsoid.Nearest's multiplier bracket) loop forever; that is a
// defect of the program, recorded in CHANGES.md, and the workload measures
// serving, not a hung request.
func quadraticFeature(r *rand.Rand, name string, ps []scenario.AnalysisParam) scenario.AnalysisFeature {
	f := scenario.AnalysisFeature{Name: name, Impact: scenario.ImpactQuadratic,
		Curv: block(r, ps, nil, 0.05, 1), Const: uniform(r, 1, 5)}
	f.Center = make([][]float64, len(ps))
	phi0 := f.Const
	for j, p := range ps {
		f.Center[j] = make([]float64, len(p.Orig))
		for e, x := range p.Orig {
			off := uniform(r, 0.05, 0.5)
			if r.Intn(2) == 0 {
				off = -off
			}
			f.Center[j][e] = q(x + off)
			d := x - f.Center[j][e]
			phi0 += f.Curv[j][e] * d * d
		}
	}
	f.Max = maxBound(r, phi0, 1.3, 3)
	return f
}

func multiplicativeFeature(r *rand.Rand, name string, ps []scenario.AnalysisParam, dep []bool, tauLo float64) scenario.AnalysisFeature {
	f := scenario.AnalysisFeature{Name: name, Impact: scenario.ImpactMultiplicative,
		Scale: uniform(r, 0.5, 2), Pows: block(r, ps, dep, 0.3, 1.2)}
	phi0 := f.Scale
	for j, p := range ps {
		for e, x := range p.Orig {
			phi0 *= math.Pow(math.Abs(x), f.Pows[j][e])
		}
	}
	f.Max = maxBound(r, phi0, tauLo, tauLo+1)
	return f
}

func queueingFeature(r *rand.Rand, name string, ps []scenario.AnalysisParam, dep []bool, tauLo float64) scenario.AnalysisFeature {
	f := scenario.AnalysisFeature{Name: name, Impact: scenario.ImpactQueueing,
		Wgts: block(r, ps, dep, 0.5, 2), Eps: 1e-6}
	f.Caps = make([][]float64, len(ps))
	phi0 := 0.0
	for j, p := range ps {
		f.Caps[j] = make([]float64, len(p.Orig))
		for e, x := range p.Orig {
			f.Caps[j][e] = q(x*1.1 + uniform(r, 2, 6))
			phi0 += f.Wgts[j][e] / (f.Caps[j][e] - x)
		}
	}
	f.Max = maxBound(r, phi0, tauLo, tauLo+1)
	return f
}

// analyticDoc: 1–3 params of 2–64 elements, 1–3 linear or quadratic
// features — closed-form tiers only.
func analyticDoc(r *rand.Rand) scenario.AnalysisDoc {
	dims := make([]int, 1+r.Intn(3))
	for j := range dims {
		dims[j] = 2 + r.Intn(63)
	}
	ps := origins(r, dims)
	doc := scenario.AnalysisDoc{Params: ps}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		if r.Intn(2) == 0 {
			doc.Features = append(doc.Features, linearFeature(r, name, ps, nil))
		} else {
			doc.Features = append(doc.Features, quadraticFeature(r, name, ps))
		}
	}
	return doc
}

// numericDoc is E18-shaped: 2–3 params of 2–3 elements, 2–6
// multiplicative or queueing features plus 1–2 linear ones. The shape is
// picked by index, cycling through all 40 combinations, and the numeric
// families alternate, so every seed serves the same mix of shapes and only
// the values are drawn: run-to-run spread then reflects the system, not
// which shapes a seed happened to draw.
func numericDoc(r *rand.Rand, shape int) scenario.AnalysisDoc {
	dims := make([]int, 2+shape%2)
	for j := range dims {
		dims[j] = 2 + (shape/2)%2
	}
	ps := origins(r, dims)
	doc := scenario.AnalysisDoc{Params: ps}
	for i, n := 0, 2+(shape/4)%5; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		if i%2 == 0 {
			doc.Features = append(doc.Features, multiplicativeFeature(r, name, ps, nil, 1.3))
		} else {
			doc.Features = append(doc.Features, queueingFeature(r, name, ps, nil, 1.3))
		}
	}
	for i, n := 0, 1+(shape/20)%2; i < n; i++ {
		doc.Features = append(doc.Features, linearFeature(r, fmt.Sprintf("l%d", i), ps, nil))
	}
	return doc
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// genAnalytic: n unique closed-form docs, 80% /v1/robustness and 20%
// /v1/radius, sent once each in order.
func genAnalytic(seed int64, n int) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for k := 0; k < n; k++ {
		doc := analyticDoc(r)
		it := input{path: "/v1/robustness"}
		if r.Intn(5) == 0 {
			it.path = "/v1/radius"
			it.body = mustJSON(server.RadiusRequest{Scenario: doc})
		} else {
			it.body = mustJSON(server.EvalRequest{Scenario: doc})
		}
		in.seq = append(in.seq, int32(in.add(it, doc)))
	}
	return in
}

// Numeric-repeat traffic shape: each op re-sends a working-set doc, drawn
// Zipf-skewed (P(k) ∝ (zipfV+k)^-zipfS: the hottest doc draws ~3.5% of
// the repeats, 14 times the coldest), except for a freshShare of ops that send
// a never-seen doc. The offset zipfV keeps any one doc's cost from setting
// a run's numbers.
const (
	workingSet = 128
	freshShare = 0.2
	zipfS      = 1.2
	zipfV      = 16
)

// genNumeric: ops E18-shaped /v1/robustness requests with skewed repeats.
func genNumeric(seed int64, ops int) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	add := func() int32 {
		doc := numericDoc(r, len(in.items))
		return int32(in.add(input{path: "/v1/robustness", body: mustJSON(server.EvalRequest{Scenario: doc})}, doc))
	}
	for k := 0; k < workingSet; k++ {
		add()
	}
	zipf := rand.NewZipf(r, zipfS, zipfV, workingSet-1)
	in.seq = make([]int32, ops)
	for k := range in.seq {
		if r.Float64() < freshShare {
			in.seq[k] = add()
		} else {
			in.seq[k] = int32(zipf.Uint64())
		}
	}
	return in
}

// Fleet-watch shape: E20-like, watchKinds one-element parameter kinds and
// watchFeatures features, each depending on 1–2 kinds through zero
// blocks elsewhere; half of them are numeric. Each update moves one kind
// (rotating) to the next of watchSteps origin multipliers, so the doc
// sequence is periodic with period watchKinds·len(watchSteps).
const (
	watchKinds    = 8
	watchFeatures = 32
)

var watchSteps = []float64{1, 1.03, 0.98, 1.05}

func genWatch(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	dims := make([]int, watchKinds)
	for j := range dims {
		dims[j] = 1
	}
	ps := origins(r, dims)
	doc := scenario.AnalysisDoc{Params: ps}
	in := &inputs{dependents: make([][]int, watchKinds)}
	for i := 0; i < watchFeatures; i++ {
		// Feature i depends on kind i%watchKinds; the second half of the
		// features is numeric and depends on that kind alone, so each move
		// re-searches exactly two numeric features. Half the linear features
		// depend on a second kind too.
		numeric := i >= watchFeatures/2
		dep := make([]bool, watchKinds)
		dep[i%watchKinds] = true
		if !numeric && r.Intn(2) == 0 {
			dep[(i%watchKinds+1+r.Intn(watchKinds-1))%watchKinds] = true
		}
		for j, d := range dep {
			if d {
				in.dependents[j] = append(in.dependents[j], i)
			}
		}
		name := fmt.Sprintf("w%d", i)
		var f scenario.AnalysisFeature
		switch {
		case !numeric:
			f = linearFeature(r, name, ps, dep)
		case i%2 == 0:
			f = multiplicativeFeature(r, name, ps, dep, 1.6)
		default:
			f = queueingFeature(r, name, ps, dep, 1.6)
		}
		doc.Features = append(doc.Features, f)
	}

	period := watchKinds * len(watchSteps)
	step := make([]int, watchKinds)
	in.states = make([]scenario.AnalysisDoc, period)
	in.states[0] = doc
	for u := 0; u < period; u++ {
		k := u % watchKinds
		step[k] = (step[k] + 1) % len(watchSteps)
		origs := make([][]float64, watchKinds)
		for j, p := range ps {
			origs[j] = make([]float64, len(p.Orig))
			for e, x := range p.Orig {
				origs[j][e] = q(x * watchSteps[step[j]])
			}
		}
		next := doc
		next.Params = make([]scenario.AnalysisParam, len(ps))
		for j, p := range ps {
			next.Params[j] = scenario.AnalysisParam{Name: p.Name, Orig: origs[j]}
		}
		in.states[(u+1)%period] = next
		in.add(input{path: "/v1/watch/update", body: mustJSON(server.WatchUpdateRequest{Watch: watchID, Params: origs})}, next)
		in.seq = append(in.seq, int32(u))
	}
	return in
}

// Fleet-search shape: E19-like CVB instances, small fixed-seed GA searches.
const (
	searchInstances = 128
	searchSeeds     = 2
	searchTasks     = 16
	searchMachines  = 4
	searchTau       = 1.4
	searchPop       = 8
	searchGens      = 3
)

func genSearch(seed int64) *inputs {
	in := &inputs{}
	for i := 0; i < searchInstances; i++ {
		m, err := etc.CVB(etc.CVBParams{Tasks: searchTasks, Machines: searchMachines, MeanTask: 10, TaskCV: 0.4, MachineCV: 0.4},
			stats.Named(seed, fmt.Sprintf("perfbench-search-%d", i)))
		if err != nil {
			panic(err)
		}
		var inst bytes.Buffer
		if err := scenario.SaveMakespan(&inst, m, nil); err != nil {
			panic(err)
		}
		for s := 0; s < searchSeeds; s++ {
			// Every search gets its own GA seed: searches sharing a random
			// stream would share their feasible share too, and one seed's
			// run would not average over independent searches.
			req := server.SearchRequest{Instance: json.RawMessage(inst.Bytes()), Algo: "ga", Tau: searchTau,
				Seed: seed*1000 + int64(i*searchSeeds+s), Population: searchPop, Generations: searchGens}
			in.add(input{path: "/v1/search", body: mustJSON(req), search: &req}, scenario.AnalysisDoc{})
		}
	}
	// Interleave instances so consecutive ops hit different instances.
	for s := 0; s < searchSeeds; s++ {
		for i := 0; i < searchInstances; i++ {
			in.seq = append(in.seq, int32(i*searchSeeds+s))
		}
	}
	return in
}

// repeatShare is the share of ops [from, to) that re-send an input an
// earlier op of the run (op 0 onwards) already sent.
func (in *inputs) repeatShare(from, to int) float64 {
	if to <= from {
		return 0
	}
	seen := make(map[int32]bool)
	rep := 0
	for k := 0; k < to; k++ {
		id := in.seq[k%len(in.seq)]
		if seen[id] && k >= from {
			rep++
		}
		seen[id] = true
	}
	return float64(rep) / float64(to-from)
}
