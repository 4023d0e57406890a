package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fepia/internal/etc"
	"fepia/internal/scenario"
	"fepia/internal/sched"
)

// POST /v1/search — robustness-aware allocation search as a service: the
// rDLB-style closed loop where the robustness engine drives the allocation
// instead of merely scoring it. One request runs a whole
// annealing/GA search whose generations are scored through the batch
// engine (10⁴–10⁵ radius evaluations per request), so admission costs it
// by the generation in flight, the deadline is enforced between evaluator
// calls, and a deadline mid-search returns the best-so-far as a partial
// result instead of wasting the completed generations. Progress (and the
// partial best, for resuming) is visible in /statz while the search runs.

// SearchRequest is the body of POST /v1/search.
type SearchRequest struct {
	// Instance is the ETC instance as a scenario makespan document
	// ({"version":1,"kind":"makespan","etc":[[...]]}) — the exact format
	// `rank -save` writes. A document-level alloc, if present, is ignored:
	// the search produces the allocation.
	Instance json.RawMessage `json:"instance"`
	// Algo is sched.AlgoAnneal or sched.AlgoGA (default "ga").
	Algo string `json:"algo,omitempty"`
	// Objective is "max-rho" (default) or "min-makespan".
	Objective string `json:"objective,omitempty"`
	// Tau sets the makespan requirement bound = Tau·M(min-min); Bound > 0
	// overrides it with an explicit requirement.
	Tau   float64 `json:"tau,omitempty"`
	Bound float64 `json:"bound,omitempty"`
	// RhoMin is the robustness constraint for objective "min-makespan".
	RhoMin float64 `json:"rhoMin,omitempty"`
	// Seed fixes the search trajectory; equal seeds return bit-identical
	// results on any backend.
	Seed int64 `json:"seed"`

	// Annealing knobs (see sched.SearchOptions).
	Steps         int `json:"steps,omitempty"`
	ProposalBlock int `json:"proposalBlock,omitempty"`
	// GA knobs.
	Population   int     `json:"population,omitempty"`
	Generations  int     `json:"generations,omitempty"`
	MutationRate float64 `json:"mutationRate,omitempty"`

	// Resume seeds the search with a previous (possibly partial) best
	// allocation, e.g. the bestAlloc of a truncated search's /statz row.
	Resume []int `json:"resume,omitempty"`
	// ResumeID resumes a checkpointed search by its id: the stored request
	// supplies the instance and options (every other field of this request
	// except Timeout is ignored) and the search continues from its last
	// completed generation, bit-identical to an uninterrupted run. Requires
	// a server started with a state dir; unknown or corrupt checkpoints are
	// 404 "resume-not-found", a checkpoint that no longer matches its
	// stored options is 409 "resume-mismatch".
	ResumeID string `json:"resumeId,omitempty"`
	// SearchID names the search in /statz (default: the request ID).
	SearchID string `json:"searchId,omitempty"`
	// Timeout bounds the whole search (e.g. "30s"); server limits apply.
	Timeout string `json:"timeout,omitempty"`
}

// SearchBest describes one allocation and its scores under the search bound.
type SearchBest struct {
	Alloc []int `json:"alloc"`
	// Rho is the robustness radius; negative (signed closed form) when the
	// allocation violates the bound.
	Rho      float64 `json:"rho"`
	Makespan float64 `json:"makespan"`
	Feasible bool    `json:"feasible"`
}

// SearchResponse is the body of a successful (or partial) search.
type SearchResponse struct {
	SearchID  string     `json:"searchId"`
	Algo      string     `json:"algo"`
	Objective string     `json:"objective"`
	Bound     float64    `json:"bound"`
	Best      SearchBest `json:"best"`
	// Baseline is the min-min allocation scored under the same bound — the
	// paper's point in one response: how much robustness the search bought
	// over the makespan-greedy mapping.
	Baseline SearchBest `json:"baseline"`
	// Generations completed; Candidates scored; EngineCandidates of those
	// through the engine; RadiusEvals per-feature radius evaluations.
	Generations      int   `json:"generations"`
	Candidates       int   `json:"candidates"`
	EngineCandidates int   `json:"engineCandidates"`
	RadiusEvals      int64 `json:"radiusEvals"`
	// Partial marks a deadline-truncated search: Best is the best of the
	// completed generations (resume via Resume to continue).
	Partial bool `json:"partial,omitempty"`
	// Resumed marks a run continued from a checkpoint; ResumedFrom is the
	// generation (GA) or block (annealing) count it restarted at.
	Resumed     bool    `json:"resumed,omitempty"`
	ResumedFrom int     `json:"resumedFrom,omitempty"`
	RequestID   string  `json:"requestId,omitempty"`
	ElapsedMs   float64 `json:"elapsedMs"`
}

// SearchStatz is one allocation search's row in /statz.
type SearchStatz struct {
	ID           string  `json:"id"`
	Algo         string  `json:"algo"`
	Objective    string  `json:"objective"`
	State        string  `json:"state"` // running | done | partial | failed | resumable
	Generation   int     `json:"generation"`
	Generations  int     `json:"generations"`
	BestRho      float64 `json:"bestRho"`
	BestMakespan float64 `json:"bestMakespan"`
	// BestAlloc is the best allocation so far — what a client passes as
	// resume after a truncation.
	BestAlloc   []int   `json:"bestAlloc,omitempty"`
	Candidates  int     `json:"candidates"`
	RadiusEvals int64   `json:"radiusEvals"`
	ElapsedMs   float64 `json:"elapsedMs"`
}

// SearchTracker is a bounded registry of search progress rows, shared by
// the worker server and the cluster coordinator (both expose it in /statz).
// At capacity the oldest row is evicted; an in-flight search's row is
// updated in place on every progress callback.
//
// Rows outlive the request that wrote them, so the tracker keeps them in
// storage of its own: a ring of row values and one flat slab for their best
// allocations. Rows held through per-request pointers and slices would
// each sit in a different page of that request's garbage and keep the page
// in use after a collection.
type SearchTracker struct {
	mu   sync.Mutex
	cap  int
	rows []SearchStatz // ring of cap rows, allocated on first Update
	head int           // slot of the oldest row
	n    int           // rows held
	// best holds slot i's BestAlloc at best[i*stride:]; stride is the
	// longest BestAlloc seen.
	best   []int
	stride int
}

// NewSearchTracker returns a tracker bounded to capacity rows (minimum 1).
func NewSearchTracker(capacity int) *SearchTracker {
	if capacity < 1 {
		capacity = 1
	}
	return &SearchTracker{cap: capacity}
}

// Update upserts a row by ID.
func (t *SearchTracker) Update(row SearchStatz) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rows == nil {
		t.rows = make([]SearchStatz, t.cap)
	}
	slot := -1
	for k := 0; k < t.n; k++ {
		if i := (t.head + k) % t.cap; t.rows[i].ID == row.ID {
			slot = i
			break
		}
	}
	if slot < 0 {
		if t.n == t.cap {
			slot = t.head
			t.head = (t.head + 1) % t.cap
		} else {
			slot = (t.head + t.n) % t.cap
			t.n++
		}
	}
	if len(row.BestAlloc) > t.stride {
		t.restride(len(row.BestAlloc))
	}
	if row.BestAlloc != nil {
		off := slot * t.stride
		row.BestAlloc = t.best[off : off+copy(t.best[off:off+t.stride], row.BestAlloc)]
	}
	t.rows[slot] = row
}

// restride widens the best-allocation slab to stride entries per slot,
// moving every held row's allocation.
func (t *SearchTracker) restride(stride int) {
	best := make([]int, t.cap*stride)
	for i := range t.rows {
		if a := t.rows[i].BestAlloc; a != nil {
			t.rows[i].BestAlloc = best[i*stride : i*stride+copy(best[i*stride:], a)]
		}
	}
	t.best, t.stride = best, stride
}

// Snapshot returns the rows, oldest first. The rows own their BestAlloc.
func (t *SearchTracker) Snapshot() []SearchStatz {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SearchStatz, 0, t.n)
	for k := 0; k < t.n; k++ {
		row := t.rows[(t.head+k)%t.cap]
		if row.BestAlloc != nil {
			row.BestAlloc = append([]int{}, row.BestAlloc...)
		}
		out = append(out, row)
	}
	return out
}

// ParseSearchRequest validates the request body and resolves it into the
// instance matrix and search options (bound already resolved into
// opt.Bound). Errors are client errors (HTTP 400).
func ParseSearchRequest(req SearchRequest) (*etc.Matrix, sched.SearchOptions, error) {
	var opt sched.SearchOptions
	if len(req.Instance) == 0 {
		return nil, opt, errors.New("missing instance (a scenario makespan document)")
	}
	m, _, err := scenario.LoadMakespan(bytes.NewReader(req.Instance))
	if err != nil {
		return nil, opt, fmt.Errorf("instance: %w", err)
	}
	opt = sched.SearchOptions{
		Algo:          req.Algo,
		Objective:     req.Objective,
		Tau:           req.Tau,
		Bound:         req.Bound,
		RhoMin:        req.RhoMin,
		Seed:          req.Seed,
		Steps:         req.Steps,
		ProposalBlock: req.ProposalBlock,
		Population:    req.Population,
		Generations:   req.Generations,
		MutationRate:  req.MutationRate,
		Resume:        req.Resume,
	}
	bound, err := sched.ResolveBound(m, opt)
	if err != nil {
		return nil, opt, err
	}
	opt.Bound = bound
	return m, opt, nil
}

// ResolveSearchRequest resolves a search request into the instance matrix,
// the search options, and the request to persist in future checkpoints.
// For a fresh request it delegates to ParseSearchRequest and returns id ""
// (the caller picks SearchID or the request id). For a resume request
// (ResumeID set) it loads the checkpoint, re-parses the *stored* request —
// only the new request's Timeout, when set, overrides — and arms
// opt.Checkpoint, so the continued trajectory is bit-identical to an
// uninterrupted run. Returns ErrNoCheckpoint when the id has no loadable
// checkpoint (including cs == nil: no state dir configured).
func ResolveSearchRequest(req SearchRequest, cs *CheckpointStore) (*etc.Matrix, sched.SearchOptions, string, SearchRequest, error) {
	if req.ResumeID == "" {
		persist := req
		persist.ResumeID = ""
		m, opt, err := ParseSearchRequest(req)
		return m, opt, "", persist, err
	}
	if cs == nil {
		return nil, sched.SearchOptions{}, "", req, fmt.Errorf("%w: %q (no state dir configured)", ErrNoCheckpoint, req.ResumeID)
	}
	p, err := cs.Load(req.ResumeID)
	if err != nil {
		return nil, sched.SearchOptions{}, "", req, err
	}
	stored := p.Request
	stored.ResumeID = ""
	if req.Timeout != "" {
		stored.Timeout = req.Timeout
	}
	m, opt, err := ParseSearchRequest(stored)
	if err != nil {
		// The stored request was valid when the checkpoint was written; if
		// it no longer parses, the checkpoint does not match this server.
		return nil, opt, "", stored, fmt.Errorf("%w: stored request: %v", sched.ErrCheckpointMismatch, err)
	}
	state := p.State
	opt.Checkpoint = &state
	return m, opt, req.ResumeID, stored, nil
}

// SearchCost is the admission cost of a search: the generation in flight
// at any moment (the batch the engine actually holds), costed like a batch
// of per-machine analytic features. The whole search is far more work, but
// admission protects instantaneous memory/CPU, and a search between
// generations holds nothing. Exported for the cluster coordinator, which
// admits searches with the same pricing.
func SearchCost(m *etc.Matrix, opt sched.SearchOptions) int64 {
	gen := opt.Population
	if opt.Algo == sched.AlgoAnneal {
		gen = opt.ProposalBlock
		if gen <= 0 {
			gen = 16
		}
	} else if gen <= 0 {
		gen = 40
	}
	cost := int64(gen) * int64(m.Machines) * costAnalyticFeature
	if cost < 1 {
		cost = 1
	}
	return cost
}

// ExecuteSearch runs the search with progress mirrored into the tracker and
// assembles the response. On a context error after ≥ 1 completed
// generation it returns the partial response and no error; earlier or
// non-context failures return the error (the partial response too when one
// exists, for the tracker's benefit).
//
// When cs is non-nil, every completed generation's checkpoint is persisted
// under id together with persist (the request future resumes re-parse), and
// a search that finishes cleanly deletes its checkpoint; a partial or
// failed one keeps it, resumable via ResumeID. Checkpoint saves are
// best-effort — a failed save is counted in the store's stats and costs
// resumability from that generation, never the search.
func ExecuteSearch(ctx context.Context, m *etc.Matrix, opt sched.SearchOptions, ev sched.Evaluator, tracker *SearchTracker, id, rid string, cs *CheckpointStore, persist SearchRequest) (*SearchResponse, error) {
	start := time.Now()
	resumedFrom, resumed := 0, false
	if opt.Checkpoint != nil {
		resumed, resumedFrom = true, opt.Checkpoint.Generation
	}
	if cs != nil && id != "" {
		prev := opt.OnCheckpoint
		opt.OnCheckpoint = func(cp *sched.Checkpoint) {
			_ = cs.Save(id, CheckpointPayload{Request: persist, State: *cp})
			if prev != nil {
				prev(cp)
			}
		}
	}
	algo := opt.Algo
	if algo == "" {
		algo = sched.AlgoGA
	}
	obj := opt.Objective
	if obj == "" {
		obj = sched.ObjectiveMaxRho
	}
	row := func(state string, p sched.Progress) SearchStatz {
		return SearchStatz{
			ID: id, Algo: algo, Objective: obj, State: state,
			Generation: p.Generation, Generations: p.Generations,
			BestRho: p.BestRho, BestMakespan: p.BestMakespan,
			BestAlloc: p.Best, Candidates: p.Candidates, RadiusEvals: p.RadiusEvals,
			ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		}
	}
	var progress func(sched.Progress)
	if tracker != nil {
		tracker.Update(SearchStatz{ID: id, Algo: algo, Objective: obj, State: "running"})
		progress = func(p sched.Progress) { tracker.Update(row("running", p)) }
	}
	res, err := sched.Search(ctx, m, ev, opt, progress)
	finalProgress := func(r *sched.SearchResult) sched.Progress {
		return sched.Progress{
			Generation: r.Generations, Generations: r.Generations,
			Best: r.Best, BestRho: r.BestRho, BestMakespan: r.BestMakespan,
			Candidates: r.Candidates, RadiusEvals: r.RadiusEvals,
		}
	}
	if err != nil && (res == nil || !res.Partial || res.Generations == 0 ||
		!(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))) {
		if tracker != nil {
			state := SearchStatz{ID: id, Algo: algo, Objective: obj, State: "failed",
				ElapsedMs: float64(time.Since(start).Microseconds()) / 1000}
			if res != nil {
				state = row("failed", finalProgress(res))
			}
			tracker.Update(state)
		}
		return nil, err
	}
	state := "done"
	if res.Partial {
		state = "partial"
	} else if cs != nil && id != "" {
		// A finished search needs no resume; a partial one keeps its
		// checkpoint so ResumeID can continue it after a restart too.
		cs.Delete(id)
	}
	if tracker != nil {
		tracker.Update(row(state, finalProgress(res)))
	}
	// Score the min-min baseline under the same bound with the same fast
	// path the search used for feasibility (bit-identical to the engine on
	// feasible allocations).
	out := &SearchResponse{
		SearchID:  id,
		Algo:      algo,
		Objective: obj,
		Bound:     res.Bound,
		Best: SearchBest{
			Alloc: res.Best, Rho: res.BestRho,
			Makespan: res.BestMakespan, Feasible: res.BestFeasible,
		},
		Generations:      res.Generations,
		Candidates:       res.Candidates,
		EngineCandidates: res.EngineCandidates,
		RadiusEvals:      res.RadiusEvals,
		Partial:          res.Partial,
		Resumed:          resumed,
		ResumedFrom:      resumedFrom,
		RequestID:        rid,
		ElapsedMs:        float64(time.Since(start).Microseconds()) / 1000,
	}
	if mm, mmErr := sched.MinMin(m); mmErr == nil {
		rho := sched.ClosedFormScore(m, mm, res.Bound)
		ms := 0.0
		loads := make([]float64, m.Machines)
		for t, j := range mm {
			loads[j] += m.At(t, j)
		}
		for _, l := range loads {
			if l > ms {
				ms = l
			}
		}
		out.Baseline = SearchBest{Alloc: mm, Rho: rho, Makespan: ms, Feasible: rho >= 0}
	}
	return out, nil
}

// SearchBadRequest reports whether the error is a client error (bad search
// options rather than an evaluation failure).
func SearchBadRequest(err error) bool {
	return errors.Is(err, sched.ErrBadTau) ||
		errors.Is(err, sched.ErrBadMutationRate) ||
		errors.Is(err, sched.ErrBadSearch)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	rid := RequestIDFrom(r.Context())
	var req SearchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.badRequest(w, r, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, opt, id, persist, err := ResolveSearchRequest(req, s.ckpts)
	if err != nil {
		if status, kind, ok := ResumeFailure(err); ok {
			writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind, RequestID: rid})
			return
		}
		s.badRequest(w, r, err)
		return
	}
	timeout, err := s.requestTimeout(persist.Timeout)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	ctx, finish, ok := s.admit(w, r, SearchCost(m, opt), timeout)
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
	ev := &sched.EngineEvaluator{M: m, Bound: opt.Bound, Workers: s.cfg.MaxConcurrent}
	res, err := ExecuteSearch(ctx, m, opt, ev, s.searches, id, rid, s.ckpts, persist)
	if err != nil {
		if status, kind, ok := ResumeFailure(err); ok {
			writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind, RequestID: rid})
			return
		}
		if SearchBadRequest(err) {
			s.badRequest(w, r, err)
			return
		}
		s.writeEvalError(w, r, err)
		return
	}
	s.stats.completedOK.Add(1)
	writeJSON(w, http.StatusOK, res)
}

// ResumeFailure maps checkpoint-resume errors to their HTTP status and
// error kind: a missing/corrupt checkpoint is 404 "resume-not-found", a
// checkpoint that does not match its search is 409 "resume-mismatch".
// Shared with the cluster coordinator's /v1/search handler.
func ResumeFailure(err error) (status int, kind string, ok bool) {
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		return http.StatusNotFound, "resume-not-found", true
	case errors.Is(err, sched.ErrCheckpointMismatch):
		return http.StatusConflict, "resume-mismatch", true
	}
	return 0, "", false
}
