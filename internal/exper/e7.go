package exper

import (
	"fmt"
	"math"
	"sort"

	"fepia/internal/makespan"
	"fepia/internal/report"
	"fepia/internal/sched"
	"fepia/internal/stats"
	"fepia/internal/workload"
)

// RunE7 puts the metric to its intended use: ranking resource allocations.
// Ten mapping heuristics run on randomized ETC instances, and every
// allocation is scored two ways:
//
//   - rho-own: the FePIA closed form against the allocation's OWN
//     requirement τ·M^orig — "this deployment promises τ× its estimate; how
//     much execution-time perturbation can it absorb?" This is the ranking
//     question of the TPDS 2004 evaluation, and it disagrees with the
//     makespan ranking: balanced-but-slower allocations (e.g. max-min)
//     tolerate more than tightly packed minimum-makespan ones.
//   - rho-common: the same closed form against a SHARED per-instance bound
//     τ·M(min-min) — "all allocations must meet one fixed QoS contract" —
//     under which robustness is dominated by slack to the common bound.
//
// The contrast between the two columns is itself the finding: which mapping
// is "most robust" depends on whose requirement you hold fixed, and neither
// ranking is the makespan ranking.
func RunE7(cfg Config) (*Result, error) {
	res := &Result{ID: "E7", Title: "Heuristic ranking: makespan vs robustness"}
	const tau = 1.3
	instances := cfg.size(30, 5)

	// reg names the heuristics; each instance runs its own lineup below, so
	// the random heuristic draws from a per-instance stream instead of one
	// stream shared (and raced on) by the parallel instances.
	reg := sched.Registry(tau, stats.Named(cfg.Seed, "e7-random-heuristic"))
	type agg struct {
		ms, rhoOwn, rhoCommon []float64
	}
	aggs := make([]agg, len(reg))
	for i := range aggs {
		aggs[i] = agg{
			ms:        make([]float64, instances),
			rhoOwn:    make([]float64, instances),
			rhoCommon: make([]float64, instances),
		}
	}
	errs := make([]error, instances)
	parallelFor(instances, func(inst int) {
		src := stats.Named(cfg.Seed, fmt.Sprintf("e7-inst-%d", inst))
		m, err := workload.Makespan(workload.DefaultMakespan(), src)
		if err != nil {
			errs[inst] = err
			return
		}
		mmAlloc, err := sched.MinMin(m)
		if err != nil {
			errs[inst] = err
			return
		}
		mmSys, err := makespan.New(m, mmAlloc)
		if err != nil {
			errs[inst] = err
			return
		}
		commonBound := tau * mmSys.OrigMakespan()
		lineup := sched.Registry(tau, stats.Named(cfg.Seed, fmt.Sprintf("e7-random-heuristic-%d", inst)))
		for hi, h := range lineup {
			alloc, err := h.Fn(m)
			if err != nil {
				errs[inst] = err
				return
			}
			s, err := makespan.New(m, alloc)
			if err != nil {
				errs[inst] = err
				return
			}
			_, rhoOwn, err := s.ClosedFormRadii(tau)
			if err != nil {
				errs[inst] = err
				return
			}
			_, rhoCommon, err := s.RadiiWithBound(commonBound)
			if err != nil {
				errs[inst] = err
				return
			}
			aggs[hi].ms[inst] = s.OrigMakespan()
			aggs[hi].rhoOwn[inst] = rhoOwn
			aggs[hi].rhoCommon[inst] = rhoCommon
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rows := make([]e7Row, len(reg))
	for hi, h := range reg {
		rows[hi] = e7Row{
			name:    h.Name,
			meanMS:  stats.Mean(aggs[hi].ms),
			meanOwn: stats.Mean(aggs[hi].rhoOwn),
			meanCom: stats.Mean(aggs[hi].rhoCommon),
		}
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rows[order[a]].meanMS < rows[order[b]].meanMS })
	rankByOwn := rankOf(rows, func(r e7Row) float64 { return r.meanOwn })

	tb := report.NewTable(fmt.Sprintf("E7: %d heuristics x %d CVB instances (tau=%.2f), sorted by makespan",
		len(reg), instances, tau),
		"heuristic", "mean makespan", "mean rho (own req.)", "mean rho (common req.)", "rank by ms", "rank by rho-own")
	for rank, hi := range order {
		r := rows[hi]
		tb.AddRow(r.name, r.meanMS, r.meanOwn, r.meanCom, rank+1, rankByOwn[hi])
	}
	res.Tables = append(res.Tables, tb)

	byName := map[string]e7Row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	minMS, bestMSName := math.Inf(1), ""
	for _, r := range rows {
		if r.meanMS < minMS {
			minMS, bestMSName = r.meanMS, r.name
		}
	}
	res.check("min-min family wins on makespan",
		bestMSName == "min-min" || bestMSName == "sufferage" || bestMSName == "MCT" || bestMSName == "hillclimb-robust",
		"best makespan: %s (%.4g)", bestMSName, minMS)

	// The headline disagreement: under own requirements, the makespan
	// ranking and the robustness ranking differ.
	rankingsDiffer := false
	for pos, hi := range order {
		if rankByOwn[hi] != pos+1 {
			rankingsDiffer = true
			break
		}
	}
	res.check("own-requirement robustness ranking disagrees with makespan ranking",
		rankingsDiffer, "a makespan-optimal mapper does not maximize tolerance to its own promise")

	res.check("hillclimb-robust matches or beats min-min under the common requirement",
		byName["hillclimb-robust"].meanCom >= byName["min-min"].meanCom-1e-12,
		"hillclimb %.4g vs min-min %.4g", byName["hillclimb-robust"].meanCom, byName["min-min"].meanCom)
	res.check("structured heuristics beat random on makespan",
		byName["min-min"].meanMS < byName["random"].meanMS,
		"min-min %.4g vs random %.4g", byName["min-min"].meanMS, byName["random"].meanMS)

	// Quantify the disagreement: Spearman correlation between makespan and
	// rho-own across heuristics (negative or low = the rankings diverge).
	msVals := make([]float64, len(rows))
	ownVals := make([]float64, len(rows))
	for i, r := range rows {
		msVals[i] = r.meanMS
		ownVals[i] = r.meanOwn
	}
	res.note("Spearman rank correlation (makespan vs rho-own): %.3f — the orderings are far from aligned.",
		stats.SpearmanRank(msVals, ownVals))
	res.note("rho-own ranks balanced allocations (max-min, even round-robin) above tightly packed minimum-makespan ones: their own bound sits proportionally higher and the load is spread over machines. rho-common inverts this: with one fixed contract, slack to the bound dominates. Both orderings differ from the makespan ordering — the metric adds information a makespan-only resource manager lacks.")
	return res, nil
}

// e7Row aggregates one heuristic's scores across instances.
type e7Row struct {
	name                     string
	meanMS, meanOwn, meanCom float64
}

// rankOf returns 1-based descending ranks of rows under key.
func rankOf(rows []e7Row, key func(e7Row) float64) []int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) > key(rows[idx[b]]) })
	ranks := make([]int, len(rows))
	for pos, hi := range idx {
		ranks[hi] = pos + 1
	}
	return ranks
}
