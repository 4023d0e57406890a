package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fepia/internal/geom"
	"fepia/internal/optimize"
	"fepia/internal/vec"
)

// CombinedRadius computes r_μ(φ_i, P) — Eq. 2 of the paper: the smallest
// Euclidean distance in the combined dimensionless P-space from P^orig to a
// point where φ_i meets β^min or β^max, with *all* perturbation parameters
// free to move simultaneously.
//
// Because both weightings are diagonal, a linear impact function stays
// linear in P-space and the radius is an exact hyperplane distance (the
// closed forms of Sections 3.1 and 3.2). Nonlinear impacts fall back to the
// numeric level-set search in P-space.
func (a *Analysis) CombinedRadius(i int, w Weighting) (Radius, error) {
	return a.CombinedRadiusCtx(context.Background(), i, w)
}

// CombinedRadiusCtx is CombinedRadius with cooperative cancellation: ctx is
// checked before every impact-function evaluation of the numeric tier.
// Panics and non-finite values from the impact function are contained as
// *ImpactPanicError / *NumericError.
func (a *Analysis) CombinedRadiusCtx(ctx context.Context, i int, w Weighting) (Radius, error) {
	return a.CombinedRadiusWith(ctx, i, w, EvalOptions{})
}

// CombinedRadiusWith is CombinedRadiusCtx with per-search evaluation
// options: opt.MaxEvals bounds the numeric searches and opt.KProbe selects
// the vectorized k-probe path for features that declare ImpactK. Other
// EvalOptions fields (Workers, degradation) concern whole-analysis
// evaluations and are ignored here.
func (a *Analysis) CombinedRadiusWith(ctx context.Context, i int, w Weighting, opt EvalOptions) (Radius, error) {
	if i < 0 || i >= len(a.Features) {
		return Radius{}, fmt.Errorf("%w: feature %d of %d", ErrBadIndex, i, len(a.Features))
	}
	if err := ctxErr(ctx); err != nil {
		return Radius{}, err
	}
	d, err := a.scalesFor(w, i)
	if err != nil {
		return Radius{}, err
	}
	pOrig, err := POrig(a, w, i)
	if err != nil {
		return Radius{}, err
	}
	f := a.Features[i]
	if f.Linear != nil {
		return a.combinedLinear(i, d, pOrig)
	}
	if f.Quad != nil {
		return a.combinedQuad(i, d, pOrig)
	}
	return a.combinedNumeric(ctx, i, d, pOrig, opt)
}

// combinedLinear: in P-space, φ = Const + Σ (k_e / d_e)·P_e over flattened
// elements e — a hyperplane per bound.
func (a *Analysis) combinedLinear(i int, d, pOrig vec.V) (Radius, error) {
	f := a.Features[i]
	kFlat := concat(f.Linear.Coeffs)
	kP := make(vec.V, len(kFlat))
	for e := range kFlat {
		if d[e] == 0 {
			return Radius{}, fmt.Errorf("%w: zero scale for element %d", ErrDegenerateWeighting, e)
		}
		kP[e] = kFlat[e] / d[e]
	}
	best := Radius{Value: math.Inf(1), Side: SideNone, Feature: i, Param: -1, Analytic: true}
	for _, side := range []struct {
		beta float64
		side BoundarySide
	}{{f.Bounds.Max, SideMax}, {f.Bounds.Min, SideMin}} {
		if math.IsInf(side.beta, 0) {
			continue
		}
		h := geom.Hyperplane{K: kP, B: side.beta - f.Linear.Const}
		pt, dist, err := h.Nearest(pOrig)
		if err != nil {
			if errors.Is(err, geom.ErrDegenerate) {
				continue
			}
			return Radius{}, fmt.Errorf("core: combined radius of %q: %w", f.Name, err)
		}
		if dist < best.Value {
			best.Value, best.Point, best.Side = dist, pt, side.side
		}
	}
	return best, nil
}

// combinedNumeric runs the level-set search over P-space, one boundary
// side at a time (the batch engine dispatches the same per-side units
// independently across its worker pool — see batch.go).
func (a *Analysis) combinedNumeric(ctx context.Context, i int, d, pOrig vec.V, eo EvalOptions) (Radius, error) {
	f := a.Features[i]
	best := Radius{Value: math.Inf(1), Side: SideNone, Feature: i, Param: -1}
	for _, side := range []struct {
		beta float64
		side BoundarySide
	}{{f.Bounds.Max, SideMax}, {f.Bounds.Min, SideMin}} {
		if math.IsInf(side.beta, 0) {
			continue
		}
		r, err := a.combinedNumericSide(ctx, i, d, pOrig, side.beta, side.side, eo)
		if err != nil {
			return Radius{}, err
		}
		if r.Value < best.Value {
			best = r
		}
	}
	return best, nil
}

// combinedNumericSide searches the single boundary {φ_i = beta} for the
// nearest P-space point. The impact is evaluated at native values recovered
// via the inverse scaling, through the panic/NaN guard of failure.go and —
// when enabled — the impact cache. Scratch vectors (the native point and
// its per-parameter views) are allocated once per search, not per
// evaluation, and the native buffer itself comes from the shared pool.
//
// eo.MaxEvals bounds the search; eo.KProbe attaches the batched k-probe
// objective when the feature declares ImpactK; and with EnableWarmStart the
// feature's warm state is checked out of its atomic slot for the duration
// of the search (both boundary sides share one side-independent state —
// the WarmState keys its records per level).
func (a *Analysis) combinedNumericSide(ctx context.Context, i int, d, pOrig vec.V, beta float64, side BoundarySide, eo EvalOptions) (Radius, error) {
	f := a.Features[i]
	g := &guard{feature: i, param: -1, op: "combined radius"}
	impact := g.wrap(f.impact())
	native := vec.GetScratch(len(d))
	defer vec.PutScratch(native)
	vals := vec.Views(nil, native, a.Dims()...)
	cache := a.cache
	var key *cacheKey
	if cache != nil {
		key = newCacheKey(len(d))
	}
	inP := func(x []float64) float64 {
		vec.DivInto(native, vec.V(x), d)
		if cache != nil {
			key.set(i, native)
			if v, ok := cache.get(key); ok {
				return v
			}
		}
		v := impact(vals)
		if cache != nil {
			cache.put(key, v) // refuses NaN/Inf: faults are never cached
		}
		return v
	}
	opts := a.searchOpts(ctx)
	if eo.MaxEvals > 0 {
		opts.MaxEvals = eo.MaxEvals
	}
	if eo.KProbe > 0 && f.ImpactK != nil {
		opts.FK = a.impactFK(g, i, d, 0, nil)
		opts.KBlock = eo.KProbe
		opts.KBlockMax = eo.kprobeMax()
	}
	if a.warm != nil {
		key := warmKey{feat: i, param: -1}
		opts.Warm = a.warm.checkout(key, warmIdent(pOrig, d))
		defer a.warm.publish(key, opts.Warm)
	}
	res, err := optimize.NearestOnLevelSet(inP, beta, pOrig, opts)
	if err != nil && errors.Is(err, optimize.ErrNoBoundary) {
		err = nil // unreachable bound: not a failure
		res.Dist = math.Inf(1)
	}
	if err = g.err(err); err != nil {
		return Radius{}, fmt.Errorf("core: combined radius of %q: %w", f.Name, err)
	}
	r := Radius{Value: res.Dist, Side: SideNone, Feature: i, Param: -1}
	if !math.IsInf(res.Dist, 1) {
		r.Point, r.Side = vec.V(res.Point), side
	}
	return r, nil
}

// Robustness is the system-level result ρ_μ(Φ, P) = min_i r_μ(φ_i, P),
// together with the per-feature breakdown.
type Robustness struct {
	// Value is ρ_μ(Φ, P).
	Value float64
	// Critical is the index of the feature attaining the minimum (−1 when
	// every radius is infinite).
	Critical int
	// PerFeature holds each feature's combined radius.
	PerFeature []Radius
	// Weighting names the scheme that produced the P-space.
	Weighting string
	// Degraded reports that at least one per-feature radius could not be
	// produced by the exact/numeric tiers and was estimated by the
	// Monte-Carlo lower-bound fallback instead (its Radius carries
	// Degraded: true). Only possible via EvalOptions.DegradeOnNumeric.
	Degraded bool
}

// Robustness computes the paper's headline metric: the robustness of the
// resource allocation with respect to the whole feature set Φ against the
// whole perturbation set Π, in the P-space induced by w.
func (a *Analysis) Robustness(w Weighting) (Robustness, error) {
	return a.RobustnessWith(context.Background(), w, EvalOptions{})
}

// RobustnessCtx is Robustness with cooperative cancellation: ctx is checked
// between features and before every impact-function evaluation of the
// numeric tier, so a cancelled or expired context aborts the analysis within
// one evaluation of the slowest impact function.
func (a *Analysis) RobustnessCtx(ctx context.Context, w Weighting) (Robustness, error) {
	return a.RobustnessWith(ctx, w, EvalOptions{})
}

// Tolerable implements the paper's operating-point recipe: to decide whether
// the system can run at the given parameter values without violating a
// constraint, (a) convert the values into P-space, (b) measure
// ‖P − P^orig‖₂, and (c) compare against the robustness radius. The check is
// performed per feature with that feature's own radius (and, for the
// sensitivity weighting, that feature's own scales); it returns true only
// when every feature's test passes.
//
// The test is sufficient, not necessary: points beyond the radius may still
// be feasible (the radius is the *nearest* boundary distance over all
// directions), so a false return means "not guaranteed", not "violating".
// Experiment E5 quantifies this conservatism.
func (a *Analysis) Tolerable(values []vec.V, w Weighting) (bool, error) {
	if len(values) != len(a.Params) {
		return false, fmt.Errorf("core: Tolerable: %d parameter values, want %d", len(values), len(a.Params))
	}
	for j, v := range values {
		if len(v) != a.Params[j].Dim() {
			return false, fmt.Errorf("core: Tolerable: parameter %d has dim %d, want %d: %w",
				j, len(v), a.Params[j].Dim(), vec.ErrDimMismatch)
		}
	}
	for i := range a.Features {
		r, err := a.CombinedRadius(i, w)
		if err != nil {
			return false, err
		}
		if math.IsInf(r.Value, 1) {
			continue // this feature can never be violated
		}
		p, err := ToP(a, w, i, values)
		if err != nil {
			return false, err
		}
		pOrig, err := POrig(a, w, i)
		if err != nil {
			return false, err
		}
		if p.Dist2(pOrig) >= r.Value {
			return false, nil
		}
	}
	return true, nil
}
