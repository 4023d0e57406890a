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

// BoundarySide says which bound of ⟨β^min, β^max⟩ the nearest boundary point
// lies on.
type BoundarySide int

const (
	// SideNone means no reachable boundary exists (infinite radius).
	SideNone BoundarySide = iota
	// SideMax means the β^max boundary is the nearest.
	SideMax
	// SideMin means the β^min boundary is the nearest.
	SideMin
)

// String renders the side for reports.
func (s BoundarySide) String() string {
	switch s {
	case SideMax:
		return "beta-max"
	case SideMin:
		return "beta-min"
	default:
		return "none"
	}
}

// Radius is the outcome of a robustness-radius computation (Eq. 1 for a
// single parameter, Eq. 2 in combined P-space).
type Radius struct {
	// Value is the radius r_μ. math.Inf(1) means no boundary is reachable:
	// the feature can never leave its bounds along the analyzed directions.
	Value float64
	// Point is the nearest boundary point (π_j*(φ_i), or P*(φ_i) in
	// combined space). Nil when Value is infinite.
	Point vec.V
	// Side identifies which bound the nearest point sits on.
	Side BoundarySide
	// Feature is the index of the feature the radius belongs to.
	Feature int
	// Param is the index of the perturbation parameter (single-parameter
	// radii only; −1 for combined P-space radii).
	Param int
	// Analytic reports whether a closed-form tier produced the value (true)
	// or the numeric search did (false).
	Analytic bool
	// Degraded marks a radius that the exact/numeric tiers could not
	// produce and that was instead estimated by the Monte-Carlo
	// lower-bound fallback (see EvalOptions.DegradeOnNumeric). A degraded
	// value is an empirical estimate, not a certified radius.
	Degraded bool
}

// ErrBadIndex reports an out-of-range feature or parameter index.
var ErrBadIndex = errors.New("core: index out of range")

// RadiusSingle computes r_μ(φ_i, π_j) — Eq. 1 of the paper: the smallest
// Euclidean distance from π_j^orig to a point where φ_i meets β^min or
// β^max, all other parameters held at their original values.
//
// Linear impact functions use exact hyperplane projection; everything else
// uses the numeric nearest-point search. An unreachable boundary yields
// Value = +Inf with Side = SideNone (not an error): the allocation is
// infinitely robust with respect to that feature/parameter pair.
func (a *Analysis) RadiusSingle(i, j int) (Radius, error) {
	return a.RadiusSingleCtx(context.Background(), i, j)
}

// RadiusSingleCtx is RadiusSingle with cooperative cancellation: ctx is
// checked before every impact-function evaluation of the numeric tier, so a
// cancelled or expired context aborts the computation within one evaluation.
// Panics and non-finite values from the impact function are contained as
// *ImpactPanicError / *NumericError.
func (a *Analysis) RadiusSingleCtx(ctx context.Context, i, j int) (Radius, error) {
	if i < 0 || i >= len(a.Features) {
		return Radius{}, fmt.Errorf("%w: feature %d of %d", ErrBadIndex, i, len(a.Features))
	}
	if j < 0 || j >= len(a.Params) {
		return Radius{}, fmt.Errorf("%w: parameter %d of %d", ErrBadIndex, j, len(a.Params))
	}
	if err := ctxErr(ctx); err != nil {
		return Radius{}, err
	}
	f := a.Features[i]
	if f.Linear != nil {
		return a.radiusSingleLinear(i, j)
	}
	if f.Quad != nil {
		return a.radiusSingleQuad(i, j)
	}
	return a.radiusSingleNumeric(ctx, i, j, EvalOptions{})
}

// ctxErr reports a cancelled context as a wrapped error; a nil context means
// "no cancellation".
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: evaluation cancelled: %w", err)
	}
	return nil
}

// searchOpts threads the caller's context into the numeric tier's options.
func (a *Analysis) searchOpts(ctx context.Context) optimize.LevelSetOptions {
	opts := a.NumOpts
	if ctx != nil {
		opts.Ctx = ctx
	}
	return opts
}

// radiusSingleLinear solves Eq. 1 exactly: with other parameters frozen, the
// boundary {π_j : f(π) = β} is the hyperplane K_j·π_j = β − Const −
// Σ_{m≠j} K_m·π_m^orig.
func (a *Analysis) radiusSingleLinear(i, j int) (Radius, error) {
	f := a.Features[i]
	orig := a.OrigValues()
	rest := f.Linear.Const
	for m, k := range f.Linear.Coeffs {
		if m != j {
			rest += k.Dot(orig[m])
		}
	}
	kj := f.Linear.Coeffs[j]
	best := Radius{Value: math.Inf(1), Side: SideNone, Feature: i, Param: j, Analytic: true}
	for _, side := range []struct {
		beta float64
		side BoundarySide
	}{{f.Bounds.Max, SideMax}, {f.Bounds.Min, SideMin}} {
		if math.IsInf(side.beta, 0) {
			continue
		}
		h := geom.Hyperplane{K: kj, B: side.beta - rest}
		pt, d, err := h.Nearest(a.Params[j].Orig)
		if err != nil {
			if errors.Is(err, geom.ErrDegenerate) {
				continue // zero coefficients: this bound is unreachable via π_j
			}
			return Radius{}, fmt.Errorf("core: feature %q / param %q: %w", f.Name, a.Params[j].Name, err)
		}
		if d < best.Value {
			best.Value, best.Point, best.Side = d, pt, side.side
		}
	}
	return best, nil
}

// radiusSingleNumeric solves Eq. 1 with the level-set search in the
// n_{π_j}-dimensional space of the single parameter. The caller-supplied
// impact function runs behind a guard: panics and non-finite values are
// contained as typed errors instead of escaping or silently corrupting the
// radius, and ctx cancels the search between evaluations. The full native
// point (frozen blocks + the moving block j) lives in one pooled scratch
// vector, so evaluations share cache entries with the combined-space
// searches of the same feature and allocate nothing per call. eo threads
// the per-search evaluation options (budget, k-probe) and — with
// EnableWarmStart — the per-(feature, parameter) warm state.
func (a *Analysis) radiusSingleNumeric(ctx context.Context, i, j int, eo EvalOptions) (Radius, error) {
	f := a.Features[i]
	g := &guard{feature: i, param: j, op: "single-parameter radius"}
	impact := g.wrap(f.impact())
	native := vec.GetScratch(a.TotalDim())
	defer vec.PutScratch(native)
	vec.ConcatInto(native, a.OrigValues()...)
	vals := vec.Views(nil, native, a.Dims()...)
	blk := vals[j]
	cache := a.cache
	var key *cacheKey
	if cache != nil {
		key = newCacheKey(len(native))
	}
	restrict := func(x []float64) float64 {
		copy(blk, x)
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
		blockOff := 0
		for _, dim := range a.Dims()[:j] {
			blockOff += dim
		}
		opts.FK = a.impactFK(g, i, nil, blockOff, native)
		opts.KBlock = eo.KProbe
		opts.KBlockMax = eo.kprobeMax()
	}
	if a.warm != nil {
		key := warmKey{feat: i, param: j}
		opts.Warm = a.warm.checkout(key, a.Params[j].Orig)
		defer a.warm.publish(key, opts.Warm)
	}
	best := Radius{Value: math.Inf(1), Side: SideNone, Feature: i, Param: j}
	for _, side := range []struct {
		beta float64
		side BoundarySide
	}{{f.Bounds.Max, SideMax}, {f.Bounds.Min, SideMin}} {
		if math.IsInf(side.beta, 0) {
			continue
		}
		res, err := optimize.NearestOnLevelSet(restrict, side.beta, a.Params[j].Orig, opts)
		if err != nil && errors.Is(err, optimize.ErrNoBoundary) {
			err = nil // unreachable bound: not a failure
			res.Dist = math.Inf(1)
		}
		if err = g.err(err); err != nil {
			return Radius{}, fmt.Errorf("core: feature %q / param %q: %w", f.Name, a.Params[j].Name, err)
		}
		if res.Dist < best.Value {
			best.Value, best.Point, best.Side = res.Dist, vec.V(res.Point), side.side
		}
	}
	return best, nil
}

// RobustnessSingle computes ρ_μ(Φ, π_j) = min_i r_μ(φ_i, π_j): the
// robustness of the allocation against the single parameter π_j across the
// whole feature set. The returned Radius identifies the critical feature.
func (a *Analysis) RobustnessSingle(j int) (Radius, error) {
	return a.RobustnessSingleCtx(context.Background(), j)
}

// RobustnessSingleCtx is RobustnessSingle with cooperative cancellation
// (see RadiusSingleCtx).
func (a *Analysis) RobustnessSingleCtx(ctx context.Context, j int) (Radius, error) {
	if j < 0 || j >= len(a.Params) {
		return Radius{}, fmt.Errorf("%w: parameter %d of %d", ErrBadIndex, j, len(a.Params))
	}
	best := Radius{Value: math.Inf(1), Side: SideNone, Feature: -1, Param: j}
	for i := range a.Features {
		r, err := a.RadiusSingleCtx(ctx, i, j)
		if err != nil {
			return Radius{}, err
		}
		if r.Value < best.Value {
			best = r
		}
	}
	return best, nil
}
