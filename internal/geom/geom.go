// Package geom models constraint boundaries — the level sets
// {π : f(π) = β} that separate robust from non-robust operation in the FePIA
// analysis — and provides exact nearest-point computations for the shapes
// that admit closed forms (hyperplanes, axis-aligned ellipsoids). The generic
// numeric fallback lives in internal/optimize; internal/core picks the
// cheapest applicable tier.
package geom

import (
	"errors"
	"fmt"
	"math"

	"fepia/internal/optimize"
	"fepia/internal/vec"
)

// Boundary is a constraint surface with a nearest-point query. Nearest
// returns the boundary point closest (Euclidean) to x0 and its distance —
// the robustness radius contribution of this surface.
type Boundary interface {
	// Nearest returns the closest boundary point to x0 and its distance.
	Nearest(x0 vec.V) (vec.V, float64, error)
	// Eval returns f(x) − level: negative inside / below the surface,
	// positive beyond it (orientation is surface-specific but consistent).
	Eval(x vec.V) float64
}

// ErrDegenerate is returned for boundaries with no valid geometry (e.g. a
// hyperplane with a zero normal).
var ErrDegenerate = errors.New("geom: degenerate boundary")

// Hyperplane is the boundary {x : K·x = B}. Linear impact functions — the
// case the paper analyzes in closed form — produce exactly this shape.
type Hyperplane struct {
	K vec.V   // normal coefficients
	B float64 // offset
}

// Eval returns K·x − B.
func (h Hyperplane) Eval(x vec.V) float64 { return h.K.Dot(x) - h.B }

// Nearest projects x0 orthogonally onto the hyperplane:
//
//	x* = x0 + (B − K·x0)/‖K‖² · K,  distance |K·x0 − B|/‖K‖₂.
//
// This is the paper's Equation 4 specialized to the plane Σ aᵢxᵢ = b.
func (h Hyperplane) Nearest(x0 vec.V) (vec.V, float64, error) {
	if len(h.K) != len(x0) {
		return nil, 0, fmt.Errorf("geom: hyperplane dim %d vs point dim %d: %w", len(h.K), len(x0), vec.ErrDimMismatch)
	}
	n2 := h.K.Dot(h.K)
	if n2 == 0 {
		return nil, 0, fmt.Errorf("%w: zero normal", ErrDegenerate)
	}
	t := (h.B - h.K.Dot(x0)) / n2
	pt := x0.AddScaled(t, h.K)
	return pt, math.Abs(t) * math.Sqrt(n2), nil
}

// AxisEllipsoid is the boundary {x : Σ aᵢ·(xᵢ − cᵢ)² = r} with all aᵢ > 0.
// Quadratic impact functions (e.g. energy ∝ frequency², load-dependent
// queueing approximations) produce this shape.
type AxisEllipsoid struct {
	A vec.V   // positive curvature coefficients
	C vec.V   // center
	R float64 // level (must be > 0 for a non-empty surface)
}

// Eval returns Σ aᵢ(xᵢ−cᵢ)² − r.
func (e AxisEllipsoid) Eval(x vec.V) float64 {
	var s float64
	for i := range e.A {
		d := x[i] - e.C[i]
		s += e.A[i] * d * d
	}
	return s - e.R
}

// Nearest computes the closest point on the ellipsoid by solving the KKT
// system with a single Lagrange multiplier λ:
//
//	xᵢ(λ) = cᵢ + (x0ᵢ − cᵢ)/(1 + λ·aᵢ),  find λ so that x(λ) is on the surface.
//
// The multiplier equation is monotone on the relevant interval, so a
// bracketed Brent solve is exact to tolerance. Points at the center (where
// every direction is equidistant) take the cheapest axis; inside points
// level with the center on the largest-curvature axis have no root above
// the multiplier's pole and are solved there (nearestAtPole).
func (e AxisEllipsoid) Nearest(x0 vec.V) (vec.V, float64, error) {
	n := len(e.A)
	if len(x0) != n || len(e.C) != n {
		return nil, 0, fmt.Errorf("geom: ellipsoid dims A=%d C=%d x0=%d: %w", n, len(e.C), len(x0), vec.ErrDimMismatch)
	}
	if e.R <= 0 {
		return nil, 0, fmt.Errorf("%w: ellipsoid level %g ≤ 0", ErrDegenerate, e.R)
	}
	for i, a := range e.A {
		if a <= 0 {
			return nil, 0, fmt.Errorf("%w: curvature A[%d]=%g ≤ 0", ErrDegenerate, i, a)
		}
	}
	d := x0.Sub(e.C)
	if d.Norm2() == 0 {
		// Center: nearest surface point lies along the axis with the largest
		// curvature-to-distance payoff, i.e. smallest semi-axis sqrt(r/aᵢ).
		best := 0
		for i := 1; i < n; i++ {
			if e.A[i] > e.A[best] {
				best = i
			}
		}
		pt := e.C.Clone()
		semi := math.Sqrt(e.R / e.A[best])
		pt[best] += semi
		return pt, semi, nil
	}

	phi := func(lambda float64) float64 {
		var s float64
		for i := 0; i < n; i++ {
			den := 1 + lambda*e.A[i]
			xi := d[i] / den
			s += e.A[i] * xi * xi
		}
		return s - e.R
	}
	// λ = 0 gives φ = Eval(x0) + r − r = Σa d² − r. Inside (φ(0) < 0) the
	// multiplier is negative; outside it is positive. Bracket accordingly,
	// keeping 1 + λaᵢ > 0 ⇒ λ > −1/max(aᵢ).
	maxA := e.A.Max()
	lo, hi := 0.0, 0.0
	if phi(0) > 0 {
		hi = 1.0
		for phi(hi) > 0 {
			hi *= 2
			if hi > 1e18 {
				return nil, 0, fmt.Errorf("%w: multiplier search diverged", ErrDegenerate)
			}
		}
	} else {
		floor := -1/maxA + 1e-15
		lo = -1 / (2 * maxA)
		for phi(lo) < 0 {
			next := (lo + floor) / 2
			if next >= lo || next <= floor+1e-18 {
				// φ is still negative at the pole (or as near it as floats
				// resolve), so no multiplier above it meets the level.
				pt := e.nearestAtPole(d, maxA)
				return pt, pt.Dist2(x0), nil
			}
			lo = next
		}
		hi = 0
	}
	lambda, err := optimize.Brent(phi, lo, hi, 1e-14)
	if err != nil {
		return nil, 0, fmt.Errorf("geom: ellipsoid multiplier solve: %w", err)
	}
	pt := make(vec.V, n)
	for i := 0; i < n; i++ {
		pt[i] = e.C[i] + d[i]/(1+lambda*e.A[i])
	}
	return pt, pt.Dist2(x0), nil
}

// nearestAtPole solves the inside case with the multiplier at its pole
// λ = −1/max aᵢ, the trust-region "hard case". It arises when d = x0 − C is
// zero (or too small to register) on every largest-curvature element: φ
// then stays negative all the way to the pole, and the level is met by
// moving along those elements instead. Every other element takes its KKT
// value dᵢ/(1 − aᵢ/max a); the largest-curvature elements share the
// remaining level, in proportion to dᵢ when any is nonzero, and on the
// first of them otherwise.
func (e AxisEllipsoid) nearestAtPole(d vec.V, maxA float64) vec.V {
	y := make(vec.V, len(d))
	rest := e.R
	first, poleNorm2 := -1, 0.0
	for i, a := range e.A {
		if a == maxA {
			if first < 0 {
				first = i
			}
			poleNorm2 += d[i] * d[i]
			continue
		}
		y[i] = d[i] / (1 - a/maxA)
		rest -= a * y[i] * y[i]
	}
	rest = math.Max(rest, 0)
	if poleNorm2 == 0 {
		y[first] = math.Sqrt(rest / maxA)
	} else {
		s := math.Sqrt(rest / (maxA * poleNorm2))
		for i, a := range e.A {
			if a == maxA {
				y[i] = d[i] * s
			}
		}
	}
	for i := range y {
		y[i] += e.C[i]
	}
	return y
}

// LevelSet is the generic numeric boundary {x : F(x) = Level}, solved by
// internal/optimize's multi-phase nearest-point search. It is the tier-3
// fallback for impact functions with no closed form.
type LevelSet struct {
	F     func(x vec.V) float64
	Level float64
	Opt   optimize.LevelSetOptions
}

// Eval returns F(x) − Level.
func (l LevelSet) Eval(x vec.V) float64 { return l.F(x) - l.Level }

// Nearest runs the numeric nearest-boundary-point search.
func (l LevelSet) Nearest(x0 vec.V) (vec.V, float64, error) {
	res, err := optimize.NearestOnLevelSet(func(x []float64) float64 {
		return l.F(vec.V(x))
	}, l.Level, x0, l.Opt)
	if err != nil {
		return nil, 0, err
	}
	return vec.V(res.Point), res.Dist, nil
}
