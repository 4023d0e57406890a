package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fepia/internal/vec"
)

func TestHyperplaneNearestKnown(t *testing.T) {
	// 3x + 4y = 25 from the origin: distance 5, point (3, 4).
	h := Hyperplane{K: vec.Of(3, 4), B: 25}
	pt, d, err := h.Nearest(vec.Of(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("dist = %v, want 5", d)
	}
	if !pt.EqualApprox(vec.Of(3, 4), 1e-12) {
		t.Errorf("point = %v, want (3,4)", pt)
	}
}

func TestHyperplaneEval(t *testing.T) {
	h := Hyperplane{K: vec.Of(1, 1), B: 2}
	if v := h.Eval(vec.Of(1, 1)); v != 0 {
		t.Errorf("on-plane Eval = %v", v)
	}
	if v := h.Eval(vec.Of(0, 0)); v >= 0 {
		t.Errorf("inside Eval = %v, want negative", v)
	}
}

func TestHyperplaneDegenerate(t *testing.T) {
	h := Hyperplane{K: vec.Of(0, 0), B: 1}
	if _, _, err := h.Nearest(vec.Of(1, 2)); err == nil {
		t.Error("zero normal must error")
	}
}

func TestHyperplaneDimMismatch(t *testing.T) {
	h := Hyperplane{K: vec.Of(1, 2, 3), B: 1}
	if _, _, err := h.Nearest(vec.Of(1, 2)); err == nil {
		t.Error("dim mismatch must error")
	}
}

func TestPropHyperplaneNearestIsOnPlaneAndOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2
		k := make(vec.V, n)
		x0 := make(vec.V, n)
		for i := range k {
			k[i] = rng.NormFloat64()
			x0[i] = rng.NormFloat64() * 5
		}
		if k.Norm2() < 1e-3 {
			return true
		}
		h := Hyperplane{K: k, B: rng.NormFloat64() * 10}
		pt, d, err := h.Nearest(x0)
		if err != nil {
			return false
		}
		// Feasibility.
		if math.Abs(h.Eval(pt)) > 1e-8*(1+math.Abs(h.B)) {
			return false
		}
		// Distance consistency.
		if math.Abs(pt.Dist2(x0)-d) > 1e-9*(1+d) {
			return false
		}
		// Optimality: no random on-plane point may be closer.
		for trial := 0; trial < 10; trial++ {
			y := make(vec.V, n)
			for i := range y {
				y[i] = rng.NormFloat64() * 10
			}
			// Project y onto the plane.
			yp := y.AddScaled((h.B-k.Dot(y))/k.Dot(k), k)
			if yp.Dist2(x0) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEllipsoidNearestSphere(t *testing.T) {
	// Unit-coefficient sphere of radius 5 about the origin, from (3, 0, 0):
	// nearest point (5, 0, 0) at distance 2.
	e := AxisEllipsoid{A: vec.Of(1, 1, 1), C: vec.New(3), R: 25}
	pt, d, err := e.Nearest(vec.Of(3, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-10 {
		t.Errorf("dist = %v, want 2", d)
	}
	if !pt.EqualApprox(vec.Of(5, 0, 0), 1e-8) {
		t.Errorf("point = %v, want (5,0,0)", pt)
	}
}

func TestEllipsoidNearestFromOutside(t *testing.T) {
	e := AxisEllipsoid{A: vec.Of(1, 1), C: vec.New(2), R: 1}
	pt, d, err := e.Nearest(vec.Of(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-10 || !pt.EqualApprox(vec.Of(1, 0), 1e-8) {
		t.Errorf("outside: point %v dist %v, want (1,0) dist 2", pt, d)
	}
}

func TestEllipsoidNearestAtCenter(t *testing.T) {
	// From the center of x²/1 + y²·4 = 4 (semi-axes 2 and 1): nearest
	// surface point is along the short axis, distance 1.
	e := AxisEllipsoid{A: vec.Of(1, 4), C: vec.New(2), R: 4}
	_, d, err := e.Nearest(vec.Of(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-10 {
		t.Errorf("center dist = %v, want semi-minor 1", d)
	}
}

func TestEllipsoidDegenerate(t *testing.T) {
	if _, _, err := (AxisEllipsoid{A: vec.Of(1, -1), C: vec.New(2), R: 1}).Nearest(vec.Of(0, 0)); err == nil {
		t.Error("negative curvature must error")
	}
	if _, _, err := (AxisEllipsoid{A: vec.Of(1, 1), C: vec.New(2), R: 0}).Nearest(vec.Of(0, 0)); err == nil {
		t.Error("zero level must error")
	}
	if _, _, err := (AxisEllipsoid{A: vec.Of(1, 1), C: vec.New(2), R: 1}).Nearest(vec.Of(0, 0, 0)); err == nil {
		t.Error("dim mismatch must error")
	}
}

func TestPropEllipsoidFeasibleAndBeatsNumeric(t *testing.T) {
	// The analytic KKT solve must land on the surface and never lose to the
	// generic numeric level-set search by more than tolerance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		a := make(vec.V, n)
		c := make(vec.V, n)
		x0 := make(vec.V, n)
		for i := range a {
			a[i] = 0.5 + rng.Float64()*3
			c[i] = rng.NormFloat64()
			x0[i] = c[i] + rng.NormFloat64()
		}
		e := AxisEllipsoid{A: a, C: c, R: 1 + rng.Float64()*5}
		pt, d, err := e.Nearest(x0)
		if err != nil {
			return false
		}
		if math.Abs(e.Eval(pt)) > 1e-7*(1+e.R) {
			return false
		}
		ls := LevelSet{F: func(x vec.V) float64 { return e.Eval(x) + e.R }, Level: e.R}
		_, dNum, err := ls.Nearest(x0)
		if err != nil {
			return false
		}
		// Analytic must be ≤ numeric (+ tolerance); numeric can only be worse.
		return d <= dNum+1e-4*(1+dNum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLevelSetMatchesHyperplane(t *testing.T) {
	h := Hyperplane{K: vec.Of(2, 5), B: 30}
	ls := LevelSet{F: func(x vec.V) float64 { return h.K.Dot(x) }, Level: h.B}
	x0 := vec.Of(1, 1)
	_, dA, err := h.Nearest(x0)
	if err != nil {
		t.Fatal(err)
	}
	_, dN, err := ls.Nearest(x0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dA-dN) > 1e-5*(1+dA) {
		t.Errorf("analytic %v vs numeric %v", dA, dN)
	}
}

func TestTraceCurve2DHyperbola(t *testing.T) {
	// x·y = 4 over x ∈ [1, 4]: y = 4/x.
	pts, err := TraceCurve2D(func(x, y float64) float64 { return x * y }, 4, 1, 4, TraceOptions{Samples: 50, YMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 40 {
		t.Fatalf("only %d curve points found", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Y-4/p.X) > 1e-6 {
			t.Errorf("curve point (%v, %v) off y=4/x", p.X, p.Y)
		}
	}
}

func TestTraceCurve2DNoCrossing(t *testing.T) {
	if _, err := TraceCurve2D(func(x, y float64) float64 { return 0 }, 5, 0, 1, TraceOptions{Samples: 8, YMax: 10}); err == nil {
		t.Error("no crossings must error")
	}
}

func TestTraceCurve2DEmptyRange(t *testing.T) {
	if _, err := TraceCurve2D(func(x, y float64) float64 { return x + y }, 1, 2, 2, TraceOptions{}); err == nil {
		t.Error("empty x-range must error")
	}
}

func TestNearestOnPolyline(t *testing.T) {
	// Segment from (0,0) to (10,0); query (5, 3) → nearest (5, 0), dist 3.
	pts := []CurvePoint{{0, 0}, {10, 0}}
	near, d := NearestOnPolyline(pts, vec.Of(5, 3))
	if math.Abs(d-3) > 1e-12 || math.Abs(near.X-5) > 1e-12 {
		t.Errorf("nearest = %+v dist %v", near, d)
	}
	// Query beyond the endpoint clamps to it.
	near, d = NearestOnPolyline(pts, vec.Of(12, 0))
	if math.Abs(d-2) > 1e-12 || near.X != 10 {
		t.Errorf("clamped nearest = %+v dist %v", near, d)
	}
}

func TestNearestOnPolylineEmpty(t *testing.T) {
	if _, d := NearestOnPolyline(nil, vec.Of(0, 0)); !math.IsInf(d, 1) {
		t.Error("empty polyline must report +Inf")
	}
}

func TestTraceThenNearestMatchesAnalytic(t *testing.T) {
	// For x·y = 4 from (1, 1) the true nearest boundary point is (2, 2) at
	// distance √2. The traced polyline must agree to grid resolution.
	pts, err := TraceCurve2D(func(x, y float64) float64 { return x * y }, 4, 0.5, 6, TraceOptions{Samples: 400, YMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	_, d := NearestOnPolyline(pts, vec.Of(1, 1))
	if math.Abs(d-math.Sqrt2) > 1e-3 {
		t.Errorf("polyline dist = %v, want √2", d)
	}
}

// TestEllipsoidNearestHardCase covers inside points whose offset from the
// center is zero (or below float resolution) on the largest-curvature
// elements: the multiplier equation then has no root above its pole, and a
// bracket search toward the pole ends at a float fixed point. Each case is
// checked against the numeric level-set search on the same surface.
func TestEllipsoidNearestHardCase(t *testing.T) {
	cases := []struct {
		name  string
		e     AxisEllipsoid
		x0    vec.V
		flips bool // the numeric search may land on the mirror-image point
	}{
		{"quadratic feature repro", AxisEllipsoid{A: vec.Of(0.9, 0.1), C: vec.Of(1, 1.2), R: 2}, vec.Of(1, 1), true},
		{"three dims", AxisEllipsoid{A: vec.Of(2, 1, 0.5), C: vec.New(3), R: 4}, vec.Of(0, 0.3, -0.2), true},
		{"tied largest curvature", AxisEllipsoid{A: vec.Of(2, 2, 1), C: vec.New(3), R: 3}, vec.Of(0, 0, 0.5), true},
		{"tied, one offset", AxisEllipsoid{A: vec.Of(2, 2, 1), C: vec.New(3), R: 3}, vec.Of(0, 0.1, 0.5), false},
		{"offset below resolution", AxisEllipsoid{A: vec.Of(1, 0.5), C: vec.New(2), R: 1}, vec.Of(1e-300, 0.4), true},
		{"ordinary inside point", AxisEllipsoid{A: vec.Of(1, 0.5), C: vec.New(2), R: 1}, vec.Of(0.3, 0.4), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pt, d, err := c.e.Nearest(c.x0)
			if err != nil {
				t.Fatal(err)
			}
			if v := c.e.Eval(pt); math.Abs(v) > 1e-9*c.e.R {
				t.Errorf("point %v is off the surface: Eval = %g", pt, v)
			}
			if math.Abs(pt.Dist2(c.x0)-d) > 1e-12*(1+d) {
				t.Errorf("dist %v disagrees with the point's distance %v", d, pt.Dist2(c.x0))
			}
			ref := LevelSet{F: func(x vec.V) float64 { return c.e.Eval(x) + c.e.R }, Level: c.e.R}
			rpt, rd, err := ref.Nearest(c.x0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d-rd) > 1e-6*(1+rd) {
				t.Errorf("dist %v, numeric reference %v", d, rd)
			}
			if !c.flips && !pt.EqualApprox(rpt, 1e-4) {
				t.Errorf("point %v, numeric reference %v", pt, rpt)
			}
		})
	}
}
