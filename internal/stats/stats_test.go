package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCDFBasic(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.N() != 5 || c.total != 5 {
		t.Fatalf("N=%d Total=%v", c.N(), c.total)
	}
	if c.Quantile(0) != 1 || c.Max() != 5 {
		t.Fatalf("Quantile(0)=%v Max=%v", c.Quantile(0), c.Max())
	}
	if got := c.Median(); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := c.At(2.5); !approx(got, 0.4, 1e-12) {
		t.Errorf("At(2.5) = %v, want 0.4", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if got := c.Mean(); !approx(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestCDFQuantileClamping(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30})
	if c.Quantile(-0.5) != 10 {
		t.Error("Quantile below 0 should clamp to min")
	}
	if c.Quantile(2) != 30 {
		t.Error("Quantile above 1 should clamp to max")
	}
}

func TestWeightedCDF(t *testing.T) {
	// One tiny CRL serving 1 cert, one huge CRL serving 99 certs — the
	// Figure 6 situation: raw median small, weighted median large.
	raw := NewCDF([]float64{1, 1000})
	weighted := NewWeightedCDF([]float64{1, 1000}, []float64{1, 99})
	if raw.Median() != 1 {
		t.Errorf("raw median = %v", raw.Median())
	}
	if weighted.Median() != 1000 {
		t.Errorf("weighted median = %v, want 1000", weighted.Median())
	}
	if got := weighted.At(1); !approx(got, 0.01, 1e-12) {
		t.Errorf("weighted At(1) = %v, want 0.01", got)
	}
}

func TestWeightedCDFZeroWeightsDropped(t *testing.T) {
	c := NewWeightedCDF([]float64{1, 2, 3}, []float64{1, 0, 1})
	if c.N() != 2 || c.total != 2 {
		t.Fatalf("N=%d Total=%v, want 2/2", c.N(), c.total)
	}
}

func TestCDFPanics(t *testing.T) {
	mustPanic(t, "mismatched", func() { NewWeightedCDF([]float64{1}, nil) })
	mustPanic(t, "negative weight", func() { NewWeightedCDF([]float64{1}, []float64{-1}) })
	mustPanic(t, "NaN weight", func() { NewWeightedCDF([]float64{1}, []float64{math.NaN()}) })
	empty := NewCDF(nil)
	mustPanic(t, "empty quantile", func() { empty.Quantile(0.5) })
	mustPanic(t, "empty max", func() { empty.Max() })
	if empty.At(1) != 0 || empty.Mean() != 0 {
		t.Error("empty CDF At/Mean should be 0")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// points returns n points of the CDF curve evenly spaced in cumulative
// probability, or nil for n <= 1 or an empty distribution.
func points(c *CDF, n int) []Point {
	if n <= 1 || c.total == 0 {
		return nil
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out[i] = Point{X: c.Quantile(q), Y: q}
	}
	return out
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	pts := points(c, 5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) len = %d", len(pts))
	}
	if pts[0].Y != 0 || pts[4].Y != 1 {
		t.Errorf("endpoint probabilities %v %v", pts[0].Y, pts[4].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			t.Errorf("Points not monotone at %d", i)
		}
	}
	if points(c, 1) != nil || points(c, 0) != nil {
		t.Error("Points(<=1) should be nil")
	}
	if points(NewCDF(nil), 10) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

// Property: for any sample set, At(Quantile(q)) >= q.
func TestCDFQuantileAtProperty(t *testing.T) {
	f := func(vals []float64, qRaw uint8) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		q := float64(qRaw) / 255
		return c.At(c.Quantile(q))+1e-9 >= q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the CDF is monotone non-decreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	fit := LinearFit(pts)
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !approx(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// CRLs at ~38 bytes/entry with some fixed overhead and noise, as in
	// Figure 5.
	var pts []Point
	for i := 0; i < 500; i++ {
		n := float64(rng.Intn(100000) + 1)
		size := 38*n + 600 + rng.NormFloat64()*50
		pts = append(pts, Point{X: n, Y: size})
	}
	fit := LinearFit(pts)
	if !approx(fit.Slope, 38, 0.5) {
		t.Errorf("slope = %v, want ~38", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v, want near 1", fit.R2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	mustPanic(t, "one point", func() { LinearFit([]Point{{1, 1}}) })
	mustPanic(t, "constant x", func() { LinearFit([]Point{{1, 1}, {1, 2}}) })
}
