// Package stats provides the small statistics toolkit shared by every
// experiment: empirical CDFs (raw and weighted), quantiles and
// least-squares fits.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
// Construct with NewCDF or NewWeightedCDF; the zero value is an empty
// distribution.
type CDF struct {
	// xs are sorted sample values; cum[i] is the total mass of samples
	// xs[0..i]; total is the overall mass (cum of the last sample).
	xs    []float64
	cum   []float64
	total float64
}

// NewCDF builds an unweighted empirical CDF from samples. The input slice
// is not modified.
func NewCDF(samples []float64) *CDF {
	ws := make([]float64, len(samples))
	for i := range ws {
		ws[i] = 1
	}
	return NewWeightedCDF(samples, ws)
}

// NewWeightedCDF builds a weighted CDF: sample i carries mass ws[i].
// The paper's Figure 6 "Weighted" line is exactly this — each CRL weighted
// by the number of certificates pointing at it. NewWeightedCDF panics when
// the slice lengths differ or a weight is negative, since both indicate a
// caller bug rather than bad data.
func NewWeightedCDF(samples, weights []float64) *CDF {
	if len(samples) != len(weights) {
		panic(fmt.Sprintf("stats: %d samples but %d weights", len(samples), len(weights)))
	}
	type pair struct{ x, w float64 }
	pairs := make([]pair, 0, len(samples))
	var total float64
	for i, x := range samples {
		w := weights[i]
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("stats: invalid weight %v", w))
		}
		if w == 0 {
			continue
		}
		pairs = append(pairs, pair{x, w})
		total += w
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].x < pairs[j].x })
	c := &CDF{
		xs:    make([]float64, len(pairs)),
		cum:   make([]float64, len(pairs)),
		total: total,
	}
	var run float64
	for i, p := range pairs {
		run += p.w
		c.xs[i] = p.x
		c.cum[i] = run
	}
	return c
}

// N returns the number of distinct (positive-weight) samples.
func (c *CDF) N() int { return len(c.xs) }

// Total returns the total mass.
func (c *CDF) Total() float64 { return c.total }

// At returns P(X <= x), the fraction of mass at or below x.
func (c *CDF) At(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	// Index of first sample > x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	if i == 0 {
		return 0
	}
	return c.cum[i-1] / c.total
}

// Quantile returns the smallest sample value v with P(X <= v) >= q.
// q is clamped to [0, 1]. It panics on an empty distribution.
func (c *CDF) Quantile(q float64) float64 {
	if c.total == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * c.total
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= target })
	if i >= len(c.xs) {
		i = len(c.xs) - 1
	}
	return c.xs[i]
}

// Median returns Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min returns the smallest sample. It panics on an empty distribution.
func (c *CDF) Min() float64 {
	if len(c.xs) == 0 {
		panic("stats: Min of empty CDF")
	}
	return c.xs[0]
}

// Max returns the largest sample. It panics on an empty distribution.
func (c *CDF) Max() float64 {
	if len(c.xs) == 0 {
		panic("stats: Max of empty CDF")
	}
	return c.xs[len(c.xs)-1]
}

// Mean returns the weighted mean of the distribution, or 0 when empty.
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum, prev float64
	for i, x := range c.xs {
		sum += x * (c.cum[i] - prev)
		prev = c.cum[i]
	}
	return sum / c.total
}

// Point is one (x, y) coordinate of a plotted curve.
type Point struct {
	X float64
	Y float64
}

// Points returns n evenly-spaced (by cumulative probability) points of the
// CDF curve, suitable for printing a figure's series. For n <= 1 or an
// empty distribution it returns nil.
func (c *CDF) Points(n int) []Point {
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

// Fit is a least-squares linear fit y = Slope*x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the ordinary least-squares fit through the points.
// It panics when fewer than two points are supplied or the xs are all
// identical (the fit is undefined).
func LinearFit(pts []Point) Fit {
	if len(pts) < 2 {
		panic("stats: LinearFit needs at least two points")
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p.X-mx, p.Y-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for _, p := range pts {
			r := p.Y - (slope*p.X + intercept)
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}
