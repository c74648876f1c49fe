package stat

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic sample statistics.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
	P05, P95  float64
	// NonFinite counts NaN/±Inf observations rejected from the
	// statistics (a single poisoned sample would otherwise silently turn
	// Mean, Std and every P² quantile into NaN). N counts only the
	// accepted observations.
	NonFinite int
}

// isFinite reports whether x is an ordinary number (not NaN, not ±Inf).
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Summarize computes sample statistics (unbiased standard deviation).
// Non-finite observations are rejected and counted in Summary.NonFinite
// rather than silently poisoning every moment and quantile.
func Summarize(xs []float64) Summary {
	nonFinite := 0
	for _, x := range xs {
		if !isFinite(x) {
			nonFinite++
		}
	}
	if nonFinite > 0 {
		finite := make([]float64, 0, len(xs)-nonFinite)
		for _, x := range xs {
			if isFinite(x) {
				finite = append(finite, x)
			}
		}
		s := Summarize(finite)
		s.NonFinite = nonFinite
		return s
	}
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile of an already-sorted sample by linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the sample mean.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Std returns the unbiased sample standard deviation.
func Std(xs []float64) float64 { return Summarize(xs).Std }

// Histogram is a fixed-bin histogram.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins the samples into nbins equal-width bins spanning
// [min, max] (expanded slightly so the extremes land inside).
// Non-finite samples are excluded — a NaN would otherwise land in bin 0
// and an Inf would stretch the span to nothing.
func NewHistogram(xs []float64, nbins int) *Histogram {
	if nbins < 1 {
		nbins = 1
	}
	s := Summarize(xs)
	lo, hi := s.Min, s.Max
	if lo == hi {
		lo -= 0.5
		hi += 0.5
	}
	span := hi - lo
	lo -= 1e-9 * span
	hi += 1e-9 * span
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	for _, x := range xs {
		if !isFinite(x) {
			continue
		}
		b := int(float64(nbins) * (x - lo) / (hi - lo))
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// BinCenter returns the center of bin b.
func (h *Histogram) BinCenter(b int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(b)+0.5)*w
}

// Render draws an ASCII histogram (for the cmd/ report tools), with a
// configurable bar width and a value formatter.
func (h *Histogram) Render(width int, format func(float64) string) string {
	if width <= 0 {
		width = 40
	}
	if format == nil {
		format = func(v float64) string { return fmt.Sprintf("%10.4g", v) }
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%s | %-*s %d\n", format(h.BinCenter(i)), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic, used by
// tests to compare MC and GA delay distributions in shape.
func KSDistance(a, b []float64) float64 {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		switch {
		case as[i] < bs[j]:
			i++
		case bs[j] < as[i]:
			j++
		default: // tie: consume the tied value from both samples
			v := as[i]
			for i < len(as) && as[i] == v {
				i++
			}
			for j < len(bs) && bs[j] == v {
				j++
			}
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// BootstrapCI estimates a (lo, hi) confidence interval for a statistic of
// the sample by nonparametric bootstrap with B resamples. level is the
// two-sided confidence level (e.g. 0.95). Deterministic for a given seed.
func BootstrapCI(xs []float64, statFn func([]float64) float64, b int, level float64, seed int64) (lo, hi float64) {
	n := len(xs)
	if n == 0 || b <= 0 {
		return math.NaN(), math.NaN()
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	rng := NewRNG(seed)
	vals := make([]float64, b)
	resample := make([]float64, n)
	for i := 0; i < b; i++ {
		for j := range resample {
			resample[j] = xs[rng.Intn(n)]
		}
		vals[i] = statFn(resample)
	}
	sort.Float64s(vals)
	alpha := (1 - level) / 2
	return Quantile(vals, alpha), Quantile(vals, 1-alpha)
}
