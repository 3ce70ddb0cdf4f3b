package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations of one request kind.
type samples []time.Duration

// quantile returns the q-quantile with linear interpolation between
// closest ranks (0 for no samples).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[hi]-c[lo]))
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantileFloat returns the q-quantile of xs with linear interpolation
// (0 for none).
func quantileFloat(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return c[lo] + (pos-float64(lo))*(c[hi]-c[lo])
}

func medianFloat(xs []float64) float64 { return quantileFloat(xs, 0.5) }

// timeIt returns fn's wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// A measured phase is cut into at most maxWindows equal windows, and
// into fewer when that would leave a window with under minWindowSamples
// requests on average.
const (
	maxWindows       = 20
	minWindowSamples = 200
)

// Rates and latency quantiles are reported as the median over windows:
// the box the benchmark runs on is shared, and work from outside the
// benchmark comes in bursts that then move a few windows, not the
// result.
const overWindows = 0.5

// series is a phase's requests of one kind: each request's latency and
// when it completed, measured from the phase start.
type series struct {
	lat samples
	at  []time.Duration
}

func (s *series) add(at, d time.Duration) {
	s.lat = append(s.lat, d)
	s.at = append(s.at, at)
}

func (s *series) merge(o series) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
}

// windowed cuts a phase of length wall into equal windows and returns
// the q-quantile over windows of f(latencies in the window, window
// length).
func (s series) windowed(wall time.Duration, q float64, f func(w samples, span time.Duration) float64) float64 {
	n := min(max(len(s.lat)/minWindowSamples, 1), maxWindows)
	span := wall / time.Duration(n)
	ws := make([]samples, n)
	for i, at := range s.at {
		k := min(int(at/span), n-1)
		ws[k] = append(ws[k], s.lat[i])
	}
	vals := make([]float64, 0, n)
	for _, w := range ws {
		if len(w) > 0 {
			vals = append(vals, f(w, span))
		}
	}
	return quantileFloat(vals, q)
}

// rate is the median over windows of requests per second.
func (s series) rate(wall time.Duration) float64 {
	return s.windowed(wall, overWindows, func(w samples, span time.Duration) float64 { return float64(len(w)) / span.Seconds() })
}

// q is the median over windows of the windows' q-quantile latency.
func (s series) q(wall time.Duration, q float64) time.Duration {
	return time.Duration(s.windowed(wall, overWindows, func(w samples, _ time.Duration) float64 { return float64(w.quantile(q)) }))
}
