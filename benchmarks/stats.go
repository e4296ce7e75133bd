package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.  xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// The harness has three estimators of what a timing would read on a quiet
// host, because interference on a shared host only ever adds time (README,
// "Noise, and what the harness does about it").
//
// fastest is the minimum.  It suits an op so short that even a busy
// neighbour leaves gaps of its length, and it is what a workload of tens of
// thousands of sub-millisecond samples reports.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// lowerQuartile suits samples already corrected by the reference sweep:
// the correction's own error falls on both sides, so the extreme low end
// of those samples is the sweep's luck and not the program's cost.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// p10, the lower decile, is what the layer replays and set-up report: a few
// hundred raw samples of one call, or a few tens of builds.
func p10(xs []float64) float64 { return quantile(xs, 0.10) }

// assemble builds an op time from its phase samples: one init phase plus
// steps repetitions of the step phase, each at the workload's quiet-host
// estimate.  An op with a single phase passes no init samples and steps = 1.
func assemble(quiet func([]float64) float64, init, step []float64, steps int) float64 {
	return quiet(init) + float64(steps)*quiet(step)
}

// quietShare is the share of samples within 5% of their lower decile: how
// much of the run the host left undisturbed.
func quietShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lim := p10(xs) * 1.05
	n := 0
	for _, x := range xs {
		if x <= lim {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// quartiles returns the first and third quartile of sorted xs (at least
// two values) the way Python's statistics.quantiles(xs, n=4) does, which is
// how the driver measures run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(3)
}
