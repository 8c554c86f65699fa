package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999}

// tailAt is the percentile of the bounded latency-tail metrics. On a shared
// VM a second latency mode, from vCPUs woken late by the hypervisor, holds
// 5-25% of requests depending on rate and host load: p90 and p95 straddle
// it and flip between runs, and p99 follows CPU steal. p75 is the highest
// percentile that stays inside the program's own mode; the report still
// prints each stream's highest supported percentile.
const tailAt = 0.75

// minBeyond is how many samples must lie above a reported percentile: a
// tail quantile resting on fewer points is one noisy sample, not a tail.
const minBeyond = 10

// beyond is the number of samples above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// highestSupported is the highest percentile of tailLadder with at least
// minBeyond samples beyond it in a set of n, or 0 when even the median has
// too few.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// tailQuantile reports a set's tail at want (a named percentile such as
// p99), lowered to the highest supported percentile when the set is too
// small to carry it. It returns the value, the percentile actually used and
// the sample count; used is 0 and the value NaN for a set too small for any.
func tailQuantile(xs []float64, want float64) (v, used float64, n int) {
	used = math.Min(want, highestSupported(len(xs)))
	if used == 0 {
		return math.NaN(), 0, len(xs)
	}
	return quantile(xs, used), used, len(xs)
}

// quantile is the nearest-rank q-quantile of xs: the smallest sample with at
// least a q share of the set at or below it. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// bestQuarter is the quantile over a run's parts (rounds, or time windows of
// one phase) that reports the program's better stretches: the lower quartile
// of latencies, and (through 1-bestQuarter) the upper quartile of
// throughputs. Interference from outside the program (a vCPU descheduled by
// the hypervisor, a noisy neighbour) only ever adds latency and removes
// throughput, and on a shared host it arrives in stretches of seconds that
// can cover most of a round; a statistic that lets three quarters of the
// parts be disturbed follows the program instead of the host.
const bestQuarter = 0.25

// overParts summarises a latency stream measured in parts: over the parts,
// the bestQuarter quantile of each part's median and of each part's tail at
// want. Neighbouring parts are pooled pairwise until each carries want
// under the percentile rule (or one part is left, whose tail is then taken
// at the highest percentile it supports). at is the percentile used (0,
// with NaN values, when the samples cannot carry even a median), k the
// number of parts and n the sample count.
func overParts(parts [][]float64, want float64) (p50, tail, at float64, k, n int) {
	for len(parts) > 1 && highestSupported(smallest(parts)) < want {
		merged := make([][]float64, 0, (len(parts)+1)/2)
		for i := 0; i < len(parts); i += 2 {
			p := parts[i]
			if i+1 < len(parts) {
				p = append(append([]float64{}, p...), parts[i+1]...)
			}
			merged = append(merged, p)
		}
		parts = merged
	}
	for _, p := range parts {
		n += len(p)
	}
	at = math.Min(want, highestSupported(smallest(parts)))
	if at == 0 {
		return math.NaN(), math.NaN(), 0, len(parts), n
	}
	meds := make([]float64, len(parts))
	tails := make([]float64, len(parts))
	for i, p := range parts {
		meds[i], tails[i] = median(p), quantile(p, at)
	}
	return quantile(meds, bestQuarter), quantile(tails, bestQuarter), at, len(parts), n
}

func smallest(parts [][]float64) int {
	m := -1
	for _, p := range parts {
		if m < 0 || len(p) < m {
			m = len(p)
		}
	}
	return max(m, 0)
}
