package main

import (
	"math"
	"testing"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{500, 0.98}, {999, 0.98}, {1000, 0.99}, {1999, 0.99}, {2000, 0.995},
		{10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := highestSupported(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
}

func TestTailQuantileLowersToSupportedPercentile(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..500
	}
	v, used, n := tailQuantile(xs, 0.99)
	if used != 0.98 || n != 500 || v != 490 {
		t.Fatalf("tailQuantile(1..500, p99) = %g at p%g of n=%d, want 490 at p98 of n=500", v, used*100, n)
	}
	xs = append(xs, make([]float64, 500)...) // 1000 samples: p99 is supported
	if _, used, _ := tailQuantile(xs, 0.99); used != 0.99 {
		t.Fatalf("n=1000: used p%g, want p99", used*100)
	}
	if v, used, _ := tailQuantile(xs[:10], 0.99); !math.IsNaN(v) || used != 0 {
		t.Fatalf("n=10: got %g at p%g, want NaN at no percentile", v, used*100)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
}

// Stalls confined to a few parts move the pooled p99 but not the lower
// quartile of the parts' p99s.
func TestOverPartsIgnoresStalls(t *testing.T) {
	const n = 16000
	at := make([]float64, n)
	lat := make([]float64, n)
	for i := range at {
		at[i] = float64(i) / n * 16 // 16 s
		lat[i] = 1 + float64(i%100)/100
		if (at[i] >= 3 && at[i] < 3.5) || (at[i] >= 9 && at[i] < 9.2) || at[i] >= 13 {
			lat[i] = 50 // stalls in 5 of 8 parts
		}
	}
	p50, tail, used, k, total := overParts(splitByTime(at, lat, 16, 8), 0.99)
	if used != 0.99 || k != 8 || total != n {
		t.Fatalf("tail at p%g over %d parts of n=%d, want p99 over 8 of n=%d", used*100, k, total, n)
	}
	if math.Abs(tail-1.98) > 1e-9 || math.Abs(p50-1.49) > 1e-9 {
		t.Fatalf("p50 %g, p99 %g; want the undisturbed 1.49 and 1.98", p50, tail)
	}
	if pooled := quantile(lat, 0.99); pooled != 50 {
		t.Fatalf("pooled p99 = %g, want the stalls' 50", pooled)
	}
}

// Parts too small for the percentile are pooled pairwise until they carry it.
func TestOverPartsPoolsSmallParts(t *testing.T) {
	lat := make([]float64, 8000)
	for i := range lat {
		lat[i] = float64(i % 1000)
	}
	split := func(k int) [][]float64 {
		parts := make([][]float64, k)
		for i := range parts {
			parts[i] = lat[i*len(lat)/k : (i+1)*len(lat)/k]
		}
		return parts
	}
	for _, c := range []struct {
		parts   int
		want    float64
		k       int
		atLeast float64
	}{
		{8, 0.99, 8, 0.99},   // 1000 each
		{16, 0.99, 8, 0.99},  // 500 each, pooled to 1000
		{10, 0.99, 5, 0.99},  // 800 each, pooled to 1600
		{8, 0.999, 1, 0.999}, // pooled to one part of 8000, still short of p99.9: p99.5
		{3, 0.5, 3, 0.5},
	} {
		_, _, at, k, n := overParts(split(c.parts), c.want)
		if k != c.k || n != len(lat) {
			t.Errorf("%d parts at p%g: %d parts of n=%d, want %d of %d", c.parts, c.want*100, k, n, c.k, len(lat))
		}
		if c.want == 0.999 {
			if at != 0.995 {
				t.Errorf("p99.9 of 8000: used p%g, want p99.5", at*100)
			}
		} else if at != c.atLeast {
			t.Errorf("%d parts at p%g: used p%g", c.parts, c.want*100, at*100)
		}
	}
	if _, tail, at, _, _ := overParts([][]float64{lat[:5], lat[:10]}, 0.99); at != 0 || !math.IsNaN(tail) {
		t.Fatalf("15 samples: p%g = %g, want NaN at no percentile", at*100, tail)
	}
}

// splitByTime splits samples into k equal time windows over [0, span); at
// holds the samples' times.
func splitByTime(at, vals []float64, span float64, k int) [][]float64 {
	win := make([][]float64, k)
	for i, t := range at {
		j := max(0, min(k-1, int(t/span*float64(k))))
		win[j] = append(win[j], vals[i])
	}
	return win
}
