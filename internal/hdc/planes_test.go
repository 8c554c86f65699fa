package hdc

import (
	"testing"

	"github.com/edge-hdc/generic/internal/rng"
)

// laneCount is the reference read-out of one lane of bit-sliced planes.
func laneCount(planes []uint64, b int) int64 {
	var c int64
	for k, p := range planes {
		c |= int64(p>>uint(b)&1) << uint(k)
	}
	return c
}

// TestPlanesReadOut checks both read-outs of bit-sliced counters lane by
// lane against the reference, from no planes up to three spread groups,
// with thresholds that need more bits than there are planes.
func TestPlanesReadOut(t *testing.T) {
	r := rng.New(3)
	dst := make([]int32, WordBits)
	for np := 0; np <= 20; np++ {
		planes := make([]uint64, np)
		for trial := 0; trial < 20; trial++ {
			for k := range planes {
				planes[k] = r.Uint64()
			}
			scale, bias := int32(trial%3+1), int32(trial-10)
			TransposePlanes(dst, planes, scale, bias)
			thr := r.Uint64() % (uint64(4) << uint(np))
			ge := AtLeast(planes, thr)
			for b := 0; b < WordBits; b++ {
				c := laneCount(planes, b)
				if want := int32(int64(scale)*c + int64(bias)); dst[b] != want {
					t.Fatalf("%d planes, lane %d: TransposePlanes = %d, want %d", np, b, dst[b], want)
				}
				if got, want := ge>>uint(b)&1 == 1, uint64(c) >= thr; got != want {
					t.Fatalf("%d planes, lane %d: AtLeast(count %d, thr %d) = %v", np, b, c, thr, got)
				}
			}
		}
	}
}

func TestTransposePlanesLengthGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransposePlanes with a short destination did not panic")
		}
	}()
	TransposePlanes(make([]int32, WordBits-1), nil, 1, 0)
}
