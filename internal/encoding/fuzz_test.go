package encoding

import (
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
)

// FuzzGenericEncode drives the GENERIC encoder through adversarial configs
// and inputs. Invalid configurations must surface as New errors — never
// panics — and any valid encoder must be deterministic two ways: re-encoding
// with the same encoder (scratch-state reuse) and encoding with a fresh
// encoder rebuilt from Config() both reproduce the hypervector bit for bit.
// It also holds the shared windowed kernel to its two contracts: Encode
// equals the per-window Acc oracle, and EncodeBin equals PackSigns(Encode).
func FuzzGenericEncode(f *testing.F) {
	// Seed corpus: the window edge cases called out in the encoder docs.
	f.Add(uint64(1), 512, 8, 3, 16, true, []byte{0, 17, 200, 63, 5})   // nominal
	f.Add(uint64(2), 256, 2, 5, 8, true, []byte{1, 2})                 // window n > feature count
	f.Add(uint64(3), 100, 6, 3, 8, false, []byte{9, 9, 9})             // d=100 does not divide into 64-bit words
	f.Add(uint64(4), 256, 0, 3, 8, true, []byte{})                     // zero-feature input
	f.Add(uint64(5), 256, 6, 6, 8, false, []byte{40, 80, 120})         // id disabled, single full-width window
	f.Add(uint64(6), 512, 4, 3, -1, true, []byte{7})                   // negative bin count
	f.Add(uint64(7), 512, 4, -2, 16, true, []byte{7})                  // negative window length
	f.Add(uint64(8), 512, 5, 3, 16, true, []byte{255, 254, 3, 255, 0}) // NaN / +Inf features

	f.Fuzz(func(t *testing.T, seed uint64, d, features, n, bins int, useID bool, data []byte) {
		// Bound only the success-path allocation size; negative and
		// otherwise-invalid values stay in play so New's validation is
		// exercised.
		if d > 2048 || features > 64 || n > 32 || bins > 1025 {
			t.Skip("config too large for the fuzz harness")
		}
		cfg := Config{D: d, Features: features, Bins: bins, Lo: -4, Hi: 4, N: n, UseID: useID, Seed: seed}
		e, err := New(Generic, cfg)
		if err != nil {
			return // invalid configs must error, not panic
		}

		x := make([]float64, features)
		for i := range x {
			if len(data) == 0 {
				break
			}
			switch b := data[i%len(data)]; b {
			case 255:
				x[i] = math.NaN()
			case 254:
				x[i] = math.Inf(1)
			default:
				x[i] = (float64(b) - 128) / 16 // spills past [Lo, Hi] to hit the clamp bins
			}
		}

		out := hdc.NewVec(e.D())
		e.Encode(x, out)

		again := hdc.NewVec(e.D())
		e.Encode(x, again)
		if !vecsEqual(out, again) {
			t.Fatalf("re-encode with the same encoder diverged (cfg %+v)", e.Config())
		}

		fresh, err := New(e.Kind(), e.Config())
		if err != nil {
			t.Fatalf("Config() of a valid encoder was rejected: %v", err)
		}
		rebuilt := hdc.NewVec(fresh.D())
		fresh.Encode(x, rebuilt)
		if !vecsEqual(out, rebuilt) {
			t.Fatalf("fresh encoder from Config() diverged (cfg %+v)", e.Config())
		}

		checkAgainstOracle(t, e.(*windowedEncoder), x)
	})
}

func vecsEqual(a, b hdc.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
