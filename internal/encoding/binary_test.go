package encoding

import (
	"fmt"
	"testing"
	"time"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// binTestConfigs spans every encoder family and, for the windowed fused
// kernel, window counts below, at, and beyond the Harley-Seal block size of
// eight (windows = Features − N + 1), with and without the id binding.
var binTestConfigs = []struct {
	kind Kind
	cfg  Config
}{
	{RP, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 11}},
	{LevelID, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 12}},
	{Permute, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 13}},
	{Generic, Config{D: 2048, Features: 128, Lo: 0, Hi: 1, Seed: 1, UseID: true}},    // 127 windows: blocks + remainder
	{Generic, Config{D: 1024, Features: 21, N: 4, Lo: -1, Hi: 1, Seed: 7}},           // default gather path, no id
	{Generic, Config{D: 512, Features: 5, N: 2, Lo: 0, Hi: 1, Seed: 2}},              // 4 windows: remainder only
	{Generic, Config{D: 512, Features: 9, N: 2, Lo: 0, Hi: 1, Seed: 3, UseID: true}}, // exactly one block
	{Generic, Config{D: 512, Features: 10, N: 3, Lo: 0, Hi: 1, Seed: 5, UseID: true}},
	{Generic, Config{D: 512, Features: 12, N: 3, Lo: 0, Hi: 1, Seed: 6}}, // 10 windows: block + 2 remainder
	{Ngram, Config{D: 512, Features: 9, N: 2, Lo: 0, Hi: 1, Seed: 3}},
	{Ngram, Config{D: 1024, Features: 30, N: 5, Lo: 0, Hi: 1, Seed: 9}},
}

func randomInput(n int, r *rng.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

// TestEncodeBinEquivalence locks the BinaryEncoder contract: EncodeBin(x)
// is bit-identical to PackSigns(Encode(x)) for every library encoder.
func TestEncodeBinEquivalence(t *testing.T) {
	for _, tc := range binTestConfigs {
		t.Run(fmt.Sprintf("%v_F%d_N%d_id%v", tc.kind, tc.cfg.Features, tc.cfg.N, tc.cfg.UseID), func(t *testing.T) {
			e := MustNew(tc.kind, tc.cfg)
			be, ok := AsBinary(e)
			if !ok {
				t.Fatalf("%v encoder does not implement BinaryEncoder", tc.kind)
			}
			cfg := tc.cfg.Default()
			r := rng.New(tc.cfg.Seed * 1000003)
			ref := hdc.NewVec(cfg.D)
			want := hdc.NewBinVec(cfg.D)
			got := hdc.NewBinVec(cfg.D)
			for trial := 0; trial < 20; trial++ {
				x := randomInput(cfg.Features, r)
				e.Encode(x, ref)
				want.PackSigns(ref)
				be.EncodeBin(x, got)
				if !got.Equal(want) {
					t.Fatalf("trial %d: EncodeBin != PackSigns(Encode)", trial)
				}
			}
		})
	}
}

// TestEncodeBinCloneMaterial checks the pooled-clone path the pipeline's
// concurrent Predict relies on: a material clone must produce the same
// binarized bits as the primary encoder.
func TestEncodeBinCloneMaterial(t *testing.T) {
	for _, tc := range binTestConfigs {
		e := MustNew(tc.kind, tc.cfg)
		mc, ok := e.(MaterialCloner)
		if !ok {
			continue
		}
		clone := mc.CloneMaterial()
		be, _ := AsBinary(e)
		bc, ok := AsBinary(clone)
		if !ok {
			t.Fatalf("%v: CloneMaterial clone lost the binarized path", tc.kind)
		}
		cfg := tc.cfg.Default()
		r := rng.New(99)
		a := hdc.NewBinVec(cfg.D)
		b := hdc.NewBinVec(cfg.D)
		for trial := 0; trial < 5; trial++ {
			x := randomInput(cfg.Features, r)
			be.EncodeBin(x, a)
			bc.EncodeBin(x, b)
			if !a.Equal(b) {
				t.Fatalf("%v trial %d: clone EncodeBin differs from primary", tc.kind, trial)
			}
		}
	}
}

func TestEncodeBinArgGuards(t *testing.T) {
	e := MustNew(Generic, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 1})
	be, _ := AsBinary(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EncodeBin with wrong feature count did not panic")
			}
		}()
		be.EncodeBin(make([]float64, 7), hdc.NewBinVec(512))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EncodeBin with wrong output dimensionality did not panic")
			}
		}()
		be.EncodeBin(make([]float64, 16), hdc.NewBinVec(256))
	}()
}

// TestEncodeBinDeterministic: same input, same bits — across repeated calls
// on one encoder (scratch reuse must not leak state between calls).
func TestEncodeBinDeterministic(t *testing.T) {
	e := MustNew(Generic, Config{D: 1024, Features: 32, N: 3, Lo: 0, Hi: 1, Seed: 21, UseID: true})
	be, _ := AsBinary(e)
	r := rng.New(5)
	x1 := randomInput(32, r)
	x2 := randomInput(32, r)
	first := hdc.NewBinVec(1024)
	be.EncodeBin(x1, first)
	scratch := hdc.NewBinVec(1024)
	be.EncodeBin(x2, scratch) // interleave a different input to dirty scratch
	again := hdc.NewBinVec(1024)
	be.EncodeBin(x1, again)
	if !first.Equal(again) {
		t.Fatal("EncodeBin not deterministic across interleaved calls")
	}
}

// eegBench builds the GENERIC encoder the serving path uses for EEG at
// D=2048 and returns it with the EEG test split, so the encode benchmarks
// rotate over real inputs: one repeated input keeps its level rows and the
// transposed window buffer hot in cache and understates the per-request
// cost.
func eegBench(b *testing.B) (*windowedEncoder, [][]float64) {
	b.Helper()
	ds := dataset.MustLoad("EEG", 1)
	cfg := Config{D: 2048, Features: ds.Features, Lo: ds.Lo, Hi: ds.Hi, UseID: ds.UseID, Seed: 1}
	return MustNew(Generic, cfg).(*windowedEncoder), ds.TestX
}

func BenchmarkEncodeExact(b *testing.B) {
	e, xs := eegBench(b)
	out := hdc.NewVec(e.D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(xs[i%len(xs)], out)
	}
}

func BenchmarkEncodeBin(b *testing.B) {
	e, xs := eegBench(b)
	out := hdc.NewBinVec(e.D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeBin(xs[i%len(xs)], out)
	}
}

// BenchmarkEncodeExactOverBin interleaves the two endings of the windowed
// kernel on the same rotating inputs and reports their per-encode times and
// the exact/bin ratio from one same-host run.
func BenchmarkEncodeExactOverBin(b *testing.B) {
	e, xs := eegBench(b)
	out := hdc.NewVec(e.D())
	bout := hdc.NewBinVec(e.D())
	var exact, bin time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		t0 := time.Now()
		e.Encode(x, out)
		t1 := time.Now()
		e.EncodeBin(x, bout)
		exact += t1.Sub(t0)
		bin += time.Since(t1)
	}
	b.ReportMetric(float64(exact.Nanoseconds())/float64(b.N), "exact-ns/op")
	b.ReportMetric(float64(bin.Nanoseconds())/float64(b.N), "bin-ns/op")
	b.ReportMetric(float64(exact)/float64(bin), "exact/bin")
}
