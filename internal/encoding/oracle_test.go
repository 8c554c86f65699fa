package encoding

import (
	"fmt"
	"testing"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// oracleEncode is the reference windowed encode the shared kernel must
// reproduce bit for bit: every bound window is rippled into an hdc.Acc one
// at a time, and the bundle is read back lane by lane with CountAt, so
// neither the carry-save count nor the plane transpose is involved.
func oracleEncode(e *windowedEncoder, x []float64, out hdc.Vec) {
	d, n := e.cfg.D, e.cfg.N
	acc := hdc.NewAcc(d)
	win := hdc.NewBitVec(d)
	bins := make([]int, len(x))
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	for i := 0; i+n <= len(x); i++ {
		win.CopyFrom(e.rotLevels[0][bins[i]])
		for j := 1; j < n; j++ {
			hdc.XorAccumulate(win, e.rotLevels[j][bins[i+j]])
		}
		if e.useID {
			hdc.XorAccumulate(win, e.ids[i])
		}
		acc.Add(win)
	}
	for i := range out {
		out[i] = int32(2*acc.CountAt(i) - acc.Count())
	}
}

// checkAgainstOracle asserts Encode equals the oracle exactly and that
// EncodeBin equals the packed signs of Encode.
func checkAgainstOracle(t *testing.T, e *windowedEncoder, x []float64) {
	t.Helper()
	d := e.cfg.D
	got, want := hdc.NewVec(d), hdc.NewVec(d)
	e.Encode(x, got)
	oracleEncode(e, x, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Encode[%d] = %d, oracle %d", i, got[i], want[i])
		}
	}
	packed, bin := hdc.NewBinVec(d), hdc.NewBinVec(d)
	packed.PackSigns(got)
	e.EncodeBin(x, bin)
	if !bin.Equal(packed) {
		t.Fatal("EncodeBin != PackSigns(Encode)")
	}
}

// mutateMaterial flips bits of the live level rows and id seed in place and
// rebuilds the derived material, as the fault layer does.
func mutateMaterial(e *windowedEncoder, r *rng.Rand) {
	for _, row := range e.LevelRows() {
		row.FlipBits(0.05, r)
	}
	if seed := e.IDSeed(); seed != nil {
		seed.FlipBits(0.05, r)
	}
	e.RebuildDerived()
}

// TestWindowedEncodeMatchesOracle pins the shared counting kernel to the
// per-window Acc oracle on every benchmark's test inputs, for window widths
// 1–8 with and without ids, on pristine and in-place mutated material. Each
// case also runs on a prefix of the features sized so the window count W
// equals N, covering W = 1…8 (fewer than three counter planes, and W not a
// multiple of eight); the full feature counts reach W = 256 (nine planes).
func TestWindowedEncodeMatchesOracle(t *testing.T) {
	const d, inputs = 512, 3
	for _, name := range dataset.Names() {
		ds := dataset.MustLoad(name, 1)
		for n := 1; n <= 8; n++ {
			for _, useID := range []bool{false, true} {
				for _, features := range []int{ds.Features, min(ds.Features, 2*n-1)} {
					t.Run(fmt.Sprintf("%s/N%d/F%d/id%v", name, n, features, useID), func(t *testing.T) {
						cfg := Config{D: d, Features: features, Lo: ds.Lo, Hi: ds.Hi, N: n, UseID: useID, Seed: uint64(n)}
						e := MustNew(Generic, cfg).(*windowedEncoder)
						r := rng.New(uint64(7*n + features))
						for pass := 0; pass < 2; pass++ {
							for k := 0; k < inputs; k++ {
								checkAgainstOracle(t, e, ds.TestX[(pass*inputs+k)*11%len(ds.TestX)][:features])
							}
							mutateMaterial(e, r)
						}
					})
				}
			}
		}
	}
}
