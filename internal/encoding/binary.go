// Binarized query path: every library encoder can emit the sign-binarized
// hypervector sign(H(x)) directly into a packed hdc.BinVec, without
// materializing the intermediate integer vector. This is the encode side of
// the binary inference engine. The level-based encoders take the majority
// word-parallel on their accumulator's bit-sliced counters. The windowed
// (GENERIC/ngram) encoder shares its gather and carry-save counting passes
// with the exact Encode and differs only in the ending: a threshold compare
// on the counter planes instead of their transpose into integers.
//
// Contract: for any encoder e and input x, EncodeBin(x) produces exactly
// PackSigns(Encode(x)) — the equivalence tests lock this bit-identically.
package encoding

import (
	"fmt"
	"math/bits"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// BinaryEncoder is implemented by encoders that can produce a packed
// sign-binarized hypervector directly. All library encoders implement it.
type BinaryEncoder interface {
	Encoder
	// EncodeBin writes sign(H(x)) into out, which must have dimensionality
	// D(). The result is bit-identical to packing the signs of Encode(x).
	EncodeBin(x []float64, out *hdc.BinVec)
}

// AsBinary reports e's binarized query path, if it has one.
func AsBinary(e Encoder) (BinaryEncoder, bool) {
	be, ok := e.(BinaryEncoder)
	return be, ok
}

//generic:hotpath
func checkEncodeBinArgs(features, d int, x []float64, out *hdc.BinVec) {
	if len(x) != features {
		panic(fmt.Sprintf("encoding: input has %d features, encoder expects %d", len(x), features))
	}
	if out.D() != d {
		panic(fmt.Sprintf("encoding: binary output dimensionality %d, want %d", out.D(), d))
	}
}

// EncodeBin for RP packs the projection signs directly: bit i = 1 exactly
// when the accumulated projection is >= 0, matching sign(Φx) → ±1 → pack.
//
//generic:hotpath
func (e *rpEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(len(e.rows), e.d, x, out)
	acc := e.acc
	for i := range acc {
		acc[i] = 0
	}
	for m, v := range x {
		row := e.rows[m]
		if v == 0 {
			continue
		}
		for i, p := range row {
			acc[i] += v * p
		}
	}
	words := out.Words()
	for w := range words {
		var word uint64
		base := w * hdc.WordBits
		for b := 0; b < hdc.WordBits; b++ {
			if acc[base+b] >= 0 {
				word |= 1 << uint(b)
			}
		}
		words[w] = word
	}
	telemetry.EncodeNS.ObserveSince(start)
}

//generic:hotpath
func (e *levelIDEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(len(e.ids), e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.XorInto(e.bound, lv, e.ids[m])
		e.acc.Add(e.bound)
	}
	e.acc.MajorityInto(out)
	telemetry.EncodeNS.ObserveSince(start)
}

//generic:hotpath
func (e *permuteEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.RotateInto(e.rot, lv, m)
		e.acc.Add(e.rot)
	}
	e.acc.MajorityInto(out)
	telemetry.EncodeNS.ObserveSince(start)
}

// csa is a carry-save full adder over 64 lanes: sum = a ^ b ^ c,
// carry = majority(a, b, c). Small enough to inline into the hot loop.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// gather is pass 1 of the windowed kernel shared by Encode and EncodeBin:
// it quantizes x and XOR-binds each window's rotated level rows (and id)
// into the transposed buffer e.win. It returns the window count W. The
// common window widths keep every row header in a register; other widths
// go through the rows scratch.
//
//generic:hotpath
func (e *windowedEncoder) gather(x []float64) int {
	n := e.cfg.N
	bins := e.bins
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	nw := e.cfg.D / hdc.WordBits
	windows := len(x) - n + 1
	win := e.win
	for i := 0; i < windows; i++ {
		var id []uint64
		if e.useID {
			id = e.ids[i].Words()
		}
		switch n {
		case 2:
			r0 := e.rotLevels[0][bins[i]].Words()
			r1 := e.rotLevels[1][bins[i+1]].Words()
			if id != nil {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ id[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w]
				}
			}
		case 3:
			r0 := e.rotLevels[0][bins[i]].Words()
			r1 := e.rotLevels[1][bins[i+1]].Words()
			r2 := e.rotLevels[2][bins[i+2]].Words()
			if id != nil {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ r2[w] ^ id[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ r2[w]
				}
			}
		default:
			rows := e.rows
			for j := 0; j < n; j++ {
				rows[j] = e.rotLevels[j][bins[i+j]].Words()
			}
			r0 := rows[0]
			for w := 0; w < nw; w++ {
				t := r0[w]
				for j := 1; j < n; j++ {
					t ^= rows[j][w]
				}
				if id != nil {
					t ^= id[w]
				}
				win[w*windows+i] = t
			}
		}
	}
	return windows
}

// countPlanes is pass 2 of the windowed kernel for one 64-lane word: it
// counts, per lane, how many words of row have that bit set, and returns
// the counts bit-sliced in pl[:bits.Len(len(row))] (plane k holds bit k of
// every lane's count; pl has room for the bit length of any int count).
//
// The count is a Harley-Seal carry-save tree: seven full adders compress
// eight windows into running weight-1/2/4 registers plus one weight-8 word,
// and only that weight-8 word ripples into the higher planes — one plane
// visit per eight windows instead of one ripple per window.
//
//generic:hotpath
func countPlanes(row []uint64, pl *[hdc.WordBits]uint64) []uint64 {
	nk := bits.Len(uint(len(row)))
	hi := pl[3:max(nk, 3)]
	for k := range hi {
		hi[k] = 0
	}
	var ones, twos, fours uint64
	i := 0
	for ; i+8 <= len(row); i += 8 {
		var twosA, twosB, foursA, foursB, eights uint64
		ones, twosA = csa(row[i], row[i+1], ones)
		ones, twosB = csa(row[i+2], row[i+3], ones)
		twos, foursA = csa(twosA, twosB, twos)
		ones, twosA = csa(row[i+4], row[i+5], ones)
		ones, twosB = csa(row[i+6], row[i+7], ones)
		twos, foursB = csa(twosA, twosB, twos)
		fours, eights = csa(foursA, foursB, fours)
		for k := 0; eights != 0; k++ {
			hi[k], eights = hi[k]^eights, hi[k]&eights
		}
	}
	for ; i < len(row); i++ {
		a := row[i]
		c2 := ones & a
		ones ^= a
		c4 := twos & c2
		twos ^= c2
		c8 := fours & c4
		fours ^= c4
		for k := 0; c8 != 0; k++ {
			hi[k], c8 = hi[k]^c8, hi[k]&c8
		}
	}
	pl[0], pl[1], pl[2] = ones, twos, fours
	return pl[:nk]
}

// EncodeBin is the binary ending of the windowed kernel: each word's
// counter planes go straight into the majority compare
// count >= ceil(W/2), i.e. 2·count − W >= 0 — the sign rule — so the
// integer hypervector never exists.
//
//generic:hotpath
func (e *windowedEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	windows := e.gather(x)
	thr := uint64(windows+1) / 2
	var pl [hdc.WordBits]uint64
	words := out.Words()
	for w := range words {
		words[w] = hdc.AtLeast(countPlanes(e.win[w*windows:(w+1)*windows], &pl), thr)
	}
	telemetry.EncodeNS.ObserveSince(start)
}
