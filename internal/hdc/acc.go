package hdc

// Acc bundles binary hypervectors: it counts, per dimension, how many of the
// added vectors had bit 1. Counts are kept bit-sliced — plane j holds bit j
// of every dimension's counter — so adding a vector costs a handful of word
// operations per 64 dimensions instead of 64 integer additions. This mirrors
// the counter-based bundling datapath of HDC accelerators.
//
// After adding W vectors, the bipolar bundle value of dimension i is
// 2·count(i) − W, which Bipolar() materializes into an integer vector.
type Acc struct {
	d      int
	n      int // number of vectors added
	planes [][]uint64
	carry  []uint64 // scratch for the ripple-carry add
}

// NewAcc returns an empty accumulator of d dimensions.
func NewAcc(d int) *Acc {
	checkDim(d)
	return &Acc{d: d}
}

// D returns the dimensionality.
func (a *Acc) D() int { return a.d }

// Count returns the number of vectors added so far.
func (a *Acc) Count() int { return a.n }

// Reset empties the accumulator for reuse without reallocating planes.
//
//generic:hotpath
func (a *Acc) Reset() {
	a.n = 0
	for _, p := range a.planes {
		for i := range p {
			p[i] = 0
		}
	}
}

// Add bundles v into the accumulator.
func (a *Acc) Add(v *BitVec) {
	mustSameDim("Acc.Add", v.d, a.d)
	a.n++
	nw := a.d / WordBits
	// Ripple-carry add of the 1-bit vector into the bit-sliced counters.
	if a.carry == nil {
		//lint:ignore generic/escapes one-time carry-buffer growth behind the nil guard above
		a.carry = make([]uint64, nw)
	}
	carry := a.carry
	copy(carry, v.words)
	for j := 0; ; j++ {
		if j == len(a.planes) {
			//lint:ignore generic/hotalloc,generic/escapes plane growth is amortized: ceil(log2(n)) appends over an accumulator's lifetime, not per call
			a.planes = append(a.planes, make([]uint64, nw))
		}
		plane := a.planes[j]
		done := true
		for w := 0; w < nw; w++ {
			c := carry[w]
			if c == 0 {
				continue
			}
			old := plane[w]
			plane[w] = old ^ c
			carry[w] = old & c
			if carry[w] != 0 {
				done = false
			}
		}
		if done {
			return
		}
	}
}

// CountAt returns the per-dimension count for dimension i.
func (a *Acc) CountAt(i int) int {
	c := 0
	w, b := i/WordBits, uint(i)%WordBits
	for j, p := range a.planes {
		c |= int(p[w]>>b&1) << uint(j)
	}
	return c
}

// Counts writes the per-dimension counts into dst, which must have length D.
//
//generic:hotpath
func (a *Acc) Counts(dst []int32) {
	mustSameDim("Acc.Counts", len(dst), a.d)
	a.transpose(dst, 1, 0)
}

// Bipolar writes the bipolar bundle 2·count − n into dst (length D).
//
//generic:hotpath
func (a *Acc) Bipolar(dst []int32) {
	mustSameDim("Acc.Bipolar", len(dst), a.d)
	a.transpose(dst, 2, -int32(a.n))
}

// transpose writes scale·count + bias per dimension, one word of planes at
// a time through TransposePlanes.
//
//generic:hotpath
func (a *Acc) transpose(dst []int32, scale, bias int32) {
	var pw [WordBits]uint64
	for w := 0; w < a.d/WordBits; w++ {
		TransposePlanes(dst[w*WordBits:(w+1)*WordBits], a.planesAt(w, &pw), scale, bias)
	}
}

// planesAt gathers word w of every plane into pw, which has room for the
// bit length of any int count.
//
//generic:hotpath
func (a *Acc) planesAt(w int, pw *[WordBits]uint64) []uint64 {
	for k, p := range a.planes {
		pw[k] = p[w]
	}
	return pw[:len(a.planes)]
}

// MajorityInto materializes the sign-binarized bundle directly into out:
// bit i is 1 exactly when the bipolar bundle value 2·count(i) − n is >= 0,
// i.e. count(i) >= ceil(n/2) — the same v >= 0 → +1 rule BinVec.PackSigns
// applies to integer counters, so MajorityInto(out) equals Bipolar(tmp) +
// PackSigns(tmp) without materializing the integer vector. An empty
// accumulator yields all ones (sign(0) → +1), matching PackSigns on a zero
// counter vector.
//
// The comparison runs word-parallel on the bit-sliced counter planes
// through AtLeast.
//
//generic:hotpath
func (a *Acc) MajorityInto(out *BinVec) {
	mustSameDim("Acc.MajorityInto", out.d, a.d)
	thr := uint64(a.n+1) / 2
	var pw [WordBits]uint64
	for w := range out.words {
		out.words[w] = AtLeast(a.planesAt(w, &pw), thr)
	}
	out.words[len(out.words)-1] &= tailMask(out.d)
}

// Threshold materializes the majority vote: bit i of the result is 1 when
// more than half the added vectors had bit 1 there. Ties (possible only for
// even counts) break toward 0. It panics if the accumulator is empty.
func (a *Acc) Threshold() *BitVec {
	if a.n == 0 {
		panic("hdc: Threshold on empty accumulator")
	}
	counts := make([]int32, a.d)
	a.Counts(counts)
	out := NewBitVec(a.d)
	half := int32(a.n)
	for i, c := range counts {
		if 2*c > half {
			out.SetBit(i, 1)
		}
	}
	return out
}
