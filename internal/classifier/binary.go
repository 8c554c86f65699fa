package classifier

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// BinaryModel is the packed binary inference representation: one
// sign-binarized hypervector per class, scored by Hamming distance (XOR +
// popcount) instead of the integer dot product — the BinHD-style limit case
// of the accelerator's bw-programmable memories. It is derived from a
// trained Model by Binarize and is immutable under inference; training and
// adaptation stay on the integer Model, which re-derives the packed classes
// it touched.
//
// Scoring equivalence: on a sign-binarized model every class vector is
// bipolar, so all (sub-)norms equal the scored dimension count and the
// modified-cosine ranking degenerates to the dot-product ranking, which is
// exactly the min-Hamming ranking (dot = dims − 2·hamming). BinaryModel
// therefore predicts bit-identically to the integer path on a Quantize(1)
// model — the golden equivalence test locks this.
type BinaryModel struct {
	d        int
	classes  []*hdc.BinVec
	sourceBW int // bit-width of the counters this model was binarized from
}

// Binarize packs the sign of every class counter of m (v >= 0 → +1) into a
// binary model. The source model is not modified.
func Binarize(m *Model) *BinaryModel {
	b := &BinaryModel{d: m.d, sourceBW: m.bw, classes: make([]*hdc.BinVec, len(m.classes))}
	for c, cv := range m.classes {
		bv := hdc.NewBinVec(m.d)
		bv.PackSigns(cv)
		b.classes[c] = bv
	}
	return b
}

// D returns the dimensionality; Classes the class count; SourceBW the
// class-element bit-width of the integer model this was binarized from
// (binarization provenance, persisted by modelio v4).
func (b *BinaryModel) D() int        { return b.d }
func (b *BinaryModel) Classes() int  { return len(b.classes) }
func (b *BinaryModel) SourceBW() int { return b.sourceBW }

// Class exposes class c's packed hypervector. Callers must not modify it;
// the fault layer (internal/faults) is the sanctioned exception — it flips
// stored bits in place to model memory errors on the packed representation.
func (b *BinaryModel) Class(c int) *hdc.BinVec { return b.classes[c] }

// RebinarizeClass re-derives class c's packed vector from the integer model
// — the maintenance hook for online adaptation, which touches at most two
// classes per step.
func (b *BinaryModel) RebinarizeClass(m *Model, c int) {
	if m.d != b.d {
		panic(fmt.Sprintf("classifier: RebinarizeClass D=%d, binary model D=%d", m.d, b.d))
	}
	b.classes[c].PackSigns(m.classes[c])
	b.sourceBW = m.bw
}

// Predict returns the class whose packed vector is nearest to the packed
// query q in Hamming distance, and that distance. Ties break toward the
// lower class index, like the integer path.
//
//generic:hotpath
func (b *BinaryModel) Predict(q *hdc.BinVec) (class, hamming int) {
	return b.PredictDims(q, b.d)
}

// PredictDims scores only the first dims dimensions (rounded down to the
// sub-norm granularity, minimum one chunk — the exact path's rounding), the
// packed form of on-demand dimension reduction. On a bipolar model the
// per-chunk norms are the chunk sizes, so no sub-norm memory is consulted:
// min-Hamming over the prefix is already the updated-norms ranking.
//
//generic:hotpath
func (b *BinaryModel) PredictDims(q *hdc.BinVec, dims int) (class, hamming int) {
	class, hamming, _ = b.PredictDimsMargin(q, dims)
	return class, hamming
}

// PredictDimsMargin is PredictDims plus the normalized top-2 confidence
// margin: the Hamming gap between the two nearest classes over the scored
// dimension count, the binary-mode analogue of the exact path's score-gap
// margin. Every observing binary predict funnels through here.
//
//generic:hotpath
func (b *BinaryModel) PredictDimsMargin(q *hdc.BinVec, dims int) (class, hamming int, margin float64) {
	start := telemetry.Now()
	best, h1, h2, scored := b.scoreTop2(q, dims)
	margin = hammingMargin(h1, h2, scored)
	quality.ObservePredict(best, margin)
	telemetry.PredictNS.ObserveSince(start)
	return best, h1, margin
}

// MarginDims scores the packed query without telemetry or quality
// observation — the profiling path.
func (b *BinaryModel) MarginDims(q *hdc.BinVec, dims int) (class int, margin float64) {
	best, h1, h2, scored := b.scoreTop2(q, dims)
	return best, hammingMargin(h1, h2, scored)
}

// scoreTop2 runs the Hamming scoring loop tracking the two nearest classes.
// Ties keep the lower class index, matching the historical single-best loop.
//
//generic:hotpath
func (b *BinaryModel) scoreTop2(q *hdc.BinVec, dims int) (best, h1, h2, scored int) {
	if dims > b.d {
		dims = b.d
	}
	chunks := dims / SubNormGranularity
	if chunks < 1 {
		chunks = 1
	}
	dims = chunks * SubNormGranularity
	best, h1, h2 = 0, b.d+1, b.d+1
	if dims == b.d {
		for c, cv := range b.classes {
			if h := q.Hamming(cv); h < h1 {
				best, h1, h2 = c, h, h1
			} else if h < h2 {
				h2 = h
			}
		}
	} else {
		for c, cv := range b.classes {
			if h := q.HammingPrefix(cv, dims); h < h1 {
				best, h1, h2 = c, h, h1
			} else if h < h2 {
				h2 = h
			}
		}
	}
	return best, h1, h2, dims
}

// hammingMargin normalizes a Hamming gap to [0,1] over the scored dimension
// count. A missing runner-up (single-class model) collapses to zero.
//
//generic:hotpath
func hammingMargin(h1, h2, dims int) float64 {
	if dims <= 0 || h2 <= h1 || h2 > dims {
		return 0
	}
	m := float64(h2-h1) / float64(dims)
	if m > 1 {
		m = 1
	}
	return m
}

// Clone returns a deep copy, so fault sweeps can corrupt a binary model
// without losing the original.
func (b *BinaryModel) Clone() *BinaryModel {
	c := &BinaryModel{d: b.d, sourceBW: b.sourceBW, classes: make([]*hdc.BinVec, len(b.classes))}
	for i, v := range b.classes {
		c.classes[i] = v.Clone()
	}
	return c
}

// BinaryAccuracy returns the fraction of packed queries predicted as their
// label, chunk-counted per worker and summed like the integer Accuracy.
func BinaryAccuracy(b *BinaryModel, encoded []*hdc.BinVec, labels []int, workers int) float64 {
	if len(encoded) == 0 {
		return 0
	}
	w := parallel.Workers(workers)
	counts := make([]int, w)
	parallel.ForChunks(w, len(encoded), func(worker, lo, hi int) {
		correct := 0
		for i := lo; i < hi; i++ {
			if pred, _ := b.Predict(encoded[i]); pred == labels[i] {
				correct++
			}
		}
		counts[worker] = correct
	})
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(len(encoded))
}
