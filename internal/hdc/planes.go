package hdc

import (
	"fmt"
	"math/bits"
)

// Bit-sliced counters hold one count per lane of a 64-bit word as a stack
// of planes: bit k of lane b's count is bit b of planes[k]. Acc and the
// windowed encoders' carry-save counting pass both produce this form; the
// two kernels below are the two ways to read it out — integer counts, or the
// packed result of a threshold compare.

// spreadByte[v] places bit i of v in the low bit of byte i, so one table
// lookup moves eight lanes of a plane into eight byte-wide counters.
var spreadByte [256]uint64

func init() {
	for v := range spreadByte {
		for i := 0; i < 8; i++ {
			spreadByte[v] |= uint64(v>>uint(i)&1) << uint(8*i)
		}
	}
}

// TransposePlanes reads one 64-lane word of bit-sliced counters out as
// integers: dst[b] = scale·c_b + bias, where c_b = Σ_k bit b of planes[k]·2^k
// (planes[0] least significant). dst must have length WordBits; no planes
// means every count is zero.
//
// The transpose works a byte of lanes at a time: for each group of up to
// eight planes, the spread-table entries of that byte, shifted by their
// plane weight, sum into eight byte-wide counters without carries between
// them (at most 255 per group), which then unpack into dst.
//
//generic:hotpath
func TransposePlanes(dst []int32, planes []uint64, scale, bias int32) {
	if len(dst) != WordBits {
		panic(fmt.Sprintf("hdc: TransposePlanes destination length %d, want %d", len(dst), WordBits))
	}
	first := planes[:min(8, len(planes))]
	for j := 0; j < WordBits; j += 8 {
		lanes := dst[j : j+8 : j+8]
		acc := spreadGroup(first, uint(j))
		lanes[0] = scale*int32(uint8(acc)) + bias
		lanes[1] = scale*int32(uint8(acc>>8)) + bias
		lanes[2] = scale*int32(uint8(acc>>16)) + bias
		lanes[3] = scale*int32(uint8(acc>>24)) + bias
		lanes[4] = scale*int32(uint8(acc>>32)) + bias
		lanes[5] = scale*int32(uint8(acc>>40)) + bias
		lanes[6] = scale*int32(uint8(acc>>48)) + bias
		lanes[7] = scale*int32(uint8(acc>>56)) + bias
		for g := 8; g < len(planes); g += 8 {
			acc := spreadGroup(planes[g:min(g+8, len(planes))], uint(j))
			s := scale << uint(g)
			lanes[0] += s * int32(uint8(acc))
			lanes[1] += s * int32(uint8(acc>>8))
			lanes[2] += s * int32(uint8(acc>>16))
			lanes[3] += s * int32(uint8(acc>>24))
			lanes[4] += s * int32(uint8(acc>>32))
			lanes[5] += s * int32(uint8(acc>>40))
			lanes[6] += s * int32(uint8(acc>>48))
			lanes[7] += s * int32(uint8(acc>>56))
		}
	}
}

// spreadGroup sums up to eight planes' bytes at bit offset j into eight
// byte-wide counters, plane k weighted 2^k.
//
//generic:hotpath
func spreadGroup(group []uint64, j uint) uint64 {
	var acc uint64
	for k, p := range group {
		acc += spreadByte[uint8(p>>j)] << uint(k)
	}
	return acc
}

// AtLeast returns the lanes whose bit-sliced count is at least thr: bit b of
// the result is 1 exactly when c_b >= thr. Planes beyond len(planes) are
// zero, so thr may need more bits than there are planes.
//
// The compare is a borrow-propagating subtraction of the scalar threshold
// across all 64 counters at once; a lane ends with no borrow exactly when
// its count reaches the threshold.
//
//generic:hotpath
func AtLeast(planes []uint64, thr uint64) uint64 {
	nk := max(len(planes), bits.Len64(thr))
	borrow := uint64(0)
	for k := 0; k < nk; k++ {
		var c uint64
		if k < len(planes) {
			c = planes[k]
		}
		t := -(thr >> uint(k) & 1) // all ones where thr has bit k
		borrow = ^c&(t|borrow) | t&borrow
	}
	return ^borrow
}
