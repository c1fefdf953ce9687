package quantile

import "math"

// SortKey maps a value to a uint64 whose unsigned order is the values'
// numeric order, with -0 and +0 mapped alike so that they tie. Every NaN
// maps to 0, below -Inf, where sort.Float64s puts NaNs too.
func SortKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		v = 0 // +0
	}
	bits := math.Float64bits(v)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// radixBits is the width of one radix digit: six 11-bit digits cover a
// 64-bit key in two passes fewer than eight bytes, and a digit's 2,048
// counters still stay cache-resident.
const (
	radixBits   = 11
	radixDigits = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// RadixSort sorts s by SortKey(val(e)): a least-significant-digit radix
// sort, one radixBits-wide digit per pass. Each pass is stable, so elements
// with equal keys keep their order in s. Passes on a digit every key
// shares are skipped. buf is scratch of at least len(s) elements (nil
// allocates it when a pass needs it); the sorted elements are returned in
// s or in buf[:len(s)].
func RadixSort[E any](s, buf []E, val func(E) float64) []E {
	if len(s) < 2 {
		return s
	}
	var counts [radixDigits][1 << radixBits]int
	for _, e := range s {
		k := SortKey(val(e))
		for d := range counts {
			counts[d][k>>(radixBits*d)&radixMask]++
		}
	}
	first := SortKey(val(s[0]))
	for d := range counts {
		c := &counts[d]
		shift := radixBits * d
		if c[first>>shift&radixMask] == len(s) {
			continue
		}
		if buf == nil {
			buf = make([]E, len(s))
		}
		buf = buf[:len(s)]
		off := 0
		for i, k := range c {
			c[i] = off
			off += k
		}
		for _, e := range s {
			b := SortKey(val(e)) >> shift & radixMask
			buf[c[b]] = e
			c[b]++
		}
		s, buf = buf, s
	}
	return s
}

// SortFloat64s sorts vals in ascending order in place, using buf (at least
// len(vals) long, or nil) as scratch. The result is sort.Float64s's but for
// the zeros: -0 and +0 compare equal and keep their relative order in vals,
// where sort.Float64s leaves their order unspecified (NaNs, first in both,
// likewise keep theirs).
func SortFloat64s(vals, buf []float64) {
	if sorted := RadixSort(vals, buf, ident); len(sorted) > 0 && &sorted[0] != &vals[0] {
		copy(vals, sorted)
	}
}

func ident(v float64) float64 { return v }
