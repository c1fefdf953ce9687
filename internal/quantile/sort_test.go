package quantile

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzSortFloat64s holds SortFloat64s to sort.Float64s: every position
// must hold the same bits, except that zeros may differ in sign (they
// compare ==) and NaNs in payload. Each 8 bytes of input is one value,
// drawn from a small pool of ties, zeros, infinities and subnormals when
// the selector byte asks for it, and taken as raw bits otherwise.
func FuzzSortFloat64s(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\x80"), uint8(0), false)
	f.Add([]byte("0123456789abcdef0123456789abcdefxyzxyzxyzxyzxyz"), uint8(3), true)
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00\x00\x00\x00\x00\x00\x00"), uint8(255), false)
	pool := []float64{math.Copysign(0, -1), 0, 1, -1, 3, 3, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	f.Fuzz(func(t *testing.T, data []byte, poolShare uint8, withBuf bool) {
		vals := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			bits := binary.LittleEndian.Uint64(data[i:])
			if uint8(bits) < poolShare {
				vals = append(vals, pool[int(bits>>8)%len(pool)])
				continue
			}
			vals = append(vals, math.Float64frombits(bits))
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		var buf []float64
		if withBuf {
			buf = make([]float64, len(vals)+3)
		}
		got := append([]float64(nil), vals...)
		SortFloat64s(got, buf)
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g) == math.Float64bits(w) || g == 0 && w == 0 || math.IsNaN(g) && math.IsNaN(w) {
				continue
			}
			t.Fatalf("position %d of %d: %v, want %v", i, len(want), g, w)
		}
	})
}

// TestRadixSortStable: equal keys, both zeros among them, keep their input
// order.
func TestRadixSortStable(t *testing.T) {
	type entry struct {
		v float64
		i int
	}
	in := []entry{{2, 0}, {0, 1}, {math.Copysign(0, -1), 2}, {-1, 3}, {2, 4}, {0, 5}, {-1, 6}}
	got := RadixSort(in, nil, func(e entry) float64 { return e.v })
	want := []int{3, 6, 1, 2, 5, 0, 4}
	for k, e := range got {
		if e.i != want[k] {
			t.Fatalf("position %d holds entry %d, want %d", k, e.i, want[k])
		}
	}
}
