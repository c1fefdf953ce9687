// Package histogram provides the class-count structures CMP is built on:
// one-dimensional interval histograms (CMP-S, CLOUDS) and two-dimensional
// histogram matrices over attribute pairs (CMP-B, CMP).
package histogram

import "fmt"

// Hist1D counts records per (interval, class), in 32-bit counts like
// Matrix.
type Hist1D struct {
	bins, classes int
	counts        []int32 // bins * classes, bin-major
}

// New1D returns a zeroed histogram with the given shape.
func New1D(bins, classes int) *Hist1D {
	if bins <= 0 || classes <= 0 {
		panic(fmt.Sprintf("histogram: bad shape %dx%d", bins, classes))
	}
	return &Hist1D{bins: bins, classes: classes, counts: make([]int32, bins*classes)}
}

// Bins returns the number of intervals.
func (h *Hist1D) Bins() int { return h.bins }

// Classes returns the number of classes.
func (h *Hist1D) Classes() int { return h.classes }

// Add increments the count for (bin, class).
func (h *Hist1D) Add(bin, class int) { h.counts[bin*h.classes+class]++ }

// AddN adds n to the count for (bin, class).
func (h *Hist1D) AddN(bin, class, n int) { h.counts[bin*h.classes+class] += int32(n) }

// Count returns the count for (bin, class).
func (h *Hist1D) Count(bin, class int) int { return int(h.counts[bin*h.classes+class]) }

// Bin returns a view of one bin's per-class counts. The slice aliases the
// histogram's storage.
func (h *Hist1D) Bin(bin int) []int32 {
	return h.counts[bin*h.classes : (bin+1)*h.classes : (bin+1)*h.classes]
}

// ClassTotals returns the per-class counts summed over all bins.
func (h *Hist1D) ClassTotals() []int {
	t := make([]int, h.classes)
	for b := 0; b < h.bins; b++ {
		row := h.Bin(b)
		for c, n := range row {
			t[c] += int(n)
		}
	}
	return t
}

// Total returns the number of records counted.
func (h *Hist1D) Total() int {
	n := 0
	for _, c := range h.counts {
		n += int(c)
	}
	return n
}

// Cumulative returns, for each boundary b in [0, Bins()-1), the per-class
// counts of records in bins 0..b — the x_i / y_i vectors of the paper's
// estimation formulas, widened to int. The rows alias one backing array;
// treat as read-only.
func (h *Hist1D) Cumulative() [][]int {
	if h.bins < 2 {
		return nil
	}
	backing := make([]int, (h.bins-1)*h.classes)
	out := make([][]int, h.bins-1)
	run := make([]int, h.classes)
	for b := 0; b < h.bins-1; b++ {
		row := h.Bin(b)
		for c, n := range row {
			run[c] += int(n)
		}
		dst := backing[b*h.classes : (b+1)*h.classes]
		copy(dst, run)
		out[b] = dst
	}
	return out
}

// Merge adds other's counts into h. Shapes must match.
func (h *Hist1D) Merge(other *Hist1D) {
	if h.bins != other.bins || h.classes != other.classes {
		panic("histogram: merge shape mismatch")
	}
	for i, n := range other.counts {
		h.counts[i] += n
	}
}

// Clone returns a deep copy.
func (h *Hist1D) Clone() *Hist1D {
	c := New1D(h.bins, h.classes)
	copy(c.counts, h.counts)
	return c
}

// SliceBins returns a new histogram holding only bins [lo, hi).
func (h *Hist1D) SliceBins(lo, hi int) *Hist1D {
	if lo < 0 || hi > h.bins || lo >= hi {
		panic("histogram: bad bin range")
	}
	out := New1D(hi-lo, h.classes)
	copy(out.counts, h.counts[lo*h.classes:hi*h.classes])
	return out
}

// MemoryBytes estimates the in-memory footprint, used by the experiment
// harness's memory accounting: 4 bytes per count.
func (h *Hist1D) MemoryBytes() int64 { return int64(len(h.counts)) * 4 }
