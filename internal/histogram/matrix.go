package histogram

import "fmt"

// Matrix is the bivariate class histogram of CMP-B: cell (i, j) holds the
// per-class counts of records whose X-attribute falls in interval i and
// whose Y-attribute falls in interval j (Figure 5 of the paper). Counts are
// 32-bit: the builders reject a training set of more than math.MaxInt32
// records before counting any.
type Matrix struct {
	xbins, ybins, classes int
	counts                []int32 // x-major, then y, then class
}

// NewMatrix returns a zeroed matrix with the given shape.
func NewMatrix(xbins, ybins, classes int) *Matrix {
	if xbins <= 0 || ybins <= 0 || classes <= 0 {
		panic(fmt.Sprintf("histogram: bad matrix shape %dx%dx%d", xbins, ybins, classes))
	}
	return &Matrix{xbins: xbins, ybins: ybins, classes: classes,
		counts: make([]int32, xbins*ybins*classes)}
}

// XBins returns the number of X intervals.
func (m *Matrix) XBins() int { return m.xbins }

// YBins returns the number of Y intervals.
func (m *Matrix) YBins() int { return m.ybins }

// Classes returns the number of classes.
func (m *Matrix) Classes() int { return m.classes }

// Add increments the count for (xbin, ybin, class).
func (m *Matrix) Add(xbin, ybin, class int) {
	m.counts[(xbin*m.ybins+ybin)*m.classes+class]++
}

// AddN adds n to the count for (xbin, ybin, class).
func (m *Matrix) AddN(xbin, ybin, class, n int) {
	m.counts[(xbin*m.ybins+ybin)*m.classes+class] += int32(n)
}

// Cell returns a view of the per-class counts of cell (xbin, ybin). The
// slice aliases the matrix's storage.
func (m *Matrix) Cell(xbin, ybin int) []int32 {
	off := (xbin*m.ybins + ybin) * m.classes
	return m.counts[off : off+m.classes : off+m.classes]
}

// MarginalX collapses the Y axis, yielding the 1-D histogram of the X
// attribute ("summing up the histogram in all the intervals on attribute b").
func (m *Matrix) MarginalX() *Hist1D {
	h := New1D(m.xbins, m.classes)
	for x := 0; x < m.xbins; x++ {
		row := h.Bin(x)
		for y := 0; y < m.ybins; y++ {
			cell := m.Cell(x, y)
			for c, n := range cell {
				row[c] += n
			}
		}
	}
	return h
}

// MarginalY collapses the X axis, yielding the 1-D histogram of the Y
// attribute.
func (m *Matrix) MarginalY() *Hist1D {
	h := New1D(m.ybins, m.classes)
	for x := 0; x < m.xbins; x++ {
		for y := 0; y < m.ybins; y++ {
			cell := m.Cell(x, y)
			row := h.Bin(y)
			for c, n := range cell {
				row[c] += n
			}
		}
	}
	return h
}

// SliceX returns the sub-matrix of X intervals [lo, hi) — the shaded /
// unshaded halves of Figure 6 when a node splits on its X attribute. The
// matrix is x-major, so the range is one contiguous block and the result
// is a view aliasing m's storage, not a copy: it is for reading, and a
// count added to either shows in the other.
func (m *Matrix) SliceX(lo, hi int) *Matrix {
	if lo < 0 || hi > m.xbins || lo >= hi {
		panic("histogram: bad X range")
	}
	from, to := lo*m.ybins*m.classes, hi*m.ybins*m.classes
	return &Matrix{xbins: hi - lo, ybins: m.ybins, classes: m.classes, counts: m.counts[from:to:to]}
}

// SliceY returns the sub-matrix of Y intervals [lo, hi).
func (m *Matrix) SliceY(lo, hi int) *Matrix {
	if lo < 0 || hi > m.ybins || lo >= hi {
		panic("histogram: bad Y range")
	}
	out := NewMatrix(m.xbins, hi-lo, m.classes)
	for x := 0; x < m.xbins; x++ {
		src := m.counts[(x*m.ybins+lo)*m.classes : (x*m.ybins+hi)*m.classes]
		dst := out.counts[x*out.ybins*m.classes : (x+1)*out.ybins*m.classes]
		copy(dst, src)
	}
	return out
}

// Merge adds other's counts into m. Shapes must match.
func (m *Matrix) Merge(other *Matrix) {
	if m.xbins != other.xbins || m.ybins != other.ybins || m.classes != other.classes {
		panic("histogram: matrix merge shape mismatch")
	}
	for i, n := range other.counts {
		m.counts[i] += n
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.xbins, m.ybins, m.classes)
	copy(c.counts, m.counts)
	return c
}

// Total returns the number of records counted.
func (m *Matrix) Total() int {
	n := 0
	for _, c := range m.counts {
		n += int(c)
	}
	return n
}

// ClassTotals returns per-class counts over the whole matrix.
func (m *Matrix) ClassTotals() []int {
	t := make([]int, m.classes)
	for i, n := range m.counts {
		t[i%m.classes] += int(n)
	}
	return t
}

// MemoryBytes estimates the in-memory footprint: 4 bytes per count.
func (m *Matrix) MemoryBytes() int64 { return int64(len(m.counts)) * 4 }
