// Package quantile implements the discretization step of CMP and CLOUDS:
// dividing a numeric attribute's domain into intervals by an equal-depth
// histogram (quantiling) or an equal-width histogram.
//
// A Discretizer with q intervals holds q-1 ascending cut points. Interval i
// contains values v with cuts[i-1] < v <= cuts[i]; boundary i (the split
// candidate "a <= cuts[i]") separates intervals i and i+1. Records equal to a
// cut fall in the lower interval, matching the paper's a <= C split form.
package quantile

import (
	"errors"
	"math"
	"sort"
)

// Discretizer maps values to interval indices.
type Discretizer struct {
	cuts []float64
	// single marks intervals known to contain exactly one distinct value
	// (heavy point masses isolated by EqualDepth). The hill-climbing gini
	// estimate is meaningless inside them — no interior split point exists.
	single []bool
	grid   cutGrid
}

// fromCuts returns the discretizer over cuts, which it keeps.
func fromCuts(cuts []float64) *Discretizer {
	return &Discretizer{cuts: cuts, grid: newCutGrid(cuts)}
}

// EqualDepth builds an equal-depth (quantile) discretizer from a sample of
// the attribute's values, aiming for q intervals of approximately equal
// population. Values heavy enough to span multiple quantile positions are
// isolated into their own singleton interval (a cut at the value and one at
// its sample predecessor), keeping every interval's population near n/q —
// the property the paper's 2*N_i/N estimation bound relies on. vals is not
// modified.
func EqualDepth(vals []float64, q int) (*Discretizer, error) {
	sorted := append([]float64(nil), vals...)
	SortFloat64s(sorted, nil)
	return EqualDepthSorted(sorted, q)
}

// EqualDepthSorted is EqualDepth over a sample that is already in ascending
// order, for callers that hold their sample sorted and would otherwise pay
// for a copy and a sort. sorted is neither modified nor retained.
func EqualDepthSorted(sorted []float64, q int) (*Discretizer, error) {
	if q < 2 {
		return nil, errors.New("quantile: need at least 2 intervals")
	}
	if len(sorted) == 0 {
		return nil, errors.New("quantile: empty sample")
	}
	n := len(sorted)
	cutSet := make(map[float64]bool)
	var cuts []float64
	add := func(c float64) {
		if c >= sorted[n-1] || c < sorted[0] || cutSet[c] {
			return
		}
		cutSet[c] = true
		cuts = append(cuts, c)
	}
	// A value is "heavy" when it fills a substantial share of an interval
	// on its own; such point masses are isolated into singleton intervals.
	heavy := n / (2 * q)
	if heavy < 2 {
		heavy = 2
	}
	for k := 1; k < q; k++ {
		idx := k*n/q - 1
		if idx < 0 {
			idx = 0
		}
		c := sorted[idx]
		i := sort.SearchFloat64s(sorted, c) // first occurrence of c
		j := sort.Search(n, func(p int) bool { return sorted[p] > c })
		if j-i >= heavy && i > 0 {
			// Cut just below the heavy value so its mass occupies an
			// interval of its own.
			add(sorted[i-1])
		}
		add(c)
	}
	sort.Float64s(cuts)
	d := fromCuts(cuts)
	d.markSingles(sorted)
	return d, nil
}

// markSingles flags intervals whose sample holds a single distinct value.
func (d *Discretizer) markSingles(sorted []float64) {
	bins := d.Bins()
	d.single = make([]bool, bins)
	n := len(sorted)
	for k := 0; k < bins; k++ {
		var lo, hi float64
		if k == 0 {
			lo = sorted[0] // inclusive lowest
		} else {
			lo = d.cuts[k-1]
		}
		if k == bins-1 {
			hi = sorted[n-1]
		} else {
			hi = d.cuts[k]
		}
		// Sample values inside this interval: (lo, hi] for k>0, [lo, hi]
		// for the first interval.
		i := sort.SearchFloat64s(sorted, lo)
		if k > 0 {
			// skip values equal to lo
			for i < n && sorted[i] == lo {
				i++
			}
		}
		j := sort.SearchFloat64s(sorted, hi)
		for j < n && sorted[j] == hi {
			j++
		}
		if i >= j {
			continue // empty in sample; leave non-singleton
		}
		d.single[k] = sorted[i] == sorted[j-1]
	}
}

// Singleton reports whether interval k is known to hold one distinct value.
func (d *Discretizer) Singleton(k int) bool {
	return d.single != nil && k < len(d.single) && d.single[k]
}

// EqualWidth builds an equal-width discretizer with q intervals spanning
// [min, max]. If min == max a single-interval discretizer is returned.
func EqualWidth(min, max float64, q int) (*Discretizer, error) {
	if q < 2 {
		return nil, errors.New("quantile: need at least 2 intervals")
	}
	if max < min {
		return nil, errors.New("quantile: max < min")
	}
	if min == max {
		return &Discretizer{}, nil
	}
	cuts := make([]float64, 0, q-1)
	w := (max - min) / float64(q)
	for k := 1; k < q; k++ {
		cuts = append(cuts, min+float64(k)*w)
	}
	return fromCuts(cuts), nil
}

// FromCuts builds a discretizer from explicit ascending cut points. It is
// used by tests and by the sub-range views CMP-B takes of a parent's
// discretization.
func FromCuts(cuts []float64) (*Discretizer, error) {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, errors.New("quantile: cuts not strictly ascending")
		}
	}
	return fromCuts(append([]float64(nil), cuts...)), nil
}

// Bins returns the number of intervals.
func (d *Discretizer) Bins() int { return len(d.cuts) + 1 }

// Interval returns the interval index of v in [0, Bins()): the number of
// cuts below v, sort.SearchFloat64s's answer, so values equal to a cut
// stay below it and NaN falls past every cut.
func (d *Discretizer) Interval(v float64) int { return d.grid.code(d.cuts, v) }

// Boundary returns cut point i, the value C of split candidate "a <= C"
// between intervals i and i+1. i must be in [0, Bins()-1).
func (d *Discretizer) Boundary(i int) float64 { return d.cuts[i] }

// Cuts returns a copy of the cut points.
func (d *Discretizer) Cuts() []float64 { return append([]float64(nil), d.cuts...) }

// Representative returns a raw value that maps back into interval k: cut k
// for interior intervals (Interval(cuts[k]) == k, since values equal to a
// cut fall in the lower interval) and last — any value above the final cut,
// typically the observed attribute maximum — for the top interval. It is
// the decode side of bin coding: re-encoding a representative reproduces
// its code exactly.
func (d *Discretizer) Representative(k int, last float64) float64 {
	if k < len(d.cuts) {
		return d.cuts[k]
	}
	return last
}

// Slice returns a discretizer covering only intervals [lo, hi) of d, as used
// when CMP-B splits a histogram matrix and the sub-matrix inherits the
// parent's cuts restricted to one side.
func (d *Discretizer) Slice(lo, hi int) *Discretizer {
	if lo < 0 || hi > d.Bins() || lo >= hi {
		panic("quantile: bad slice range")
	}
	return fromCuts(append([]float64(nil), d.cuts[lo:hi-1]...))
}

// maxGridCells caps a cutGrid's size, which is otherwise gridCellsPerCut
// cells per cut: at 65536 intervals a grid holds about four cuts per cell.
const (
	gridCellsPerCut = 4
	maxGridCells    = 1 << 14
)

// cutGrid narrows the interval search over ascending cuts: it splits
// [cuts[0], cuts[last]] into equal-width cells and keeps, per cell, the
// interval of the cell's lower edge. A value's interval is then its cell's
// starting interval corrected against the cuts, a step or two where the
// cuts are spread evenly over the cells.
type cutGrid struct {
	lo, scale float64 // a value v falls in cell int((v-lo)*scale)
	start     []uint32
}

// newCutGrid builds the grid over cuts. Fewer than two cuts, cuts not
// strictly ascending, or a range whose width does not scale to a finite
// positive factor get no grid and leave code to a binary search.
func newCutGrid(cuts []float64) cutGrid {
	n := len(cuts)
	if n < 2 {
		return cutGrid{}
	}
	for i := 1; i < n; i++ {
		if !(cuts[i] > cuts[i-1]) {
			return cutGrid{}
		}
	}
	cells := min(gridCellsPerCut*n, maxGridCells)
	lo := cuts[0]
	scale := float64(cells) / (cuts[n-1] - lo)
	if !(scale > 0) || math.IsInf(scale, 0) {
		return cutGrid{}
	}
	g := cutGrid{lo: lo, scale: scale, start: make([]uint32, cells)}
	c := 0
	for i := range g.start {
		edge := lo + float64(i)/scale
		for c < n && cuts[c] < edge {
			c++
		}
		// The intervals code reads the grid for lie in [1, n-1]; clamping
		// keeps a rounded-up last edge from starting past the cuts.
		g.start[i] = uint32(min(c, n-1))
	}
	return g
}

// code returns the number of cuts below v: sort.SearchFloat64s(cuts, v).
// The cell computed for v may be off by one either way through rounding,
// so the starting interval is corrected in both directions.
func (g *cutGrid) code(cuts []float64, v float64) int {
	if g.start == nil {
		return sort.SearchFloat64s(cuts, v)
	}
	n := len(cuts)
	if v <= cuts[0] {
		return 0
	}
	if !(v <= cuts[n-1]) {
		return n // above every cut, or NaN
	}
	// cuts[0] < v <= cuts[n-1], so the walks below stay inside cuts.
	i := len(g.start) - 1
	if f := (v - g.lo) * g.scale; f < float64(i) {
		i = int(f)
	}
	c := int(g.start[i])
	for cuts[c] < v {
		c++
	}
	for c > 0 && cuts[c-1] >= v {
		c--
	}
	return c
}
