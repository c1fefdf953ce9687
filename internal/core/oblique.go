package core

import (
	"math"

	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
	"cmpdt/internal/quantile"
	"cmpdt/internal/tree"
)

// obliqueLine is a candidate linear-combination split found on one of the
// node's histogram matrices.
type obliqueLine struct {
	gini        float64
	split       tree.Split
	leftCounts  []int
	rightCounts []int
}

// obliqueSearchBins caps the matrix granularity of the line search; the
// walk's cost is O((qx+qy) * qx * qy) per matrix, so large matrices are
// aggregated first. The final split is evaluated on real values during the
// next scan, so coarse granularity costs only candidate resolution.
const obliqueSearchBins = 40

// bestObliqueSplit runs giniNegativeSlope and giniPositiveSlope (Figure 12)
// over every attribute-pair matrix of the view and returns the best line
// found.
func (b *builder) bestObliqueSplit(v *view) (obliqueLine, bool) {
	span := b.obs.StartSpan(obs.PhaseOblique)
	defer span.End()
	best := obliqueLine{gini: math.Inf(1)}
	found := false
	for _, om := range v.oblique {
		if om.m == nil || v.disc[om.xa] == nil || v.disc[om.ya] == nil {
			continue
		}
		// Feature subsampling: a linear combination may only use allowed
		// attributes on both axes.
		if !b.attrAllowed(om.xa) || !b.attrAllowed(om.ya) {
			continue
		}
		if om.m.XBins() < 2 || om.m.YBins() < 2 {
			continue
		}
		discX, discY := v.disc[om.xa].Bins(), v.disc[om.ya].Bins()
		// The all-pairs matrices are allocated at search resolution already;
		// their bins map to the discretizer grid through scaled groups.
		native := om.m.XBins() == discX && om.m.YBins() == discY
		for _, mirror := range []bool{false, true} {
			var refM *histogram.Matrix
			var xMap, yMap []int
			var xi, yi int
			if native {
				cm, xm, ym := coarsen(om.m, obliqueSearchBins)
				_, cxi, cyi, ok := walkLine(cm, mirror)
				if !ok {
					continue
				}
				// Lift the coarse intercepts to fine-bin units and polish
				// them on the full-resolution matrix.
				xi = liftIntercept(xm, cxi)
				yi = liftIntercept(ym, cyi)
				refM = om.m
				xMap, yMap = identityMap(discX), identityMap(discY)
			} else {
				var ok bool
				_, xi, yi, ok = walkLine(om.m, mirror)
				if !ok {
					continue
				}
				refM = om.m
				xMap, yMap = binGroups(discX, om.m.XBins()), binGroups(discY, om.m.YBins())
			}
			xi, yi = refineLine(refM, xi, yi, mirror)
			line, lc, rc, ok := b.lineToSplit(v, om.xa, om.ya, refM, xMap, yMap, xi, yi, mirror)
			if !ok {
				continue
			}
			// The walk ranks candidate lines by the paper's three-part index,
			// which treats crossed cells as their own (optimistically pure)
			// group. Accept by the honest two-part index with crossed cells
			// assigned by cell center, matching how records will actually be
			// routed.
			g := gini.Split(lc, rc)
			if g >= best.gini {
				continue
			}
			best = obliqueLine{gini: g, split: line, leftCounts: lc, rightCounts: rc}
			found = true
		}
	}
	return best, found
}

// liftIntercept converts a coarse-unit intercept to fine-bin units,
// extrapolating past the matrix edge with the average group width.
func liftIntercept(groups []int, t int) int {
	last := len(groups) - 1
	if t <= last {
		v := groups[t]
		if v < 1 {
			v = 1
		}
		return v
	}
	width := groups[last] / max(last, 1)
	if width < 1 {
		width = 1
	}
	return groups[last] + (t-last)*width
}

// identityMap is the fine-to-fine bin mapping (one group per bin).
func identityMap(bins int) []int {
	out := make([]int, bins+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// refineLine polishes intercepts by coordinate descent on the honest
// two-part (cell-center-assigned) gini index over the full-resolution
// matrix.
func refineLine(m *histogram.Matrix, x, y int, mirror bool) (int, int) {
	best := centerGini(m, x, y, mirror)
	limit := 4 * (m.XBins() + m.YBins())
	for iter := 0; iter < limit; iter++ {
		bx, by, bg := x, y, best
		// Single-coordinate moves tilt the line; the diagonal moves
		// translate it, escaping parallel-offset local minima.
		for _, cand := range [][2]int{
			{x + 1, y}, {x - 1, y}, {x, y + 1}, {x, y - 1},
			{x + 1, y + 1}, {x - 1, y - 1},
		} {
			if cand[0] < 1 || cand[1] < 1 {
				continue
			}
			if g := centerGini(m, cand[0], cand[1], mirror); g < bg {
				bx, by, bg = cand[0], cand[1], g
			}
		}
		if bg >= best {
			break
		}
		x, y, best = bx, by, bg
	}
	return x, y
}

// centerGini assigns each cell by its center against the line with the
// given intercepts and returns the two-part gini index.
func centerGini(m *histogram.Matrix, x, y int, mirror bool) float64 {
	nc := m.Classes()
	left := make([]int, nc)
	right := make([]int, nc)
	fx, fy := float64(x), float64(y)
	for i := 0; i < m.XBins(); i++ {
		cx := float64(i) + 0.5
		for j := 0; j < m.YBins(); j++ {
			jj := j
			if mirror {
				jj = m.YBins() - 1 - j
			}
			cy := float64(jj) + 0.5
			dst := right
			if cx/fx+cy/fy <= 1 {
				dst = left
			}
			for c, n := range m.Cell(i, j) {
				dst[c] += int(n)
			}
		}
	}
	return gini.Split(left, right)
}

// coarsen aggregates a matrix down to at most maxBins per axis, returning
// the aggregated matrix and, per axis, the fine-bin start index of each
// coarse bin (length coarseBins+1).
func coarsen(m *histogram.Matrix, maxBins int) (*histogram.Matrix, []int, []int) {
	xMap := binGroups(m.XBins(), maxBins)
	yMap := binGroups(m.YBins(), maxBins)
	if len(xMap)-1 == m.XBins() && len(yMap)-1 == m.YBins() {
		return m, xMap, yMap
	}
	out := histogram.NewMatrix(len(xMap)-1, len(yMap)-1, m.Classes())
	for ci := 0; ci < len(xMap)-1; ci++ {
		for cj := 0; cj < len(yMap)-1; cj++ {
			dst := out.Cell(ci, cj)
			for i := xMap[ci]; i < xMap[ci+1]; i++ {
				for j := yMap[cj]; j < yMap[cj+1]; j++ {
					for c, n := range m.Cell(i, j) {
						dst[c] += n
					}
				}
			}
		}
	}
	return out, xMap, yMap
}

// binGroups partitions n fine bins into at most maxBins nearly equal runs,
// returning the run start indices plus a final sentinel n.
func binGroups(n, maxBins int) []int {
	groups := n
	if groups > maxBins {
		groups = maxBins
	}
	out := make([]int, groups+1)
	for g := 0; g <= groups; g++ {
		out[g] = g * n / groups
	}
	return out
}

// walkLine performs the intercept walk of Figure 12 on matrix m: starting
// from intercepts (1, 1), grow whichever intercept yields the lower
// three-part gini, until no cell lies strictly above the line. mirror flips
// the Y axis, turning the negative-slope walk into the positive-slope one.
// Returns the best gini seen with its intercepts.
func walkLine(m *histogram.Matrix, mirror bool) (bestG float64, bestX, bestY int, found bool) {
	xb, yb := m.XBins(), m.YBins()
	bestG = math.Inf(1)
	x, y := 1, 1
	g, parts3 := lineGini(m, x, y, mirror)
	if parts3 {
		bestG, bestX, bestY, found = g, x, y, true
	}
	for iter := 0; iter < xb+yb+2; iter++ {
		gx, p3x := lineGini(m, x+1, y, mirror)
		gy, p3y := lineGini(m, x, y+1, mirror)
		if gx <= gy {
			x++
			g, parts3 = gx, p3x
		} else {
			y++
			g, parts3 = gy, p3y
		}
		if !parts3 {
			break
		}
		if g < bestG {
			bestG, bestX, bestY, found = g, x, y, true
		}
	}
	return bestG, bestX, bestY, found
}

// lineGini computes gini^D of the three-way partition induced by the line
// with intercepts (x, y) in cell units: cells fully under, fully above, and
// crossed by the line (the paper's S_u, S_a, S_o). parts3 reports whether
// any cell lies strictly above — the walk's continuation condition.
func lineGini(m *histogram.Matrix, x, y int, mirror bool) (float64, bool) {
	nc := m.Classes()
	under := make([]int, nc)
	above := make([]int, nc)
	on := make([]int, nc)
	fx, fy := float64(x), float64(y)
	anyAbove := false
	for i := 0; i < m.XBins(); i++ {
		loX, hiX := float64(i), float64(i+1)
		for j := 0; j < m.YBins(); j++ {
			jj := j
			if mirror {
				jj = m.YBins() - 1 - j
			}
			loY, hiY := float64(jj), float64(jj+1)
			var dst []int
			switch {
			case hiX/fx+hiY/fy <= 1:
				dst = under
			case loX/fx+loY/fy >= 1:
				dst = above
				anyAbove = true
			default:
				dst = on
			}
			for c, n := range m.Cell(i, j) {
				dst[c] += int(n)
			}
		}
	}
	return gini.Split(under, above, on), anyAbove
}

// lineToSplit converts intercepts on the (possibly coarsened, possibly
// mirrored) matrix into a value-space linear split and approximate child
// class counts.
func (b *builder) lineToSplit(v *view, xAttr, yAttr int, cm *histogram.Matrix, xMap, yMap []int, xi, yi int, mirror bool) (tree.Split, []int, []int, bool) {
	xd, yd := v.disc[xAttr], v.disc[yAttr]
	loX, hiX := b.attrMin[xAttr], b.attrMax[xAttr]
	loY, hiY := b.attrMin[yAttr], b.attrMax[yAttr]

	// Map coarse cell units to fine bin units, then to attribute values.
	fineX := func(t int) float64 {
		if t < 0 {
			return float64(xMap[0])
		}
		if t >= len(xMap) {
			last := len(xMap) - 1
			return float64(xMap[last] + (t-last)*(xMap[last]-xMap[0])/max(last, 1))
		}
		return float64(xMap[t])
	}
	fineY := func(t int) float64 {
		if t < 0 {
			return float64(yMap[0]) + float64(t)
		}
		if t >= len(yMap) {
			last := len(yMap) - 1
			return float64(yMap[last] + (t-last)*(yMap[last]-yMap[0])/max(last, 1))
		}
		return float64(yMap[t])
	}

	var p1x, p1y, p2x, p2y float64
	if !mirror {
		// Line from (xi, 0) to (0, yi) in coarse units.
		p1x, p1y = valAt(xd, loX, hiX, fineX(xi)), valAt(yd, loY, hiY, fineY(0))
		p2x, p2y = valAt(xd, loX, hiX, fineX(0)), valAt(yd, loY, hiY, fineY(yi))
	} else {
		// Mirrored coordinates: w' = YB - w.
		yb := cm.YBins()
		p1x, p1y = valAt(xd, loX, hiX, fineX(xi)), valAt(yd, loY, hiY, fineY(yb))
		p2x, p2y = valAt(xd, loX, hiX, fineX(0)), valAt(yd, loY, hiY, fineY(yb-yi))
	}
	a := p2y - p1y
	bb := -(p2x - p1x)
	c := a*p1x + bb*p1y
	if a == 0 && bb == 0 {
		return tree.Split{}, nil, nil, false
	}
	// Orient so the line-space origin corner (the "under" side) satisfies
	// a*x + b*y <= c.
	cornerY := loY
	if mirror {
		cornerY = hiY
	}
	if a*loX+bb*cornerY > c {
		a, bb, c = -a, -bb, -c
	}
	// Normalize by a positive factor for readability.
	scale := math.Abs(a)
	if scale == 0 {
		scale = math.Abs(bb)
	}
	a, bb, c = a/scale, bb/scale, c/scale

	split := tree.Split{Kind: tree.SplitLinear, AttrX: xAttr, AttrY: yAttr, A: a, B: bb, C: c}

	// Approximate child distributions by cell centers against the line in
	// coarse units (exact assignment happens record-by-record next scan).
	left := make([]int, b.nc)
	right := make([]int, b.nc)
	fxi, fyi := float64(xi), float64(yi)
	for i := 0; i < cm.XBins(); i++ {
		for j := 0; j < cm.YBins(); j++ {
			jj := j
			if mirror {
				jj = cm.YBins() - 1 - j
			}
			cx, cy := float64(i)+0.5, float64(jj)+0.5
			dst := right
			if cx/fxi+cy/fyi <= 1 {
				dst = left
			}
			for cls, n := range cm.Cell(i, j) {
				dst[cls] += int(n)
			}
		}
	}
	if sum(left) == 0 || sum(right) == 0 {
		return tree.Split{}, nil, nil, false
	}
	return split, left, right, true
}

// valAt maps a fine-bin-unit coordinate to an attribute value: integer t in
// [1, bins-1] is the cut between bins t-1 and t; 0 and bins are the domain
// edges; out-of-range t extrapolates with the average bin width.
func valAt(d *quantile.Discretizer, lo, hi, t float64) float64 {
	bins := float64(d.Bins())
	w := (hi - lo) / bins
	if t <= 0 {
		return lo + t*w
	}
	if t >= bins {
		return hi + (t-bins)*w
	}
	ti := int(t)
	if float64(ti) == t {
		return d.Boundary(ti - 1)
	}
	// Fractional positions interpolate between adjacent cuts.
	lower, upper := lo, hi
	if ti >= 1 {
		lower = d.Boundary(ti - 1)
	}
	if ti+1 <= int(bins)-1 {
		upper = d.Boundary(ti)
	}
	return lower + (t-float64(ti))*(upper-lower)
}
