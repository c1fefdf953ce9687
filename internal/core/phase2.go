package core

// The raw kernel's half of Part II (Figures 4 and 10): numeric evaluation
// over discretizer intervals, the alive intervals and pending splits they
// lead to, discretizer derivation for children, and X-axis prediction. The
// gates and split installation the quantized kernel shares are in
// engine.go.

import (
	"math"
	"sort"

	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/quantile"
)

// evalNumeric computes boundary ginis and per-interval estimates for one
// numeric attribute (lines 16-17 of Figure 4). disc, when non-nil, supplies
// singleton-interval knowledge: an interval holding one distinct value has
// no interior split point, so its estimate is the better of its boundary
// values. Every estimate is floored by the paper's footnote bound — the
// index cannot drop more than 2*N_k/N below the interval's boundaries.
func evalNumeric(attr int, h *histogram.Hist1D, totals []int, disc *quantile.Discretizer) numEval {
	e := numEval{attr: attr, giniMin: math.Inf(1), bestBoundary: -1, minEst: math.Inf(1)}
	bins := h.Bins()
	e.cums = h.Cumulative()
	boundaryG := make([]float64, len(e.cums))
	for j, cum := range e.cums {
		g := gini.SplitBelow(cum, totals)
		boundaryG[j] = g
		if g < e.giniMin {
			e.giniMin = g
			e.bestBoundary = j
		}
	}
	n := 0
	for _, c := range totals {
		n += c
	}
	zeros := make([]int, len(totals))
	e.ests = make([]float64, bins)
	for k := 0; k < bins; k++ {
		x := zeros
		if k > 0 {
			x = e.cums[k-1]
		}
		y := totals
		if k < bins-1 {
			y = e.cums[k]
		}
		empty := true
		nk := 0
		for i := range totals {
			nk += y[i] - x[i]
			if y[i] != x[i] {
				empty = false
			}
		}
		if empty {
			e.ests[k] = math.Inf(1)
			continue
		}
		edge := math.Inf(1)
		if k > 0 {
			edge = boundaryG[k-1]
		}
		if k < bins-1 && boundaryG[k] < edge {
			edge = boundaryG[k]
		}
		if disc != nil && disc.Singleton(k) {
			// No interior split point exists; the interval contributes only
			// its boundary values.
			e.ests[k] = edge
		} else {
			est := gini.EstimateInterval(x, y, totals).Est
			if n > 0 && !math.IsInf(edge, 1) {
				if floor := edge - 2*float64(nk)/float64(n); est < floor {
					est = floor
				}
			}
			e.ests[k] = est
		}
		if e.ests[k] < e.minEst {
			e.minEst = e.ests[k]
		}
	}
	e.score = math.Min(e.giniMin, e.minEst)
	e.ok = !math.IsInf(e.score, 1)
	return e
}

// evalNumericAttrs evaluates every numeric attribute with an available
// marginal. Attributes whose discretizer collapsed to a single interval
// carry no split information (the interval estimate would be an
// unfalsifiable lower bound), and attributes banned by a failed resolution
// are not retried. Pure: reads only the node's own state and the view.
func (b *builder) evalNumericAttrs(n *bnode, v *view) (best, evalX *numEval) {
	for _, a := range b.numeric {
		if !b.attrAllowed(a) {
			continue
		}
		if v.marg[a] == nil || v.disc[a] == nil || v.disc[a].Bins() < 2 || n.banned[a] {
			continue
		}
		e := evalNumeric(a, v.marg[a], v.totals, v.disc[a])
		if !e.ok {
			continue
		}
		if a == v.xAttr {
			cp := e
			evalX = &cp
		}
		if best == nil || e.score < best.score {
			cp := e
			best = &cp
		}
	}
	return best, evalX
}

// selectAlive picks the alive intervals of the chosen attribute: intervals
// whose estimated lower bound undercuts the best boundary gini, at most
// MaxAlive of them, always including an interval adjacent to the best
// boundary so the exact optimum stays reachable (the paper's observation
// (i) in Section 2.1). An empty result means the boundary itself is provably
// optimal.
func (b *builder) selectAlive(e *numEval) []int {
	qualifies := func(k int) bool {
		return k >= 0 && k < len(e.ests) && e.ests[k] < e.giniMin
	}
	var cands []int
	for k := range e.ests {
		if qualifies(k) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return e.ests[cands[i]] < e.ests[cands[j]] })

	sel := map[int]bool{cands[0]: true}
	// Paper observation (i): keep an interval adjacent to the best boundary
	// so the boundary optimum sits on a gap edge and resolves without the
	// fresh-children fallback.
	if e.bestBoundary >= 0 && !sel[e.bestBoundary] && !sel[e.bestBoundary+1] {
		adj := e.bestBoundary
		if e.bestBoundary+1 < len(e.ests) && e.ests[e.bestBoundary+1] < e.ests[adj] {
			adj = e.bestBoundary + 1
		}
		if b.cfg.MaxAlive == 1 {
			// With a budget of one, adjacency wins: the boundary optimum
			// must stay on a gap edge or resolution needs fresh children.
			sel = map[int]bool{adj: true}
		} else {
			sel[adj] = true
		}
	}
	// Fill remaining capacity preferring qualifying neighbours of the
	// current selection: adjacent alive intervals merge into a single gap,
	// which both tightens the buffer and lets CMP-B's same-scan second
	// split fire (it needs one gap).
	for len(sel) < b.cfg.MaxAlive {
		added := false
	neighbours:
		for k := range sel {
			for _, nb := range [2]int{k - 1, k + 1} {
				if !sel[nb] && qualifies(nb) {
					sel[nb] = true
					added = true
					break neighbours
				}
			}
		}
		if added {
			continue
		}
		for _, c := range cands {
			if !sel[c] {
				sel[c] = true
				added = true
				break
			}
		}
		if !added {
			break
		}
	}

	out := make([]int, 0, len(sel))
	for k := range sel {
		out = append(out, k)
	}
	sort.Ints(out)
	if len(out) > b.cfg.MaxAlive {
		out = out[:b.cfg.MaxAlive]
	}
	return out
}

// gapsFor converts alive interval indices to value ranges, merging adjacent
// intervals into one gap.
func gapsFor(d *quantile.Discretizer, alive []int) []valueRange {
	bins := d.Bins()
	var gaps []valueRange
	for i := 0; i < len(alive); {
		j := i
		for j+1 < len(alive) && alive[j+1] == alive[j]+1 {
			j++
		}
		lo, hi := negInf, posInf
		if alive[i] > 0 {
			lo = d.Boundary(alive[i] - 1)
		}
		if alive[j] < bins-1 {
			hi = d.Boundary(alive[j])
		}
		gaps = append(gaps, valueRange{Lo: lo, Hi: hi})
		i = j + 1
	}
	return gaps
}

// childBins scales the interval count to the child's size so deep nodes
// carry proportionally small histograms.
func (b *builder) childBins(n int) int {
	bins := n / 200
	if bins > b.cfg.Intervals {
		bins = b.cfg.Intervals
	}
	if bins < 8 {
		bins = 8
	}
	if bins < 2 {
		bins = 2
	}
	return bins
}

// deriveChildDisc copies the parent discretizers, re-deriving the split
// attribute's from the view marginal restricted to (lo, hi].
func (b *builder) deriveChildDisc(v *view, attr int, lo, hi float64, childN int) []*quantile.Discretizer {
	out := append([]*quantile.Discretizer(nil), v.disc...)
	h := v.marg[attr]
	if h == nil || v.disc[attr] == nil {
		return out
	}
	counts := make([]int, h.Bins())
	for k := range counts {
		for _, c := range h.Bin(k) {
			counts[k] += c
		}
	}
	d, err := quantile.Derive(v.disc[attr], counts, lo, hi, b.childBins(childN),
		b.attrMin[attr], b.attrMax[attr])
	if err == nil {
		out[attr] = d
	}
	return out
}

// predictX implements predictSplit (Figure 7) for a new child: among the
// numeric attributes with marginals available in the given view (exact
// sub-matrix marginals when the parent split on its X-axis, the parent's
// own marginals — the paper's "crude estimate" — otherwise), pick the one
// whose best boundary gini is lowest; histogram matrices will be built with
// it as their X-axis.
func (b *builder) predictX(v *view, exclude int) int {
	if !b.useMats {
		return -1
	}
	bestA := -1
	bestG := math.Inf(1)
	for _, a := range b.numeric {
		if a == exclude {
			// Crude (pre-split) marginals overrate the attribute that was
			// just split; leave it to the exact slice paths.
			continue
		}
		if !b.attrAllowed(a) {
			// A disallowed attribute can never be split on, so a matrix
			// built around it would be wasted.
			continue
		}
		h := v.marg[a]
		if h == nil || occupiedBins(h) < 2 {
			continue
		}
		// Score with the same min(boundary gini, interval estimate) the
		// split decision uses, so the prediction agrees with it whenever
		// the child's marginals resemble the evidence available here.
		e := evalNumeric(a, h, v.totals, v.disc[a])
		if e.ok && e.score < bestG {
			bestG, bestA = e.score, a
		}
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// predictChildX predicts the X-axis for a child produced by splitting on a
// Y-axis attribute: the (X, attr) matrix is sliced along Y to the child's
// interval range [binLo, binHi), giving exact marginals for the X attribute
// and the split attribute; every other attribute is scored from the
// parent's pre-split marginals — the paper's "crude estimate" (Figure 7).
func (b *builder) predictChildX(v *view, attr, binLo, binHi int) int {
	if !b.useMats {
		return -1
	}
	m := v.mats[attr]
	if m == nil || binLo >= binHi {
		return b.predictX(v, attr)
	}
	s := m.SliceY(binLo, binHi)
	childTotals := s.ClassTotals()
	bestA := -1
	bestG := math.Inf(1)
	score := func(a int, h *histogram.Hist1D, totals []int) {
		if h == nil || occupiedBins(h) < 2 {
			return
		}
		// The marginals here mix slice and parent geometries, so no
		// singleton knowledge is applicable.
		if e := evalNumeric(a, h, totals, nil); e.ok && e.score < bestG {
			bestG, bestA = e.score, a
		}
	}
	for _, a := range b.numeric {
		if !b.attrAllowed(a) {
			continue
		}
		switch a {
		case v.xAttr:
			score(a, s.MarginalX(), childTotals)
		case attr:
			score(a, s.MarginalY(), childTotals)
		default:
			score(a, v.marg[a], v.totals)
		}
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// newChild registers a building child node with the given discretizers
// and X-axis and admits it to the frontier (see engine.admit).
func (b *builder) newChild(depth int, disc []*quantile.Discretizer, x int, approxCounts []int, allowCollect bool) *bnode {
	return b.admit(b.newBnode(depth, disc, x), approxCounts, allowCollect)
}

// child registers a child of n: n's discretizers, with attr's (when
// attr >= 0) re-derived over the values of v's bins [lo, hi) of it.
func (b *builder) child(n *bnode, v *view, attr, lo, hi, x int, counts []int) *bnode {
	disc := append([]*quantile.Discretizer(nil), v.disc...)
	if attr >= 0 {
		d := v.disc[attr]
		loV, hiV := negInf, posInf
		if lo > 0 {
			loV = d.Boundary(lo - 1)
		}
		if hi < d.Bins() {
			hiV = d.Boundary(hi - 1)
		}
		disc = b.deriveChildDisc(v, attr, loV, hiV, sum(counts))
	}
	return b.newBnode(n.depth+1, disc, x)
}

// pend selects the alive intervals of e's attribute and, when any are
// left, installs the pending split over them.
func (b *builder) pend(n *bnode, v *view, e *numEval, kind decideKind) int {
	alive := b.selectAlive(e)
	if len(alive) > 0 {
		b.makePending(n, v, e, alive, kind)
	}
	return len(alive)
}

// makePending installs a provisional split with alive-interval gaps (lines
// 17-19 of Figure 10). With matrices, the split on the X-axis and a single
// gap, the two region children are immediately given a second split from
// the parent's sub-matrices.
func (b *builder) makePending(n *bnode, v *view, e *numEval, alive []int, kind decideKind) {
	gaps := gapsFor(v.disc[e.attr], alive)
	A := len(gaps)

	n.pending = &pendingSplit{attr: e.attr, disc: v.disc, gaps: gaps, fallbackGini: math.Inf(1), fallbackX: [2]int{-1, -1}}
	if e.bestBoundary >= 0 {
		n.pending.fallbackThresh = v.disc[e.attr].Boundary(e.bestBoundary)
		n.pending.fallbackGini = e.giniMin
		n.pending.fallbackCum = append([]int(nil), e.cums[e.bestBoundary]...)
	}
	n.state = stPending
	if kind != decideUnderPending {
		b.pendings = append(b.pendings, n)
	}

	regionCounts := b.regionCounts(v.marg[e.attr], alive)
	n.children = make([]*bnode, A+1)
	if A >= 2 {
		// Regions share the parent's discretizers and X-axis so merging at
		// resolution is a plain histogram merge.
		disc := append([]*quantile.Discretizer(nil), v.disc...)
		x := b.predictX(v, e.attr)
		for r := 0; r <= A; r++ {
			n.children[r] = b.newChild(n.depth+1, disc, x, regionCounts[r], false)
		}
		n.pending.fallbackX = [2]int{x, x}
	} else {
		// Two regions: derive narrowed discretizers per side.
		ldisc := b.deriveChildDisc(v, e.attr, negInf, gaps[0].Lo, sum(regionCounts[0]))
		rdisc := b.deriveChildDisc(v, e.attr, gaps[0].Hi, posInf, sum(regionCounts[1]))
		lhi, rlo, bins := alive[0], alive[len(alive)-1]+1, v.disc[e.attr].Bins()
		var lview, rview *view
		if kind == decidePrimary && v.mats != nil && e.attr == v.xAttr {
			lview = b.sliceViewX(v, 0, lhi)
			rview = b.sliceViewX(v, rlo, bins)
		}
		lx := b.childX(v, lview, e.attr, 0, lhi)
		rx := b.childX(v, rview, e.attr, rlo, bins)
		n.children[0] = b.newChild(n.depth+1, ldisc, lx, regionCounts[0], true)
		n.children[1] = b.newChild(n.depth+1, rdisc, rx, regionCounts[1], true)
		n.pending.fallbackX = [2]int{lx, rx}
		b.splitAgain(n.children[0], n.children[1], lview, rview, decideUnderPending)
	}
	n.dropHists()
}

// regionCounts sums the marginal's per-class counts over each region
// between the alive intervals (used as the regions' provisional class
// distributions for pruning).
func (b *builder) regionCounts(h *histogram.Hist1D, alive []int) [][]int {
	aliveSet := make(map[int]bool, len(alive))
	for _, k := range alive {
		aliveSet[k] = true
	}
	var out [][]int
	cur := make([]int, b.nc)
	prevAlive := false
	for k := 0; k < h.Bins(); k++ {
		if aliveSet[k] {
			if !prevAlive {
				// Close the region preceding this run of alive intervals.
				out = append(out, cur)
				cur = make([]int, b.nc)
			}
			prevAlive = true
			continue
		}
		prevAlive = false
		for c, v := range h.Bin(k) {
			cur[c] += v
		}
	}
	out = append(out, cur)
	return out
}
