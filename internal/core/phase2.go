package core

import (
	"math"
	"sort"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/quantile"
	"cmpdt/internal/tree"
)

// decideKind says in what context a node's split is being decided.
type decideKind int

const (
	// decidePrimary: the node's histograms were filled by a completed scan;
	// all decisions (leaf, collect, oblique, categorical) are available.
	decidePrimary decideKind = iota
	// decideUnderResolved: a same-scan second split under a just-resolved
	// X-axis split, working from exact sub-matrix slices. May only emit
	// numeric splits; otherwise the node stays building.
	decideUnderResolved
	// decideUnderPending: a same-scan second split under a pending X-axis
	// split, working from approximate slices that exclude the alive gap.
	decideUnderPending
)

// histView is the histogram evidence a decision works from: per-attribute
// marginals, optional bivariate matrices, and the discretizer mapping the
// numeric bins to values. For primary decisions it is the node's own
// histograms; for same-scan second splits it is a slice of the parent's.
type histView struct {
	marg   []*histogram.Hist1D // nil entries where no marginal is available
	mats   []*histogram.Matrix // nil without matrices
	disc   []*quantile.Discretizer
	xAttr  int
	totals []int
	n      int
	// oblique lists every attribute-pair matrix available for the linear
	// split search: the N-1 X-axis matrices and, with the ObliqueAllPairs
	// extension, every other numeric pair.
	oblique []obliqueMat
}

// obliqueMat names the attribute pair a matrix covers.
type obliqueMat struct {
	xa, ya int
	m      *histogram.Matrix
}

// viewOf builds the primary view of a scanned node.
func (b *builder) viewOf(n *bnode) *histView {
	v := &histView{disc: n.disc, xAttr: n.xAttr, marg: make([]*histogram.Hist1D, b.na)}
	if n.mats != nil {
		v.mats = n.mats
		var first *histogram.Matrix
		for _, y := range b.numeric {
			if y != n.xAttr && n.mats[y] != nil {
				first = n.mats[y]
				break
			}
		}
		if first != nil {
			// Only the first matrix computes the X-axis gini (Section 2.2).
			v.marg[n.xAttr] = first.MarginalX()
		}
		for _, y := range b.numeric {
			if m := n.mats[y]; m != nil {
				v.marg[y] = m.MarginalY()
				v.oblique = append(v.oblique, obliqueMat{xa: n.xAttr, ya: y, m: m})
			}
		}
		for pi, m := range n.pairMats {
			if m != nil {
				v.oblique = append(v.oblique, obliqueMat{xa: b.pairs[pi][0], ya: b.pairs[pi][1], m: m})
			}
		}
	}
	for a := 0; a < b.na; a++ {
		if n.hists != nil && n.hists[a] != nil {
			v.marg[a] = n.hists[a]
		}
	}
	v.finish(b.nc)
	return v
}

// sliceViewX restricts a matrix-bearing view to X intervals [lo, hi) — the
// shaded/unshaded sub-matrices of Figure 6. Categorical marginals are not
// sliceable and are absent from the result.
func (b *builder) sliceViewX(v *histView, lo, hi int) *histView {
	if v.mats == nil || lo >= hi {
		return nil
	}
	sv := &histView{
		xAttr: v.xAttr,
		marg:  make([]*histogram.Hist1D, b.na),
		mats:  make([]*histogram.Matrix, b.na),
		disc:  append([]*quantile.Discretizer(nil), v.disc...),
	}
	sv.disc[v.xAttr] = v.disc[v.xAttr].Slice(lo, hi)
	var first *histogram.Matrix
	for _, y := range b.numeric {
		if m := v.mats[y]; m != nil {
			s := m.SliceX(lo, hi)
			sv.mats[y] = s
			if first == nil {
				first = s
			}
			sv.marg[y] = s.MarginalY()
		}
	}
	if first == nil {
		return nil
	}
	sv.marg[v.xAttr] = first.MarginalX()
	sv.finish(b.nc)
	return sv
}

func (v *histView) finish(nc int) {
	v.totals = make([]int, nc)
	for _, h := range v.marg {
		if h != nil {
			for i, c := range h.ClassTotals() {
				v.totals[i] += c
			}
			break
		}
	}
	v.n = 0
	for _, c := range v.totals {
		v.n += c
	}
}

// numEval is the per-attribute outcome of Part II's index computation:
// gini_min over the interval boundaries and gini_est per interval.
type numEval struct {
	attr         int
	ok           bool
	score        float64 // min(giniMin, minEst)
	giniMin      float64
	bestBoundary int // boundary index achieving giniMin, -1 if none
	ests         []float64
	cums         [][]int
	minEst       float64
}

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
func (b *builder) evalNumericAttrs(n *bnode, v *histView) (best, evalX *numEval) {
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

// evalCategoricalAttrs finds the best subset split over the categorical
// marginals. Pure.
func (b *builder) evalCategoricalAttrs(v *histView) (attr int, mask uint64, g float64) {
	attr, g = -1, math.Inf(1)
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind != dataset.Categorical || v.marg[a] == nil || !b.attrAllowed(a) {
			continue
		}
		h := v.marg[a]
		counts := make([][]int, h.Bins())
		for bin := range counts {
			counts[bin] = h.Bin(bin)
		}
		if m, gg, ok := gini.BestSubsetSplit(counts); ok && gg < g {
			g, attr, mask = gg, a, m
		}
	}
	return attr, mask, g
}

// decideEval carries the pure node-local evaluation a split decision works
// from. The parallel decide path fills one per scanned node across the
// worker pool; the serial application then consumes it in the original node
// order, so the resulting mutations are identical to an inline decision.
type decideEval struct {
	v           *histView
	evaluated   bool // best/evalX/cat fields are filled
	best, evalX *numEval
	catAttr     int
	catMask     uint64
	catG        float64
	line        obliqueLine
	lineOK      bool
	lineTried   bool // the oblique search ran during precompute
}

// precomputeDecide runs every pure part of a primary split decision for a
// scanned node: the view construction, the univariate gini hill-climbing,
// the categorical subset search and (when the gates allow) the oblique
// intercept walks. It mutates nothing; decideNodeFrom re-derives the cheap
// gates itself and falls back to inline computation for anything not
// precomputed, so a gate mismatch can cost time but never changes the tree.
func (b *builder) precomputeDecide(n *bnode) *decideEval {
	v := b.viewOf(n)
	d := &decideEval{v: v, catAttr: -1, catG: math.Inf(1)}

	// Mirror decideNodeFrom's early exits on a scratch node: when the
	// serial phase will finalize a leaf or mark a collect, the evaluations
	// below are never consulted.
	var tn tree.Node
	tn.SetCounts(v.totals)
	if tn.Gini == 0 || tn.N < b.cfg.MinSplitRecords || n.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(tn.ClassCounts[tn.Class]) >= b.cfg.PurityStop*float64(tn.N)) {
		return d
	}
	if b.cfg.InMemoryNodeRecords > 0 && tn.N <= b.cfg.InMemoryNodeRecords && n.depth > 0 {
		return d
	}

	d.best, d.evalX = b.evalNumericAttrs(n, v)
	d.catAttr, d.catMask, d.catG = b.evalCategoricalAttrs(v)
	d.evaluated = true

	// Oblique gate, mirrored from decideNodeFrom (including the X-axis
	// preference) so the intercept walks run here, off the serial path.
	best := d.best
	if v.mats != nil && best != nil && d.evalX != nil && best.attr != v.xAttr &&
		d.evalX.score-best.score <= 0.02*tn.Gini {
		best = d.evalX
	}
	bestScore := math.Inf(1)
	if best != nil {
		bestScore = best.score
	}
	if d.catAttr >= 0 && d.catG < bestScore {
		bestScore = d.catG
	}
	if math.IsInf(bestScore, 1) || tn.Gini-bestScore < b.cfg.MinGiniGain {
		return d
	}
	if b.cfg.Algorithm == CMPFull && v.mats != nil &&
		n.depth <= b.cfg.ObliqueMaxDepth &&
		tn.N >= b.cfg.ObliqueMinRecords && bestScore > b.cfg.ObliqueThreshold {
		d.line, d.lineOK = b.bestObliqueSplit(v)
		d.lineTried = true
	}
	return d
}

// decideNode is Part II of Figures 4 and 10: pick the splitting attribute,
// determine the alive intervals, and install a leaf, a resolved split, or a
// pending provisional split. Secondary decisions (same-scan second splits)
// may only emit numeric splits; when they decline, the node simply remains
// a building node for the next round.
func (b *builder) decideNode(n *bnode, v *histView, kind decideKind) {
	b.decideNodeFrom(n, &decideEval{v: v, catAttr: -1, catG: math.Inf(1)}, kind)
}

// decideNodeFrom is decideNode working from a (possibly precomputed)
// evaluation. All builder mutations happen here, on the caller's goroutine.
func (b *builder) decideNodeFrom(n *bnode, pre *decideEval, kind decideKind) {
	v := pre.v
	secondary := kind != decidePrimary
	n.tn.SetCounts(v.totals)

	if n.tn.Gini == 0 || n.tn.N < b.cfg.MinSplitRecords || n.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(n.tn.ClassCounts[n.tn.Class]) >= b.cfg.PurityStop*float64(n.tn.N)) {
		if !secondary {
			b.finalizeAsLeaf(n, v.totals)
		}
		return
	}
	if !secondary && b.cfg.InMemoryNodeRecords > 0 &&
		n.tn.N <= b.cfg.InMemoryNodeRecords && n.depth > 0 {
		b.markCollect(n)
		return
	}

	var best, evalX *numEval
	if pre.evaluated {
		best, evalX = pre.best, pre.evalX
	} else {
		best, evalX = b.evalNumericAttrs(n, v)
	}
	// Scores are estimates; when the predicted X-axis is statistically
	// indistinguishable from the best attribute, prefer it — the split stays
	// exact (resolution machinery unchanged) and the matrices become
	// partitionable, which is the whole point of the prediction.
	if v.mats != nil && best != nil && evalX != nil && best.attr != v.xAttr &&
		evalX.score-best.score <= 0.02*n.tn.Gini {
		best = evalX
	}

	var catAttr = -1
	var catMask uint64
	catG := math.Inf(1)
	if !secondary {
		if pre.evaluated {
			catAttr, catMask, catG = pre.catAttr, pre.catMask, pre.catG
		} else {
			catAttr, catMask, catG = b.evalCategoricalAttrs(v)
		}
	}

	bestScore := math.Inf(1)
	if best != nil {
		bestScore = best.score
	}
	useCat := catAttr >= 0 && catG < bestScore
	if useCat {
		bestScore = catG
	}

	if debugDecide != nil {
		debugDecide(n, v, best, bestScore)
	}
	if math.IsInf(bestScore, 1) || n.tn.Gini-bestScore < b.cfg.MinGiniGain {
		if !secondary {
			b.finalizeAsLeaf(n, v.totals)
		}
		return
	}

	// Full CMP: try linear-combination splits when univariate looks weak.
	if !secondary && b.cfg.Algorithm == CMPFull && v.mats != nil &&
		n.depth <= b.cfg.ObliqueMaxDepth &&
		n.tn.N >= b.cfg.ObliqueMinRecords && bestScore > b.cfg.ObliqueThreshold {
		line, ok := pre.line, pre.lineOK
		if !pre.lineTried {
			line, ok = b.bestObliqueSplit(v)
		}
		if ok &&
			line.gini < (1-b.cfg.ObliqueGain)*bestScore &&
			n.tn.Gini-line.gini >= b.cfg.MinGiniGain {
			if n.depth == 0 {
				b.stats.RootSplitAttr = line.split.AttrX
				b.stats.RootAliveIntervals = 0
				b.stats.RootSplitGini = line.gini
			}
			b.makeResolvedLinear(n, v, line)
			return
		}
	}

	// Prediction accounting: with matrices present, the split was
	// "predicted" when it lands on the X-axis.
	if v.mats != nil && !secondary {
		b.stats.PredictionTotal++
		if !useCat && best.attr == v.xAttr {
			b.stats.PredictionHits++
		}
	}

	if useCat {
		if n.depth == 0 {
			b.stats.RootSplitAttr = catAttr
			b.stats.RootAliveIntervals = 0
			b.stats.RootSplitGini = catG
		}
		b.makeResolvedCategorical(n, v, catAttr, catMask)
		return
	}

	alive := b.selectAlive(best)
	if n.depth == 0 {
		b.stats.RootSplitAttr = best.attr
		b.stats.RootAliveIntervals = len(alive)
		if len(alive) == 0 {
			b.stats.RootSplitGini = best.giniMin
		}
	}
	if len(alive) == 0 {
		// The minimum sits exactly on an interval boundary: the split is
		// already exact and resolves without buffering.
		b.makeResolvedNumeric(n, v, best, kind)
		return
	}
	b.makePending(n, v, best, alive, kind)
}

// markCollect schedules a small node to be finished in memory.
func (b *builder) markCollect(n *bnode) {
	n.state = stCollect
	n.collectRound = b.round
	n.dropHists()
	if !n.collectListed {
		n.collectListed = true
		b.collects = append(b.collects, n)
	}
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
func (b *builder) deriveChildDisc(v *histView, attr int, lo, hi float64, childN int) []*quantile.Discretizer {
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
func (b *builder) predictX(v *histView, exclude int) int {
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
		e := evalNumeric(a, h, v.totals, discFor(v, a))
		if e.ok && e.score < bestG {
			bestG, bestA = e.score, a
		}
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// discFor returns the view's discretizer for an attribute when its bin
// count matches the marginal being scored, nil otherwise (slice marginals
// carry their own geometry).
func discFor(v *histView, a int) *quantile.Discretizer {
	if v.disc[a] == nil {
		return nil
	}
	return v.disc[a]
}

// occupiedBins counts non-empty intervals; attributes concentrated in a
// single interval carry no assessable split signal for prediction.
func occupiedBins(h *histogram.Hist1D) int {
	occ := 0
	for k := 0; k < h.Bins(); k++ {
		for _, c := range h.Bin(k) {
			if c > 0 {
				occ++
				break
			}
		}
	}
	return occ
}

// predictChildX predicts the X-axis for a child produced by splitting on a
// Y-axis attribute: the (X, attr) matrix is sliced along Y to the child's
// interval range [binLo, binHi), giving exact marginals for the X attribute
// and the split attribute; every other attribute is scored from the
// parent's pre-split marginals — the paper's "crude estimate" (Figure 7).
func (b *builder) predictChildX(v *histView, attr, binLo, binHi int) int {
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

// xDefault is the fallback X-axis when no candidate scored: the first
// allowed numeric attribute, or the first numeric attribute outright when
// the subsample excludes them all (the matrix is then wasted but harmless —
// no split path consults disallowed attributes).
func (b *builder) xDefault() int {
	for _, a := range b.numeric {
		if b.attrAllowed(a) {
			return a
		}
	}
	return b.numeric[0]
}

// newChild creates a building child node with the given X-axis attribute,
// allocating histograms and scheduling it for the next scan. Children known
// to be small skip the histogram round entirely and go straight to record
// collection (allowCollect is false for multi-region pending children,
// which must stay histogram-mergeable).
func (b *builder) newChild(depth int, disc []*quantile.Discretizer, x int, approxCounts []int, allowCollect bool) *bnode {
	if b.useMats && (x < 0 || disc[x] == nil || disc[x].Bins() < 1) {
		x = b.xDefault()
	}
	c := b.newBnode(depth, disc, x)
	if approxCounts != nil {
		c.tn.SetCounts(approxCounts)
	}
	if allowCollect && b.cfg.InMemoryNodeRecords > 0 && depth > 0 && approxCounts != nil &&
		c.tn.N > 0 && c.tn.N <= b.cfg.InMemoryNodeRecords {
		b.markCollect(c)
		return c
	}
	b.allocHists(c)
	// The child's histograms are filled by the NEXT scan; it must not be
	// decided in the round that created it (which can otherwise happen when
	// a failed resolution re-decides a node while the current round's
	// decision list is already snapshotted).
	c.notBefore = b.round + 1
	b.queueScanned(c)
	return c
}

// makeResolvedNumeric installs an exact boundary split (no alive
// intervals). With matrices and the split on the X-axis, the children's
// sub-matrices are exact and a same-scan second split is attempted —
// CMP-B's prediction payoff with zero accuracy loss.
func (b *builder) makeResolvedNumeric(n *bnode, v *histView, e *numEval, kind decideKind) {
	thresh := v.disc[e.attr].Boundary(e.bestBoundary)
	leftCounts := append([]int(nil), e.cums[e.bestBoundary]...)
	rightCounts := make([]int, b.nc)
	for i := range rightCounts {
		rightCounts[i] = v.totals[i] - leftCounts[i]
	}
	leftN, rightN := sum(leftCounts), sum(rightCounts)

	var lview, rview *histView
	doubleSplit := kind == decidePrimary && v.mats != nil && e.attr == v.xAttr
	if debugDouble != nil && kind == decidePrimary {
		switch {
		case v.mats == nil:
			debugDouble("resolved:no-mats")
		case e.attr != v.xAttr:
			debugDouble("resolved:miss")
		default:
			debugDouble("resolved:eligible")
		}
	}
	if doubleSplit {
		bins := v.disc[e.attr].Bins()
		lview = b.sliceViewX(v, 0, e.bestBoundary+1)
		rview = b.sliceViewX(v, e.bestBoundary+1, bins)
	}

	ldisc := b.deriveChildDisc(v, e.attr, negInf, thresh, leftN)
	rdisc := b.deriveChildDisc(v, e.attr, thresh, posInf, rightN)
	bins := v.disc[e.attr].Bins()
	var lx, rx int
	switch {
	case lview != nil:
		lx = b.predictX(lview, -1)
	case v.mats != nil && e.attr != v.xAttr:
		lx = b.predictChildX(v, e.attr, 0, e.bestBoundary+1)
	default:
		lx = b.predictX(v, e.attr)
	}
	switch {
	case rview != nil:
		rx = b.predictX(rview, -1)
	case v.mats != nil && e.attr != v.xAttr:
		rx = b.predictChildX(v, e.attr, e.bestBoundary+1, bins)
	default:
		rx = b.predictX(v, e.attr)
	}
	left := b.newChild(n.depth+1, ldisc, lx, leftCounts, true)
	right := b.newChild(n.depth+1, rdisc, rx, rightCounts, true)

	n.tn.Split = &tree.Split{Kind: tree.SplitNumeric, Attr: e.attr, Threshold: thresh}
	n.tn.Left, n.tn.Right = left.tn, right.tn
	n.children = []*bnode{left, right}
	n.state = stResolved
	n.dropHists()

	if doubleSplit {
		grew := false
		if lview != nil {
			b.decideNode(left, lview, decideUnderResolved)
			grew = grew || left.state != stBuilding
		}
		if rview != nil {
			b.decideNode(right, rview, decideUnderResolved)
			grew = grew || right.state != stBuilding
		}
		if grew {
			b.stats.DoubleSplits++
		}
	}
}

// makeResolvedCategorical installs an exact subset split.
func (b *builder) makeResolvedCategorical(n *bnode, v *histView, attr int, mask uint64) {
	h := v.marg[attr]
	leftCounts := make([]int, b.nc)
	for val := 0; val < h.Bins(); val++ {
		if mask&(1<<uint(val)) == 0 {
			continue
		}
		for c, k := range h.Bin(val) {
			leftCounts[c] += k
		}
	}
	rightCounts := make([]int, b.nc)
	for i := range rightCounts {
		rightCounts[i] = v.totals[i] - leftCounts[i]
	}
	disc := append([]*quantile.Discretizer(nil), v.disc...)
	x := b.predictX(v, -1)
	left := b.newChild(n.depth+1, disc, x, leftCounts, true)
	right := b.newChild(n.depth+1, disc, x, rightCounts, true)

	n.tn.Split = &tree.Split{Kind: tree.SplitCategorical, Attr: attr, Subset: mask}
	n.tn.Left, n.tn.Right = left.tn, right.tn
	n.children = []*bnode{left, right}
	n.state = stResolved
	n.dropHists()
}

// makePending installs a provisional split with alive-interval gaps (lines
// 17-19 of Figure 10). With matrices, the split on the X-axis and a single
// gap, the two region children are immediately given a second split from
// the parent's sub-matrices.
func (b *builder) makePending(n *bnode, v *histView, e *numEval, alive []int, kind decideKind) {
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

	doubleSplit := kind == decidePrimary && v.mats != nil && e.attr == v.xAttr && A == 1
	if debugDouble != nil && kind == decidePrimary {
		switch {
		case v.mats == nil:
			debugDouble("pending:no-mats")
		case e.attr != v.xAttr:
			debugDouble("pending:miss")
		case A >= 2:
			debugDouble("pending:A>=2")
		default:
			debugDouble("pending:eligible")
		}
	}
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
		var lview, rview *histView
		if doubleSplit {
			bins := v.disc[e.attr].Bins()
			lview = b.sliceViewX(v, 0, alive[0])
			rview = b.sliceViewX(v, alive[len(alive)-1]+1, bins)
		}
		bins := v.disc[e.attr].Bins()
		var lx, rx int
		switch {
		case lview != nil:
			lx = b.predictX(lview, -1)
		case v.mats != nil && e.attr != v.xAttr:
			lx = b.predictChildX(v, e.attr, 0, alive[0])
		default:
			lx = b.predictX(v, e.attr)
		}
		switch {
		case rview != nil:
			rx = b.predictX(rview, -1)
		case v.mats != nil && e.attr != v.xAttr:
			rx = b.predictChildX(v, e.attr, alive[len(alive)-1]+1, bins)
		default:
			rx = b.predictX(v, e.attr)
		}
		n.children[0] = b.newChild(n.depth+1, ldisc, lx, regionCounts[0], true)
		n.children[1] = b.newChild(n.depth+1, rdisc, rx, regionCounts[1], true)
		n.pending.fallbackX = [2]int{lx, rx}
		if doubleSplit {
			grew := false
			if lview != nil {
				b.decideNode(n.children[0], lview, decideUnderPending)
				grew = grew || n.children[0].state != stBuilding
			}
			if rview != nil {
				b.decideNode(n.children[1], rview, decideUnderPending)
				grew = grew || n.children[1].state != stBuilding
			}
			if grew {
				b.stats.DoubleSplits++
			}
		}
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

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// debugDecide, when non-nil, observes every split decision (test hook).
var debugDecide func(n *bnode, v *histView, best *numEval, bestScore float64)

// debugDouble, when non-nil, observes double-split gating (test hook).
var debugDouble func(reason string)
