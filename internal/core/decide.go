package core

// Part II of Figures 4 and 10, as the round engine runs it for both scan
// kernels: the histogram views a decision works from, the stopping gates
// and split comparison (evaluate), their application (decideFrom), and the
// installation of resolved numeric, categorical and linear splits with
// CMP-B's child-axis choice and same-scan double split. The kernels supply
// numeric evaluation, X-axis prediction and child geometry; the raw
// kernel's pending splits are in phase2.go.

import (
	"math"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
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

// view is the histogram evidence a decision works from: per-attribute
// marginals, optional bivariate matrices, and the mapping of numeric bins
// to values. For primary decisions it is the node's own histograms; for
// same-scan second splits it is a slice of the parent's.
type view struct {
	marg   []*histogram.Hist1D // nil entries where no marginal is available
	mats   []*histogram.Matrix // nil without matrices
	xAttr  int
	totals []int
	// disc (raw) maps bins to values through discretizers.
	disc []*quantile.Discretizer
	// lo (quantized) is the global code of each numeric attribute's bin 0.
	lo []int
	// oblique lists every attribute-pair matrix available for the linear
	// split search: the N-1 X-axis matrices and, with the ObliqueAllPairs
	// extension, every other numeric pair.
	oblique []obliqueMat
	// evals memoizes the quantized kernel's qEvalNumeric per attribute (see
	// qbuilder.evalOf).
	evals []*numEval
}

// obliqueMat names the attribute pair a matrix covers.
type obliqueMat struct {
	xa, ya int
	m      *histogram.Matrix
}

// threshold is the value a split after bin k of attribute a tests: the
// discretizer boundary (raw), or the global code boundary that translate
// rewrites to raw units once the tree is final (quantized).
func (v *view) threshold(a, k int) float64 {
	if v.lo != nil {
		return float64(v.lo[a] + k)
	}
	return v.disc[a].Boundary(k)
}

func (v *view) finish(nc int) {
	v.totals = make([]int, nc)
	for _, h := range v.marg {
		if h != nil {
			copy(v.totals, h.ClassTotals())
			break
		}
	}
}

// viewOf builds the primary view of a scanned node.
func (e *engine[N]) viewOf(n N) *view {
	c := n.base()
	v := &view{xAttr: c.xAttr, marg: make([]*histogram.Hist1D, e.na)}
	n.frame(v)
	if c.mats != nil {
		v.mats = c.mats
		for _, y := range e.numeric {
			if m := c.mats[y]; m != nil {
				// Only the first matrix computes the X-axis gini (Section 2.2).
				v.marg[c.xAttr] = m.MarginalX()
				break
			}
		}
		for _, y := range e.numeric {
			if m := c.mats[y]; m != nil {
				v.marg[y] = m.MarginalY()
				if e.oblique {
					v.oblique = append(v.oblique, obliqueMat{xa: c.xAttr, ya: y, m: m})
				}
			}
		}
		for pi, m := range c.pairMats {
			if m != nil && e.oblique {
				v.oblique = append(v.oblique, obliqueMat{xa: e.pairs[pi][0], ya: e.pairs[pi][1], m: m})
			}
		}
	}
	for a, h := range c.hists {
		if h != nil {
			v.marg[a] = h
		}
	}
	v.finish(e.nc)
	return v
}

// sliceViewX restricts a matrix-bearing view to X bins [lo, hi) — the
// shaded/unshaded sub-matrices of Figure 6. Categorical marginals are not
// sliceable (no (X, cat) matrix feeds decisions) and are absent from the
// result. The sliced matrices alias v's (Matrix.SliceX returns views), so
// they are only read: decisions and predictions score them, and no node
// takes them as its histograms.
func (e *engine[N]) sliceViewX(v *view, lo, hi int) *view {
	if v.mats == nil || lo >= hi {
		return nil
	}
	sv := &view{
		xAttr: v.xAttr,
		marg:  make([]*histogram.Hist1D, e.na),
		mats:  make([]*histogram.Matrix, e.na),
	}
	if v.disc != nil {
		sv.disc = append([]*quantile.Discretizer(nil), v.disc...)
		sv.disc[v.xAttr] = v.disc[v.xAttr].Slice(lo, hi)
	}
	if v.lo != nil {
		sv.lo = append([]int(nil), v.lo...)
		sv.lo[v.xAttr] += lo
	}
	for _, y := range e.numeric {
		if m := v.mats[y]; m != nil {
			s := m.SliceX(lo, hi)
			sv.mats[y] = s
			if sv.marg[v.xAttr] == nil {
				sv.marg[v.xAttr] = s.MarginalX()
			}
			sv.marg[y] = s.MarginalY()
		}
	}
	if sv.marg[v.xAttr] == nil {
		return nil
	}
	sv.finish(e.nc)
	return sv
}

// numEval is the per-attribute outcome of Part II's index computation: the
// best interval boundary's gini and the score attribute selection uses,
// min(giniMin, the interval estimates' lower bound).
type numEval struct {
	attr         int
	ok           bool
	score        float64
	giniMin      float64
	bestBoundary int // boundary index achieving giniMin, -1 if none
	cums         [][]int
	// ests and minEst are the raw kernel's per-interval estimates (lines
	// 16-17 of Figure 4), which choose the alive intervals.
	ests   []float64
	minEst float64
}

// evalCategoricalAttrs finds the best subset split over the categorical
// marginals. Pure.
func (e *engine[N]) evalCategoricalAttrs(v *view) (attr int, mask uint64, g float64) {
	attr, g = -1, math.Inf(1)
	for a := 0; a < e.na; a++ {
		if e.schema.Attrs[a].Kind != dataset.Categorical || v.marg[a] == nil || !e.attrAllowed(a) {
			continue
		}
		h := v.marg[a]
		counts := make([][]int32, h.Bins())
		for bin := range counts {
			counts[bin] = h.Bin(bin)
		}
		if m, gg, ok := gini.BestSubsetSplit(counts); ok && gg < g {
			g, attr, mask = gg, a, m
		}
	}
	return attr, mask, g
}

// decideEval carries a decision's evidence and the pure evaluations made
// from it. The parallel decide path fills one per scanned node across the
// worker pool; the serial application then consumes them in the original
// node order, so the resulting mutations are identical to an inline
// decision.
type decideEval struct {
	v           *view
	evaluated   bool // best/evalX/cat fields are filled
	best, evalX *numEval
	catAttr     int
	catMask     uint64
	catG        float64
	line        obliqueLine
	lineOK      bool
	lineTried   bool // the oblique search ran
}

func newDecideEval(v *view) *decideEval {
	return &decideEval{v: v, catAttr: -1, catG: math.Inf(1)}
}

// verdict is the outcome of a decision's gates and searches.
type verdict int

const (
	leafVerdict verdict = iota
	collectVerdict
	obliqueVerdict
	categoricalVerdict
	numericVerdict
)

// evaluate is the pure half of Part II: the stopping gates over the class
// counts in tn, the split searches (numeric, categorical and, when they
// look weak, oblique) and their comparison. It writes only d, so it is safe
// to run for many nodes at once, and re-running it on a filled d redoes
// only the cheap gates.
func (e *engine[N]) evaluate(n N, d *decideEval, kind decideKind, tn *tree.Node) verdict {
	v, primary, depth := d.v, kind == decidePrimary, n.base().depth
	if tn.Gini == 0 || tn.N < exact.MinSplitRecords || depth >= e.cfg.MaxDepth ||
		(e.cfg.PurityStop > 0 && float64(tn.ClassCounts[tn.Class]) >= e.cfg.PurityStop*float64(tn.N)) {
		return leafVerdict
	}
	if primary && e.cfg.InMemoryNodeRecords > 0 && tn.N <= e.cfg.InMemoryNodeRecords && depth > 0 {
		return collectVerdict
	}
	if !d.evaluated {
		d.best, d.evalX = e.k.evalNumericAttrs(n, v)
		if primary {
			d.catAttr, d.catMask, d.catG = e.evalCategoricalAttrs(v)
		}
		d.evaluated = true
	}
	// Scores are estimates; when the predicted X-axis is statistically
	// indistinguishable from the best attribute, prefer it — the split stays
	// exact and the matrices become partitionable, which is the whole point
	// of the prediction.
	if v.mats != nil && d.best != nil && d.evalX != nil && d.best.attr != v.xAttr &&
		d.evalX.score-d.best.score <= 0.02*tn.Gini {
		d.best = d.evalX
	}
	bestScore := math.Inf(1)
	if d.best != nil {
		bestScore = d.best.score
	}
	useCat := d.catAttr >= 0 && d.catG < bestScore
	if useCat {
		bestScore = d.catG
	}
	if math.IsInf(bestScore, 1) || tn.Gini-bestScore < exact.MinGiniGain {
		return leafVerdict
	}
	// Full CMP: try linear-combination splits when univariate looks weak.
	if primary && e.oblique && v.mats != nil && depth <= obliqueMaxDepth &&
		tn.N >= obliqueMinRecords && bestScore > obliqueThreshold {
		if !d.lineTried {
			d.line, d.lineOK = e.k.bestObliqueSplit(v)
			d.lineTried = true
		}
		if d.lineOK && d.line.gini < (1-obliqueGain)*bestScore && tn.Gini-d.line.gini >= exact.MinGiniGain {
			return obliqueVerdict
		}
	}
	if useCat {
		return categoricalVerdict
	}
	return numericVerdict
}

// decideScanned runs Part II on every node whose histograms the scan just
// completed. With Workers > 1 the pure evaluations run across the pool
// first; the decisions themselves are applied serially in the original
// node order, so every mutation happens exactly as in a serial build.
func (e *engine[N]) decideScanned() {
	span := e.obs.StartSpan(obs.PhaseDecide)
	defer span.End()
	toDecide := e.scanned
	e.scanned = nil
	var ready []N
	for _, n := range toDecide {
		n.base().queued = false
	}
	for _, n := range toDecide {
		switch c := n.base(); {
		case c.dead || c.state != stBuilding:
		case c.notBefore > e.round:
			// Reverted this round; its histograms await the next scan.
			e.queueScanned(n)
		default:
			ready = append(ready, n)
		}
	}
	if e.cfg.Workers > 1 && len(ready) > 1 {
		evals := make([]*decideEval, len(ready))
		doParallel(e.cfg.Workers, len(ready), func(i int) {
			evals[i] = newDecideEval(e.viewOf(ready[i]))
			var tn tree.Node
			tn.SetCounts(evals[i].v.totals)
			e.evaluate(ready[i], evals[i], decidePrimary, &tn)
		})
		for i, n := range ready {
			e.decideFrom(n, evals[i], decidePrimary)
		}
		return
	}
	for _, n := range ready {
		e.decide(n, e.viewOf(n), decidePrimary)
	}
}

// decide is Part II of Figures 4 and 10 for node n over view v.
func (e *engine[N]) decide(n N, v *view, kind decideKind) {
	e.decideFrom(n, newDecideEval(v), kind)
}

// decideFrom applies a decision: it installs a leaf, a collect, or a
// resolved or pending split. Secondary decisions (same-scan second splits)
// may only emit numeric splits; when they decline, the node simply remains
// a building node for the next round. All engine mutations happen here, on
// the caller's goroutine.
func (e *engine[N]) decideFrom(n N, d *decideEval, kind decideKind) {
	c, v := n.base(), d.v
	c.tn.SetCounts(v.totals)
	verdict := e.evaluate(n, d, kind, c.tn)
	root := c.depth == 0
	switch verdict {
	case leafVerdict:
		if kind == decidePrimary {
			e.finalizeAsLeaf(n, v.totals)
		}
		return
	case collectVerdict:
		e.markCollect(n)
		return
	case obliqueVerdict:
		if root {
			e.stats.RootSplitAttr, e.stats.RootAliveIntervals, e.stats.RootSplitGini = d.line.split.AttrX, 0, d.line.gini
		}
		e.resolveWhole(n, v, d.line.split, d.line.leftCounts, d.line.rightCounts)
		return
	}
	// Prediction accounting: with matrices present, the split was
	// "predicted" when it lands on the X-axis.
	if v.mats != nil && kind == decidePrimary {
		e.stats.PredictionTotal++
		if verdict == numericVerdict && d.best.attr == v.xAttr {
			e.stats.PredictionHits++
		}
	}
	if verdict == categoricalVerdict {
		if root {
			e.stats.RootSplitAttr, e.stats.RootAliveIntervals, e.stats.RootSplitGini = d.catAttr, 0, d.catG
		}
		e.makeResolvedCategorical(n, v, d.catAttr, d.catMask)
		return
	}
	alive := e.k.pend(n, v, d.best, kind)
	if root {
		e.stats.RootSplitAttr, e.stats.RootAliveIntervals = d.best.attr, alive
		if alive == 0 {
			e.stats.RootSplitGini = d.best.giniMin
		}
	}
	if alive == 0 {
		// The minimum sits exactly on an interval boundary: the split is
		// already exact and resolves without buffering.
		e.makeResolvedNumeric(n, v, d.best, kind)
	}
}

// resolve installs split s at n over children l and r.
func (e *engine[N]) resolve(n N, s *tree.Split, l, r N) {
	c := n.base()
	c.tn.Split = s
	c.tn.Left, c.tn.Right = l.base().tn, r.base().tn
	c.children = []N{l, r}
	c.state = stResolved
	c.dropHists()
}

// makeResolvedNumeric installs an exact boundary split. With matrices and
// the split on the X-axis, the children's sub-matrices are exact and a
// same-scan second split is attempted — CMP-B's prediction payoff with
// zero accuracy loss.
func (e *engine[N]) makeResolvedNumeric(n N, v *view, best *numEval, kind decideKind) {
	attr, k, bins := best.attr, best.bestBoundary, v.marg[best.attr].Bins()
	leftCounts := append([]int(nil), best.cums[k]...)
	rightCounts := minus(v.totals, leftCounts)
	var lview, rview *view
	if kind == decidePrimary && v.mats != nil && attr == v.xAttr {
		lview = e.sliceViewX(v, 0, k+1)
		rview = e.sliceViewX(v, k+1, bins)
	}
	lx := e.childX(v, lview, attr, 0, k+1)
	rx := e.childX(v, rview, attr, k+1, bins)
	left := e.admit(e.k.child(n, v, attr, 0, k+1, lx, leftCounts), leftCounts, true)
	right := e.admit(e.k.child(n, v, attr, k+1, bins, rx, rightCounts), rightCounts, true)
	e.resolve(n, &tree.Split{Kind: tree.SplitNumeric, Attr: attr, Threshold: v.threshold(attr, k)}, left, right)
	e.splitAgain(left, right, lview, rview, decideUnderResolved)
}

// childX predicts the X-axis of the child of a split on attr that covers
// v's bins [lo, hi) of it. sv is the child's exact X-sliced view when the
// parent split on its own X-axis.
func (e *engine[N]) childX(v, sv *view, attr, lo, hi int) int {
	switch {
	case sv != nil:
		return e.k.predictX(sv, -1)
	case v.mats != nil && attr != v.xAttr:
		return e.k.predictChildX(v, attr, lo, hi)
	case v.mats != nil && e.inheritX:
		// A second-level split on the view's own X-axis restricts every
		// matrix exactly: the child gets the fully exact prediction the
		// first-level children get, stickiness included, so on
		// axis-coherent data it keeps earning same-scan double splits (see
		// newQBuilder for when inheritX is set).
		if s := e.sliceViewX(v, lo, hi); s != nil {
			return e.k.predictX(s, -1)
		}
	}
	// Crude (pre-split) marginals overrate the attribute that was just
	// split; leave it to the exact slice paths.
	return e.k.predictX(v, attr)
}

// splitAgain gives the children of a split on the X-axis their same-scan
// second split from the parent's sub-matrix views (nil: none).
func (e *engine[N]) splitAgain(left, right N, lview, rview *view, kind decideKind) {
	grew := false
	if lview != nil {
		e.decide(left, lview, kind)
		grew = grew || left.base().state != stBuilding
	}
	if rview != nil {
		e.decide(right, rview, kind)
		grew = grew || right.base().state != stBuilding
	}
	if grew {
		e.stats.DoubleSplits++
	}
}

// makeResolvedCategorical installs an exact subset split.
func (e *engine[N]) makeResolvedCategorical(n N, v *view, attr int, mask uint64) {
	h := v.marg[attr]
	leftCounts := make([]int, e.nc)
	for val := 0; val < h.Bins(); val++ {
		if mask&(1<<uint(val)) != 0 {
			for c, k := range h.Bin(val) {
				leftCounts[c] += int(k)
			}
		}
	}
	rightCounts := minus(v.totals, leftCounts)
	e.resolveWhole(n, v, tree.Split{Kind: tree.SplitCategorical, Attr: attr, Subset: mask}, leftCounts, rightCounts)
}

// resolveWhole installs a split whose children keep n's geometry: a
// categorical subset or a linear combination. A linear split's counts are
// approximate until the next scan rebuilds them exactly; records are routed
// by the exact inequality, so no accuracy remedy is needed.
func (e *engine[N]) resolveWhole(n N, v *view, s tree.Split, leftCounts, rightCounts []int) {
	x := e.k.predictX(v, -1)
	left := e.admit(e.k.child(n, v, -1, 0, 0, x, leftCounts), leftCounts, true)
	right := e.admit(e.k.child(n, v, -1, 0, 0, x, rightCounts), rightCounts, true)
	e.resolve(n, &s, left, right)
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

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// minus returns the per-class counts total - part.
func minus(total, part []int) []int {
	d := make([]int, len(total))
	for i := range d {
		d[i] = total[i] - part[i]
	}
	return d
}
