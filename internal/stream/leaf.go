package stream

import (
	"math"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/quantile"
	"cmpdt/internal/tree"
)

// snode is one node of the growing tree. Class counts are float64 so the
// drift half-life can decay them; with decay off they hold exact integer
// counts.
type snode struct {
	counts []float64
	n      float64
	depth  int
	// fallback is the class predicted before the node has seen a record:
	// the majority of the split that created it (0 at the root).
	fallback int

	// Internal nodes.
	split         *tree.Split
	left, right   *snode
	committedGain float64

	// Frontier leaves.
	leaf *leafState
}

// childFor routes one record a single level, with the same
// missing-value majority rule tree.Tree prediction applies.
func (v *snode) childFor(vals []float64) *snode {
	if splitMissing(v.split, vals) {
		if v.left.n >= v.right.n {
			return v.left
		}
		return v.right
	}
	if v.split.GoesLeft(vals) {
		return v.left
	}
	return v.right
}

// splitMissing reports whether the split's attribute is unusable in the
// record: a categorical value outside the subset bitmask domain. Ingest
// rejects NaN and infinite values, so numeric attributes never are.
func splitMissing(s *tree.Split, vals []float64) bool {
	if s.Kind != tree.SplitCategorical {
		return false
	}
	v := vals[s.Attr]
	return !(v >= 0 && v < 64)
}

// brec is one buffered warming-phase record.
type brec struct {
	vals  []float64
	label int
}

// leafState is a frontier leaf's sketch machinery. A leaf is warming
// (buffering records and feeding GK sketches), frozen (cut points fixed,
// dense per-bin histograms accumulating), or dead (at MaxDepth: counts
// only).
type leafState struct {
	// gen identifies this leaf state; precomputed hints referencing an
	// older generation are recomputed at commit.
	gen     uint64
	warming bool
	dead    bool
	merged  bool // a subchunk delta has been merged into the sketches

	// Warming phase.
	buf    []brec
	sketch []*quantile.GK // per attribute; nil for categorical attrs

	// Frozen phase.
	cuts         []*quantile.Discretizer // per attribute; nil where unusable
	catBins      []int                   // per categorical attribute: cardinality
	hist         [][]float64             // per attribute: bins x classes, row-major
	histN        []float64               // per attribute: total mass histogrammed
	nSinceFreeze int                     // Hoeffding sample size
	sinceAttempt int
}

// encode computes a frozen leaf's per-attribute bin codes for one record.
// codeNone marks values the histogram must skip.
func (lf *leafState) encode(vals []float64, schema *dataset.Schema) []uint16 {
	codes := make([]uint16, len(vals))
	for a := range vals {
		codes[a] = lf.encodeAttr(a, vals[a], schema)
	}
	return codes
}

func (lf *leafState) encodeAttr(a int, v float64, schema *dataset.Schema) uint16 {
	if schema.Attrs[a].Kind == dataset.Categorical {
		return uint16(v) // Ingest admits only in-domain categories
	}
	if lf.cuts[a] == nil {
		return codeNone
	}
	return uint16(lf.cuts[a].Interval(v))
}

// observe bumps a frozen leaf's histograms with one coded record.
func (lf *leafState) observe(codes []uint16, label int) {
	for a, h := range lf.hist {
		if h == nil || codes[a] == codeNone {
			continue
		}
		lf.histRow(a, int(codes[a]))[label]++
		lf.histN[a]++
	}
}

// histRow returns the class-count row of one bin.
func (lf *leafState) histRow(a, bin int) []float64 {
	c := len(lf.hist[a]) / lf.bins(a)
	return lf.hist[a][bin*c : (bin+1)*c]
}

// bins returns attribute a's bin count in the frozen histograms.
func (lf *leafState) bins(a int) int {
	if lf.cuts[a] != nil {
		return lf.cuts[a].Bins()
	}
	return lf.catBins[a]
}

// freeze fixes a warming leaf's cut points from its sketches and replays
// the buffered records into dense histograms. The buffer and sketches are
// released; from here on the leaf costs O(bins) memory.
func (b *Builder) freeze(v *snode) {
	lf := v.leaf
	schema := b.cfg.Schema
	k := b.k
	classes := schema.NumClasses()
	b.gen++
	nf := &leafState{
		gen:     b.gen,
		cuts:    make([]*quantile.Discretizer, k),
		hist:    make([][]float64, k),
		histN:   make([]float64, k),
		catBins: make([]int, k),
	}
	for a := 0; a < k; a++ {
		if schema.Attrs[a].Kind == dataset.Categorical {
			card := schema.Attrs[a].Cardinality()
			if card < 2 || card > 64 {
				continue // not splittable with a subset bitmask
			}
			nf.catBins[a] = card
			nf.hist[a] = make([]float64, card*classes)
			continue
		}
		sk := lf.sketch[a]
		if sk == nil || sk.Count() == 0 {
			continue
		}
		d, err := sk.Discretizer(b.cfg.Bins)
		if err != nil || d.Bins() < 2 {
			continue // constant attribute at this leaf
		}
		nf.cuts[a] = d
		nf.hist[a] = make([]float64, d.Bins()*classes)
	}
	for _, r := range lf.buf {
		nf.observe(nf.encode(r.vals, schema), r.label)
	}
	nf.nSinceFreeze = len(lf.buf)
	v.leaf = nf
	b.stats.Freezes++
}

// candidate is one attribute's best split proposal.
type candidate struct {
	gain  float64
	split tree.Split
	// lcounts/rcounts estimate the child class distributions from the
	// attribute's histogram; they seed the children's node counts.
	lcounts, rcounts []float64
}

// attemptSplit evaluates a frozen leaf's attributes and commits a split
// when the Hoeffding bound allows. The best attribute must beat the
// runner-up (or "don't split", whose gain is zero) by
// eps = sqrt(ln(1/Delta) / (2 n)), or the radius must have shrunk below
// the tie-break Tau.
func (b *Builder) attemptSplit(v *snode) {
	lf := v.leaf
	if v.depth >= b.cfg.MaxDepth {
		return
	}
	best, second := candidate{gain: -1}, candidate{gain: 0}
	for a := 0; a < b.k; a++ {
		if lf.hist[a] == nil {
			continue
		}
		c, ok := b.bestForAttr(lf, a)
		if !ok {
			continue
		}
		if c.gain > best.gain {
			second.gain = best.gain
			best = c
		} else if c.gain > second.gain {
			second.gain = c.gain
		}
	}
	if best.gain <= 0 {
		return
	}
	if second.gain < 0 {
		second.gain = 0
	}
	n := float64(lf.nSinceFreeze)
	eps := math.Sqrt(math.Log(1/b.cfg.Delta) / (2 * n))
	if best.gain-second.gain <= eps && eps >= b.cfg.Tau {
		return
	}

	// Commit: the leaf becomes an internal node; children start with
	// empty sketches, seeded only with the histogram's estimate of their
	// class distributions (for prediction until they warm up).
	sp := best.split
	v.split = &sp
	v.committedGain = best.gain
	v.leaf = nil
	v.left = b.newLeaf(v.depth+1, argmax(best.lcounts))
	v.right = b.newLeaf(v.depth+1, argmax(best.rcounts))
	copy(v.left.counts, best.lcounts)
	copy(v.right.counts, best.rcounts)
	v.left.n = sum(best.lcounts)
	v.right.n = sum(best.rcounts)
	b.stats.Splits++
	if b.stats.FirstSplitAt == 0 {
		b.stats.FirstSplitAt = b.stats.Records + b.applied
	}
}

// bestForAttr finds attribute a's best candidate split from the leaf's
// histogram, scored with the batch builders' gini kernel: bin-boundary
// thresholds for numeric attributes, gini.BestSubsetSplit over the values
// for categorical ones. A candidate leaving either side under minLeaf is
// not offered. Ties keep the earliest candidate, which is what makes the
// choice deterministic.
func (b *Builder) bestForAttr(lf *leafState, a int) (candidate, bool) {
	h := lf.hist[a]
	bins := lf.bins(a)
	classes := len(h) / bins
	row := func(bin int) []float64 { return h[bin*classes : (bin+1)*classes] }
	parent := make([]float64, classes)
	for bin := 0; bin < bins; bin++ {
		for c, n := range row(bin) {
			parent[c] += n
		}
	}
	nTot := sum(parent)
	if nTot < 2*minLeaf {
		return candidate{}, false
	}
	parentGini := gini.Index(parent)

	left := make([]float64, classes)
	var c candidate
	if lf.cuts[a] != nil {
		bestIdx := -1
		for i := 0; i < bins-1; i++ {
			for k, n := range row(i) {
				left[k] += n
			}
			if nl := sum(left); nl < minLeaf || nTot-nl < minLeaf {
				continue
			}
			if gain := parentGini - gini.SplitBelow(left, parent); gain > c.gain {
				c.gain, bestIdx = gain, i
				c.lcounts = append(c.lcounts[:0], left...)
			}
		}
		if bestIdx < 0 {
			return candidate{}, false
		}
		c.split = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: lf.cuts[a].Boundary(bestIdx)}
	} else {
		rows := make([][]float64, bins)
		for bin := range rows {
			rows[bin] = row(bin)
		}
		mask, g, ok := gini.BestSubsetSplit(rows)
		if !ok {
			return candidate{}, false
		}
		for v, r := range rows {
			if mask&(1<<uint(v)) != 0 {
				for k, n := range r {
					left[k] += n
				}
			}
		}
		// The side check also rejects the all-left partition, which
		// rounding in decayed counts can let through.
		if nl := sum(left); nl < minLeaf || nTot-nl < minLeaf || parentGini-g <= 0 {
			return candidate{}, false
		}
		c = candidate{gain: parentGini - g, lcounts: left}
		c.split = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
	}
	c.rcounts = make([]float64, classes)
	for k := range parent {
		c.rcounts[k] = parent[k] - c.lcounts[k]
	}
	return c, true
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// argmax returns the index of the largest element, first maximum winning —
// the same rule tree.Node.SetCounts applies.
func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}
