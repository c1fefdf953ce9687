package core

import (
	"math"
	"sort"

	"cmpdt/internal/histogram"
	"cmpdt/internal/quantile"
	"cmpdt/internal/tree"
)

// state of a builder node.
type state int

const (
	// stBuilding: histograms are being (or about to be) filled by a scan.
	stBuilding state = iota
	// stPending: a provisional split is in place; alive-interval records
	// are buffered during the next scan while region children collect the
	// rest (Figure 3 of the paper).
	stPending
	// stResolved: the final split is known; children route records.
	stResolved
	// stCollect: the node is small enough to finish in memory; the next
	// scan gathers all its records into the buffer.
	stCollect
	// stLeaf: a finished leaf.
	stLeaf
	// stDone: an in-memory-finished subtree hangs off the tree node;
	// nothing further routes through the builder.
	stDone
)

// histSet is one node's histogram storage. During a parallel scan every
// worker fills a private histSet of the same shape (one per touched node),
// and the shards are merged into the node's own set in worker-index order,
// so counts land identically to a serial scan. CMP-S fills hists for every
// attribute; CMP-B/CMP fill mats for numeric attributes (all sharing the
// node's X-axis) and hists for categorical attributes only.
type histSet struct {
	hists []*histogram.Hist1D
	mats  []*histogram.Matrix // indexed by Y attribute; nil at xAttr and categoricals
	// pairMats (ObliqueAllPairs extension) holds matrices for numeric
	// attribute pairs not covered by mats, parallel to builder.pairs.
	pairMats []*histogram.Matrix
}

// merge adds other's counts into hs. Shapes must match (both sets were
// allocated from the same node geometry).
func (hs *histSet) merge(other *histSet) {
	for a, h := range other.hists {
		if h != nil {
			hs.hists[a].Merge(h)
		}
	}
	for a, m := range other.mats {
		if m != nil {
			hs.mats[a].Merge(m)
		}
	}
	for pi, m := range other.pairMats {
		if m != nil {
			hs.pairMats[pi].Merge(m)
		}
	}
}

// dropHists releases histogram storage once it is no longer needed.
func (hs *histSet) dropHists() {
	hs.hists = nil
	hs.mats = nil
	hs.pairMats = nil
}

// bnode is a node of the tree under construction, carrying the histogram
// and buffering state the final tree.Node does not need.
type bnode struct {
	id    int32
	tn    *tree.Node
	depth int
	state state
	dead  bool // merged away or pruned out
	// succ is the surviving node a dead node's records belong to; stale
	// nid entries resolve through the succ chain.
	succ *bnode

	// disc holds the node's per-attribute discretizers (nil entries for
	// categorical attributes). Children re-derive the split attribute's
	// discretizer from the parent's histogram so interval resolution does
	// not degrade with depth.
	disc []*quantile.Discretizer

	// Histogram state (stBuilding).
	histSet
	xAttr int // CMP-B/CMP predicted X-axis; -1 for CMP-S

	// Pending-split state (stPending).
	pending *pendingSplit
	buffer  buffer

	// children: for stPending, the A+1 region children in value order; for
	// stResolved, exactly {left, right}.
	children []*bnode

	// collectRound records when the node entered stCollect; its buffer is
	// complete after the following round's scan and distributions.
	collectRound int
	// collectListed marks membership in the builder's collects list. A
	// collect child that a same-scan secondary split turns pending keeps
	// its stale entry there; if that pending split fails and the re-decided
	// node is collected again in the same round, a second entry would have
	// two workers finish one buffer concurrently (and, serially, graft an
	// empty subtree over the real one).
	collectListed bool

	// banned lists numeric attributes whose pending split failed to resolve
	// (no distinct values inside the alive gaps); they are not retried.
	banned map[int]bool

	// notBefore delays the node's split decision until the given round,
	// used when a failed resolution sends the node back to rebuild its
	// histograms from the next scan.
	notBefore int

	// queued marks membership in the builder's scanned list, so a node
	// re-queued by a revert while it still sits in the list (a new child
	// whose same-scan secondary split went pending and then failed) is not
	// entered twice — a duplicate entry would be decided twice in one
	// round, and the second decision corrupts the first's split.
	queued bool
}

// pendingSplit is a provisional split awaiting exact resolution.
type pendingSplit struct {
	attr int
	// disc is the discretizer set of the view the split was decided from.
	// The region children's histograms are binned by it, so a failed
	// split's merged re-decision must be too. It differs from the node's
	// own set when a same-scan secondary split decided the node from its
	// parent's X-sliced view.
	disc []*quantile.Discretizer
	// gaps are the alive-interval value ranges (Lo, Hi], ascending,
	// non-overlapping, with adjacent alive intervals merged.
	gaps []valueRange
	// The best interval boundary seen at decision time is kept as a
	// fallback candidate: if no point inside the alive gaps beats it, the
	// node resolves at this boundary instead (with fresh children, since
	// the region histograms cannot be divided there).
	fallbackThresh float64
	fallbackGini   float64
	fallbackCum    []int
	// fallbackX carries the children's predicted X-axis attributes for the
	// fallback path, chosen while the histograms were still available.
	fallbackX [2]int
}

// valueRange is an open-closed interval (Lo, Hi].
type valueRange struct{ Lo, Hi float64 }

func (r valueRange) contains(v float64) bool { return v > r.Lo && v <= r.Hi }

// route places a value relative to the pending split: buffered reports
// whether it falls inside an alive gap; otherwise region is the index of
// the region child (regions and gaps interleave: region 0, gap 0, region 1,
// gap 1, ..., region A).
func (p *pendingSplit) route(v float64) (region int, buffered bool) {
	for g, gap := range p.gaps {
		if v <= gap.Lo {
			return g, false
		}
		if v <= gap.Hi {
			return 0, true
		}
	}
	return len(p.gaps), false
}

// buffer holds records set aside for exact resolution, flat and sortable by
// any attribute. It satisfies exact.Rows.
type buffer struct {
	k      int // attributes per record
	vals   []float64
	rids   []int32
	labels []int32
	// sortedBy caches the attribute the buffer is currently sorted by (-1:
	// none), letting the parallel resolution pre-pass sort buffers across
	// the worker pool without resolvePending redundantly re-sorting them.
	sortedBy int
}

func (b *buffer) init(k int) {
	b.k = k
	b.sortedBy = -1
}

func (b *buffer) add(rid int, vals []float64, label int) {
	b.vals = append(b.vals, vals...)
	b.rids = append(b.rids, int32(rid))
	b.labels = append(b.labels, int32(label))
	b.sortedBy = -1
}

// appendFrom appends every record of o, preserving o's order. Merging
// per-worker shard buffers in worker-index order reproduces exactly the
// record order a serial scan would have buffered.
func (b *buffer) appendFrom(o *buffer) {
	if o.Len() == 0 {
		return
	}
	b.vals = append(b.vals, o.vals...)
	b.rids = append(b.rids, o.rids...)
	b.labels = append(b.labels, o.labels...)
	b.sortedBy = -1
}

// Len returns the number of buffered records.
func (b *buffer) Len() int { return len(b.rids) }

// Row returns record i's attribute values (aliasing the buffer).
func (b *buffer) Row(i int) []float64 { return b.vals[i*b.k : (i+1)*b.k] }

// Label returns record i's class label.
func (b *buffer) Label(i int) int { return int(b.labels[i]) }

func (b *buffer) rid(i int) int { return int(b.rids[i]) }

// bytes estimates the buffer's memory footprint (values + rid + label).
func (b *buffer) bytes() int64 {
	return int64(b.Len()) * (int64(b.k)*8 + 8)
}

func (b *buffer) reset() {
	b.vals = b.vals[:0]
	b.rids = b.rids[:0]
	b.labels = b.labels[:0]
	b.sortedBy = -1
}

// sortByAttr orders the buffer ascending by attribute a. A no-op when the
// buffer is already sorted by a (e.g. by the parallel pre-sort pass), which
// keeps the result bit-identical: the same deterministic sort runs exactly
// once on the same input either way.
func (b *buffer) sortByAttr(a int) {
	if b.sortedBy == a {
		return
	}
	sort.Sort(&bufferSorter{b: b, attr: a})
	b.sortedBy = a
}

type bufferSorter struct {
	b    *buffer
	attr int
	tmp  []float64
}

func (s *bufferSorter) Len() int { return s.b.Len() }

func (s *bufferSorter) Less(i, j int) bool {
	return s.b.vals[i*s.b.k+s.attr] < s.b.vals[j*s.b.k+s.attr]
}

func (s *bufferSorter) Swap(i, j int) {
	b := s.b
	if s.tmp == nil {
		s.tmp = make([]float64, b.k)
	}
	ri, rj := b.Row(i), b.Row(j)
	copy(s.tmp, ri)
	copy(ri, rj)
	copy(rj, s.tmp)
	b.rids[i], b.rids[j] = b.rids[j], b.rids[i]
	b.labels[i], b.labels[j] = b.labels[j], b.labels[i]
}

// histMemoryBytes sums the histogram/matrix footprint of a node.
func (n *bnode) histMemoryBytes() int64 {
	var total int64
	for _, h := range n.hists {
		if h != nil {
			total += h.MemoryBytes()
		}
	}
	for _, m := range n.mats {
		if m != nil {
			total += m.MemoryBytes()
		}
	}
	for _, m := range n.pairMats {
		if m != nil {
			total += m.MemoryBytes()
		}
	}
	return total
}

// classTotals returns the per-class record counts currently accounted to
// the node: its own histograms if building, its buffer if collecting, or
// (recursively) its region children plus its buffer if pending.
func (n *bnode) classTotals(numClasses int) []int {
	switch n.state {
	case stBuilding:
		return n.ownHistTotals(numClasses)
	case stCollect:
		t := make([]int, numClasses)
		for i := 0; i < n.buffer.Len(); i++ {
			t[n.buffer.Label(i)]++
		}
		return t
	case stPending, stResolved:
		t := make([]int, numClasses)
		for _, c := range n.children {
			for i, v := range c.classTotals(numClasses) {
				t[i] += v
			}
		}
		for i := 0; i < n.buffer.Len(); i++ {
			t[n.buffer.Label(i)]++
		}
		return t
	default: // stLeaf, stDone
		if n.tn != nil && n.tn.ClassCounts != nil {
			return append([]int(nil), n.tn.ClassCounts...)
		}
		return make([]int, numClasses)
	}
}

// ownHistTotals reads class totals from whichever histogram form the node
// carries, falling back to the tree node's recorded counts.
func (n *bnode) ownHistTotals(numClasses int) []int {
	for _, m := range n.mats {
		if m != nil {
			return m.ClassTotals()
		}
	}
	for _, h := range n.hists {
		if h != nil {
			return h.ClassTotals()
		}
	}
	if n.tn != nil && n.tn.ClassCounts != nil {
		return append([]int(nil), n.tn.ClassCounts...)
	}
	return make([]int, numClasses)
}

// unbounded endpoints for gap ranges at the domain edges.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)
