package core

import (
	"math"
	"sort"

	"cmpdt/internal/histogram"
	"cmpdt/internal/quantile"
)

// histSet is one node's histogram storage. During a multi-worker pass
// every worker fills a private histSet of the same shape (one per touched
// node), and the shards are merged into the node's own set in worker-index
// order, so counts land identically to a one-worker pass. CMP-S fills
// hists for every attribute; CMP-B/CMP fill mats for numeric attributes
// (all sharing the node's X-axis) and hists for categorical attributes
// only.
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

// memoryBytes sums the histogram/matrix footprint of the set.
func (hs *histSet) memoryBytes() int64 {
	var total int64
	for _, h := range hs.hists {
		if h != nil {
			total += h.MemoryBytes()
		}
	}
	for _, ms := range [][]*histogram.Matrix{hs.mats, hs.pairMats} {
		for _, m := range ms {
			if m != nil {
				total += m.MemoryBytes()
			}
		}
	}
	return total
}

// bnode is the raw kernel's node: the engine's nodeBase plus the
// discretizers its histograms bin by, its pending split and its buffer of
// float records.
type bnode struct {
	nodeBase[*bnode]

	// disc holds the node's per-attribute discretizers (nil entries for
	// categorical attributes). Children re-derive the split attribute's
	// discretizer from the parent's histogram so interval resolution does
	// not degrade with depth.
	disc []*quantile.Discretizer

	// Pending-split state (stPending).
	pending *pendingSplit
	buffer  buffer

	// banned lists numeric attributes whose pending split failed to resolve
	// (no distinct values inside the alive gaps); they are not retried.
	banned map[int]bool
}

func (n *bnode) bins(a int) int      { return n.disc[a].Bins() }
func (n *bnode) frame(v *view)       { v.disc = n.disc }
func (n *bnode) bufferBytes() int64  { return n.buffer.bytes() }
func (n *bnode) absorb(shard *bnode) { n.buffer.appendFrom(&shard.buffer) }
func (n *bnode) countBuffered(counts []int) {
	for _, l := range n.buffer.labels {
		counts[l]++
	}
}
func (n *bnode) release() {
	n.dropHists()
	n.buffer.reset()
	n.pending = nil
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
	// regions are the class counts of the regions between the gaps, from
	// the decision's marginal: exact for a primary decision, which is what
	// CLOUDS-SSE resolves from.
	regions [][]int
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
// record order a one-worker pass would have buffered.
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

// unbounded endpoints for gap ranges at the domain edges.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)
