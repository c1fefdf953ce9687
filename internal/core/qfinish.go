package core

// The quantized path's in-memory finisher. A collect node buffers its
// records as raw bin codes, and once the scan has gathered them the subtree
// is grown here, entirely in code space: every node holds a dense per-code
// class histogram of each allowed attribute (the in-memory AVC-group of
// RainForest) and the split is read off it, with no sorting. Numeric
// attributes walk the occupied codes with a running cumulative count;
// categorical ones hand their per-value counts to the subset search. After
// a split only the child with fewer rows is counted from its rows; the
// parent's histogram minus that child's is the other child's, the sibling
// subtraction of histogram-based tree builders.
//
// The output is node-for-node the tree the exact algorithm (internal/exact)
// builds over the same codes widened to float64: attributes are tried in
// ascending order, boundaries in ascending code order, a candidate wins only
// when strictly better, and a numeric threshold is the midpoint between the
// boundary code and the next occupied code — the exact builder's midpoint
// between adjacent distinct values. translate floors it back to a code.

import (
	"slices"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// codeBuffer holds a collect node's records as raw bin codes, k per row,
// in arrival order, each row with the number of records it stands for: 1,
// or a bootstrap view's multiplicity (see storage.QuantMem).
type codeBuffer struct {
	k       int
	codes   []uint16
	labels  []int32
	weights []uint32
	records int64 // the sum of weights
}

func (b *codeBuffer) init(k int) { b.k = k }

// add appends one row standing for w records.
func (b *codeBuffer) add(codes []uint16, label int, w uint32) {
	b.codes = append(b.codes, codes...)
	b.labels = append(b.labels, int32(label))
	b.weights = append(b.weights, w)
	b.records += int64(w)
}

// appendFrom appends every record of o, preserving o's order. Merging
// per-worker shard buffers in worker-index order reproduces exactly the
// record order a one-worker pass would have buffered.
func (b *codeBuffer) appendFrom(o *codeBuffer) {
	b.codes = append(b.codes, o.codes...)
	b.labels = append(b.labels, o.labels...)
	b.weights = append(b.weights, o.weights...)
	b.records += o.records
}

// Len returns the number of buffered rows.
func (b *codeBuffer) Len() int { return len(b.labels) }

// countClasses adds the buffered records' class counts to t.
func (b *codeBuffer) countClasses(t []int) {
	for i, l := range b.labels {
		t[l] += int(b.weights[i])
	}
}

// bytes is the buffer's memory footprint, charged per record the rows stand
// for: 2 bytes per code plus the label.
func (b *codeBuffer) bytes() int64 { return b.records * (2*int64(b.k) + 4) }

// reset releases the records; a node's buffer is reset only when the node
// leaves the collect state for good.
func (b *codeBuffer) reset() {
	b.codes, b.labels, b.weights, b.records = nil, nil, nil, 0
}

// histBudget bounds a finisher's node histograms: together they may hold
// at most histBudget times the bytes of the code buffer they count. Past
// the bound a node's children count themselves from their rows.
const histBudget = 4

// codeFinisher grows one subtree over a code buffer. Rows are addressed
// through one index slice that each split partitions stably in place, so a
// node's rows are always a contiguous, ascending run of it.
type codeFinisher struct {
	schema *dataset.Schema
	cfg    exact.Config
	nc     int
	mdl    prune.MDL

	// cols[a][i] is row i's code for attribute a, less base[a] for a
	// numeric attribute (categorical codes stay category indices). nil for
	// attributes that may not split.
	cols   [][]uint16
	base   []int
	labels []int32
	// weights[i] is the number of records row i stands for, at least 1.
	weights []uint32

	// A node histogram holds, for each allowed attribute a, span[a] rows
	// of nc class counts starting at row off[a]: one row per column code
	// of a numeric attribute, one per value of a categorical one.
	span, off []int
	rows      int
	// free holds the node histograms not in use, all zero; made counts
	// every one allocated, at most maxHists once the root has its own.
	free     []*nodeHist
	made     int
	maxHists int

	idx, tmp []int32
	cum      []int
	occ      []int   // bestSplit's scratch: one attribute's occupied codes
	tab      [][]int // bestSplit's view of one categorical attribute's rows
	// left holds the class counts of bestSplit's left side; right is
	// build's scratch for the other side.
	left, right []int
}

// nodeHist is one node's class histograms over every allowed attribute,
// laid out as codeFinisher.span and off describe. lo[a] and hi[a] bound
// the codes of attribute a that may hold a non-zero count (lo > hi when
// none does), so releasing the histogram clears only that range.
type nodeHist struct {
	counts []int
	lo, hi []int
}

// finishCodes grows the subtree over buf's records and returns its root.
// Every count is a sum of row multiplicities, so a weighted buffer grows
// the tree its expansion (each row repeated as often as it is weighted)
// grows, with a row visited once where the expansion visits it per copy.
func finishCodes(buf *codeBuffer, schema *dataset.Schema, cfg exact.Config) *tree.Node {
	n, k, nc := buf.Len(), buf.k, schema.NumClasses()
	f := &codeFinisher{
		schema:  schema,
		cfg:     cfg,
		nc:      nc,
		mdl:     prune.MDL{NumAttrs: schema.NumAttrs(), NumClasses: nc},
		cols:    make([][]uint16, k),
		base:    make([]int, k),
		labels:  buf.labels,
		weights: buf.weights,
		span:    make([]int, k),
		off:     make([]int, k),
		idx:     make([]int32, n),
		tmp:     make([]int32, n),
		cum:     make([]int, nc),
		left:    make([]int, nc),
		right:   make([]int, nc),
	}
	counts := make([]int, nc)
	for i := range f.idx {
		f.idx[i] = int32(i)
		counts[f.labels[i]] += int(f.weights[i])
	}
	for a := 0; a < k; a++ {
		if cfg.AllowedAttrs != nil && !cfg.AllowedAttrs[a] {
			continue
		}
		col := make([]uint16, n)
		for i := range col {
			col[i] = buf.codes[i*k+a]
		}
		f.cols[a] = col
		f.off[a] = f.rows
		if schema.Attrs[a].Kind == dataset.Categorical {
			f.span[a] = schema.Attrs[a].Cardinality()
			f.rows += f.span[a]
			continue
		}
		if n == 0 {
			continue
		}
		lo, hi := col[0], col[0]
		for _, c := range col {
			lo, hi = min(lo, c), max(hi, c)
		}
		for i := range col {
			col[i] -= lo
		}
		f.base[a] = int(lo)
		f.span[a] = int(hi-lo) + 1
		f.rows += f.span[a]
	}
	// The buffer's bytes: two per code, four per label and per weight.
	bufBytes := n * (2*k + 8)
	f.maxHists = histBudget * bufBytes / max(8*f.rows*nc, 1)
	root, lc := f.newNode(counts)
	root, _ = f.build(f.idx, root, lc, 0, nil)
	return root
}

// newNode returns a node over the class counts, with its MDL leaf cost
// when Prune is set.
func (f *codeFinisher) newNode(counts []int) (*tree.Node, float64) {
	node := &tree.Node{}
	node.SetCounts(counts)
	var lc float64
	if f.cfg.Prune {
		lc = f.mdl.Leaf(node.Errors())
	}
	return node, lc
}

// stops reports whether node, at the given depth and with leaf cost lc,
// stays a leaf without a split search: it is pure, too small or too deep,
// passes the purity stop, or (with Prune) cut 1 below holds.
func (f *codeFinisher) stops(node *tree.Node, lc float64, depth int) bool {
	if node.Gini == 0 || node.N < f.cfg.MinSplitRecords || depth >= f.cfg.MaxDepth {
		return true
	}
	if f.cfg.PurityStop > 0 && float64(node.ClassCounts[node.Class]) >= f.cfg.PurityStop*float64(node.N) {
		return true
	}
	return f.cfg.Prune && lc <= f.mdl.Bound(node.ClassCounts, node.N)
}

// build grows the subtree under node over the rows in idx and returns its
// root with the root's MDL cost when Prune is set; lc is node's leaf cost.
// h is the rows' histogram, or nil to count it from the rows; build owns
// it and releases it or hands it to a child.
// With Prune the subtree is the one prune.PUBLIC1 would leave of the full
// grown subtree, reached without growing what PUBLIC1 would delete, by the
// three cuts prune.MDL describes:
//
//  1. lc <= Bound: stay a leaf without searching for a split;
//  2. lc <= Internal(split, Floor(left), Floor(right)): stay a leaf without
//     recursing; after the left child is built, the test repeats with its
//     actual cost in place of its floor;
//  3. lc <= Internal(split, cost(left), cost(right)): PUBLIC1's own test.
func (f *codeFinisher) build(idx []int32, node *tree.Node, lc float64, depth int, h *nodeHist) (*tree.Node, float64) {
	if f.stops(node, lc, depth) {
		f.release(h)
		return node, lc
	}
	if h == nil {
		h = f.get()
		f.fill(h, idx)
	}
	split, boundary, g, ok := f.bestSplit(h, idx, node.ClassCounts)
	if !ok || node.Gini-g < f.cfg.MinGiniGain {
		f.release(h)
		return node, lc
	}
	nl := 0
	for c, k := range f.left {
		nl += k
		f.right[c] = node.ClassCounts[c] - k
	}
	if nl == 0 || nl == node.N {
		f.release(h)
		return node, lc
	}
	var floorR float64
	if f.cfg.Prune {
		floorR = f.mdl.Floor(f.right, node.N-nl)
		if lc <= f.mdl.Internal(&split, node.N, f.mdl.Floor(f.left, nl), floorR) {
			f.release(h)
			return node, lc // cut 2
		}
	}
	// nl counts records; the rows going left are the first rl of idx.
	rl := f.partition(idx, &split, boundary)
	cc := make([]int, 2*f.nc)
	copy(cc, f.left)
	copy(cc[f.nc:], f.right)
	ln, llc := f.newNode(cc[:f.nc:f.nc])
	rn, rlc := f.newNode(cc[f.nc:])
	hl, hr := f.childHists(idx, rl, h, !f.stops(ln, llc, depth+1), !f.stops(rn, rlc, depth+1))
	left, costL := f.build(idx[:rl], ln, llc, depth+1, hl)
	if f.cfg.Prune && lc <= f.mdl.Internal(&split, node.N, costL, floorR) {
		f.release(hr)
		return node, lc // cut 2, with the left child's actual cost
	}
	right, costR := f.build(idx[rl:], rn, rlc, depth+1, hr)
	cost := f.mdl.Internal(&split, node.N, costL, costR)
	if f.cfg.Prune && lc <= cost {
		return node, lc // cut 3
	}
	node.Split, node.Left, node.Right = &split, left, right
	return node, cost
}

// childHists turns h, the histogram of the rows in idx, into the
// histograms of the children searchL and searchR say will search for a
// split, once idx is partitioned with the first rl rows going left. The
// child with fewer rows is counted; the other, when it searches, is h less
// that count. Past the memory bound h is released and the children count
// their own rows. A nil result is a child with no histogram.
func (f *codeFinisher) childHists(idx []int32, rl int, h *nodeHist, searchL, searchR bool) (hl, hr *nodeHist) {
	if !searchL && !searchR {
		f.release(h)
		return nil, nil
	}
	small := f.tryGet()
	if small == nil {
		f.release(h)
		return nil, nil
	}
	smallRows, smallSearch, bigSearch := idx[:rl], searchL, searchR
	if rl > len(idx)-rl {
		smallRows, smallSearch, bigSearch = idx[rl:], searchR, searchL
	}
	f.fill(small, smallRows)
	big := h
	if bigSearch {
		f.subtract(big, small)
	} else {
		f.release(big)
		big = nil
	}
	if !smallSearch {
		f.release(small)
		small = nil
	}
	if rl > len(idx)-rl {
		return big, small
	}
	return small, big
}

// get returns a zero histogram from the pool, allocating one when the pool
// is empty.
func (f *codeFinisher) get() *nodeHist {
	if n := len(f.free); n > 0 {
		h := f.free[n-1]
		f.free = f.free[:n-1]
		return h
	}
	f.made++
	h := &nodeHist{counts: make([]int, f.rows*f.nc), lo: make([]int, len(f.span)), hi: make([]int, len(f.span))}
	for a := range h.lo {
		h.lo[a], h.hi[a] = f.span[a], -1
	}
	return h
}

// tryGet is get within the memory bound: nil when the pool is empty and
// maxHists histograms exist.
func (f *codeFinisher) tryGet() *nodeHist {
	if len(f.free) == 0 && f.made >= f.maxHists {
		return nil
	}
	return f.get()
}

// release zeroes h's touched ranges and returns it to the pool; a nil h is
// ignored.
func (f *codeFinisher) release(h *nodeHist) {
	if h == nil {
		return
	}
	for a, lo := range h.lo {
		if lo <= h.hi[a] {
			clear(h.counts[(f.off[a]+lo)*f.nc : (f.off[a]+h.hi[a]+1)*f.nc])
			h.lo[a], h.hi[a] = f.span[a], -1
		}
	}
	f.free = append(f.free, h)
}

// fill adds the class counts of the rows in idx to h, attribute by
// attribute, widening each attribute's touched range to the codes seen.
func (f *codeFinisher) fill(h *nodeHist, idx []int32) {
	nc := f.nc
	for a, col := range f.cols {
		if col == nil {
			continue
		}
		counts := h.counts[f.off[a]*nc : (f.off[a]+f.span[a])*nc]
		lo, hi := h.lo[a], h.hi[a]
		for _, i := range idx {
			c := int(col[i])
			lo, hi = min(lo, c), max(hi, c)
			counts[c*nc+int(f.labels[i])] += int(f.weights[i])
		}
		h.lo[a], h.hi[a] = lo, hi
	}
}

// subtract takes part's counts out of h, over part's touched ranges. When
// part counts a subset of h's rows, h is left counting the rest; its
// touched ranges stay as they were.
func (f *codeFinisher) subtract(h, part *nodeHist) {
	for a, lo := range part.lo {
		if lo > part.hi[a] {
			continue
		}
		from, to := (f.off[a]+lo)*f.nc, (f.off[a]+part.hi[a]+1)*f.nc
		dst := h.counts[from:to]
		for i, v := range part.counts[from:to] {
			dst[i] -= v
		}
	}
}

// bestSplit returns the best split of the rows in idx, which h counts and
// whose class counts are total, with its gini index, and leaves the class
// counts of its left side in f.left. For a numeric split, boundary is the
// largest column code going left. It narrows each numeric attribute's
// touched range in h to the codes the rows occupy.
func (f *codeFinisher) bestSplit(h *nodeHist, idx []int32, total []int) (best tree.Split, boundary int, bestG float64, found bool) {
	bestG = 2.0
	nc := f.nc
	for a, col := range f.cols {
		if col == nil {
			continue
		}
		counts := h.counts[f.off[a]*nc : (f.off[a]+f.span[a])*nc]
		if f.schema.Attrs[a].Kind == dataset.Categorical {
			tab := f.tab[:0]
			for v := 0; v < f.span[a]; v++ {
				tab = append(tab, counts[v*nc:(v+1)*nc])
			}
			f.tab = tab
			mask, g, ok := gini.BestSubsetSplit(tab)
			if ok && g < bestG {
				bestG, found = g, true
				best = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
				clear(f.left)
				for v, row := range tab {
					if mask&(1<<uint(v)) != 0 {
						for k, n := range row {
							f.left[k] += n
						}
					}
				}
			}
			continue
		}
		cum := f.cum
		clear(cum)
		occ := f.occupiedCodes(h, a, col, idx)
		for j, c := range occ {
			if j > 0 {
				if g := gini.SplitBelow(cum, total); g < bestG {
					lo, hi := float64(f.base[a]+occ[j-1]), float64(f.base[a]+c)
					bestG, found, boundary = g, true, occ[j-1]
					best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: lo + (hi-lo)/2}
					copy(f.left, cum)
				}
			}
			for k, v := range counts[c*nc : (c+1)*nc] {
				cum[k] += v
			}
		}
		h.lo[a], h.hi[a] = f.span[a], -1
		if len(occ) > 0 {
			// Every count outside the occupied codes is zero.
			h.lo[a], h.hi[a] = occ[0], occ[len(occ)-1]
		}
	}
	return best, boundary, bestG, found
}

// occupiedCodes returns numeric attribute a's codes that the rows in idx
// occupy, ascending. Where the codes h may hold are few next to the rows,
// it walks that range of h for the codes with a count (every row weighs at
// least 1); where they are many, it sorts the rows' own codes instead, so
// a node's cost stays near its row count at any QuantizeBins.
func (f *codeFinisher) occupiedCodes(h *nodeHist, a int, col []uint16, idx []int32) []int {
	occ := f.occ[:0]
	lo, hi := h.lo[a], h.hi[a]
	if hi-lo < 4*len(idx) {
		nc := f.nc
		for c := lo; c <= hi; c++ {
			for _, v := range h.counts[(f.off[a]+c)*nc : (f.off[a]+c+1)*nc] {
				if v != 0 {
					occ = append(occ, c)
					break
				}
			}
		}
	} else {
		for _, i := range idx {
			occ = append(occ, int(col[i]))
		}
		slices.Sort(occ)
		occ = slices.Compact(occ)
	}
	f.occ = occ
	return occ
}

// partition reorders idx stably so the rows going left come first, and
// returns their number.
func (f *codeFinisher) partition(idx []int32, s *tree.Split, boundary int) int {
	col := f.cols[s.Attr]
	nl, nr := 0, 0
	for _, i := range idx {
		c := int(col[i])
		var left bool
		if s.Kind == tree.SplitCategorical {
			left = s.Subset&(1<<uint(c)) != 0
		} else {
			left = c <= boundary
		}
		if left {
			idx[nl] = i
			nl++
		} else {
			f.tmp[nr] = i
			nr++
		}
	}
	copy(idx[nl:], f.tmp[:nr])
	return nl
}
