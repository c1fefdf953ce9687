package exact

// The in-memory finisher. Its front ends hand it one column form: for each
// allowed attribute a column of dense ranks (a numeric attribute's rank r
// stands for the value vals[a][r], ascending; a categorical attribute's
// ranks are its category indices), with each row's label and the number of
// records it stands for. The subtree is grown entirely in rank space: every
// node holds a dense per-rank class histogram of each allowed attribute
// (the in-memory AVC-group of RainForest) and the split is read off it.
// Numeric attributes walk the occupied ranks with a running cumulative
// count; categorical ones hand their per-value counts to the subset search.
// After a split only the child with fewer rows is counted from its rows;
// the parent's histogram minus that child's is the other child's, the
// sibling subtraction of histogram-based tree builders.
//
// Attributes are tried in ascending order, boundaries in ascending rank
// order, and a candidate wins only when strictly better. A numeric
// threshold is the midpoint between the boundary's value and the next
// occupied rank's value, and records go left exactly when their value is at
// most the threshold, as tree.Split.GoesLeft routes them.

import (
	"slices"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// histBudget bounds a finisher's node histograms: together they may hold
// at most histBudget times the bytes of the buffer the front end was given.
// Past the bound a node's children count themselves from their rows.
const histBudget = 4

// finisher grows one subtree over the column form. Rows are addressed
// through one index slice that each split partitions stably in place, so a
// node's rows are always a contiguous, ascending run of it.
type finisher struct {
	schema *dataset.Schema
	cfg    Config
	nc     int
	mdl    prune.MDL

	// cols[a][i] is row i's rank for attribute a; nil for attributes that
	// may not split. vals[a][r] is the value numeric attribute a's rank r
	// stands for, strictly ascending in r; nil for categorical attributes.
	cols   [][]uint32
	vals   [][]float64
	labels []int32
	// weights[i] is the number of records row i stands for, at least 1.
	weights []uint32

	// A node histogram holds, for each allowed attribute a, span[a] rows
	// of nc class counts starting at row off[a]: one row per rank.
	span, off []int
	rows      int
	// free holds the node histograms not in use, all zero; made counts
	// every one allocated, at most maxHists once the root has its own.
	free     []*nodeHist
	made     int
	maxHists int

	idx, tmp []int32
	cum      []int
	occ      []int     // bestSplit's scratch: one attribute's occupied ranks
	tab      [][]int32 // bestSplit's view of one categorical attribute's rows
	// left holds the class counts of bestSplit's left side; right is
	// build's scratch for the other side.
	left, right []int
	// next is the occupied rank after bestSplit's numeric boundary.
	next int
}

// nodeHist is one node's class histograms over every allowed attribute,
// laid out as finisher.span and off describe. lo[a] and hi[a] bound the
// ranks of attribute a that may hold a non-zero count (lo > hi when none
// does). Counts are 32-bit, as in package histogram: a count is at most
// the weight of every row, which the builders bound by math.MaxInt32.
type nodeHist struct {
	counts []int32
	lo, hi []int
}

// newFinisher takes the column form of len(labels) rows; bufBytes is the
// size of the buffer it was made from, which bounds the node histograms.
func newFinisher(schema *dataset.Schema, cfg Config, cols [][]uint32, vals [][]float64, labels []int32, weights []uint32, bufBytes int) *finisher {
	n, k, nc := len(labels), len(cols), schema.NumClasses()
	f := &finisher{
		schema:  schema,
		cfg:     cfg,
		nc:      nc,
		mdl:     prune.MDL{NumAttrs: schema.NumAttrs(), NumClasses: nc},
		cols:    cols,
		vals:    vals,
		labels:  labels,
		weights: weights,
		span:    make([]int, k),
		off:     make([]int, k),
		idx:     make([]int32, n),
		tmp:     make([]int32, n),
		cum:     make([]int, nc),
		left:    make([]int, nc),
		right:   make([]int, nc),
	}
	for i := range f.idx {
		f.idx[i] = int32(i)
	}
	for a, col := range cols {
		if col == nil {
			continue
		}
		f.off[a] = f.rows
		f.span[a] = len(vals[a])
		if schema.Attrs[a].Kind == dataset.Categorical {
			f.span[a] = schema.Attrs[a].Cardinality()
		}
		f.rows += f.span[a]
	}
	f.maxHists = histBudget * bufBytes / max(4*f.rows*nc, 1)
	return f
}

// rootCounts returns the class counts of every row.
func (f *finisher) rootCounts() []int {
	counts := make([]int, f.nc)
	for i, l := range f.labels {
		counts[l] += int(f.weights[i])
	}
	return counts
}

// grow grows the subtree over every row and returns its root. Every count
// is a sum of row weights, so weighted rows grow the tree their expansion
// (each row repeated as often as it is weighted) grows.
func (f *finisher) grow() *tree.Node {
	root, lc := f.newNode(f.rootCounts())
	root, _ = f.build(f.idx, root, lc, 0, nil)
	return root
}

// newNode returns a node over the class counts, with its MDL leaf cost
// when Prune is set.
func (f *finisher) newNode(counts []int) (*tree.Node, float64) {
	node := &tree.Node{}
	node.SetCounts(counts)
	var lc float64
	if f.cfg.Prune {
		lc = f.mdl.Leaf(node.Errors())
	}
	return node, lc
}

// stops reports whether node, at the given depth and with leaf cost lc,
// stays a leaf without a split search: the stopping rules hold
// (Config.Stops) or, with Prune, cut 1 below does.
func (f *finisher) stops(node *tree.Node, lc float64, depth int) bool {
	return f.cfg.Stops(node, depth) || f.cfg.Prune && lc <= f.mdl.Bound(node.ClassCounts, node.N)
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
func (f *finisher) build(idx []int32, node *tree.Node, lc float64, depth int, h *nodeHist) (*tree.Node, float64) {
	if f.stops(node, lc, depth) {
		f.release(h, idx)
		return node, lc
	}
	if h == nil {
		h = f.get()
		f.fill(h, idx)
	}
	split, boundary, g, ok := f.bestSplit(h, idx, node.ClassCounts)
	if !ok || node.Gini-g < f.cfg.MinGiniGain {
		f.release(h, idx)
		return node, lc
	}
	if split.Kind == tree.SplitNumeric {
		boundary = f.route(h, &split, boundary)
	}
	nl := 0
	for c, k := range f.left {
		nl += k
		f.right[c] = node.ClassCounts[c] - k
	}
	if nl == 0 || nl == node.N {
		f.release(h, idx)
		return node, lc
	}
	var floorR float64
	if f.cfg.Prune {
		floorR = f.mdl.Floor(f.right, node.N-nl)
		if lc <= f.mdl.Internal(&split, node.N, f.mdl.Floor(f.left, nl), floorR) {
			f.release(h, idx)
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
		f.release(hr, idx[rl:])
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

// route returns a rank of numeric split s's attribute that partitions the
// node's rows as v <= s.Threshold does. When the threshold lies between
// the boundary's value and the next occupied rank's (f.next), as a
// midpoint does, that is the boundary: the ranks between are no row's.
// Otherwise the midpoint rounded onto the next value (the two are adjacent
// floats) or overflowed (they are further apart than the largest float);
// then it is the largest rank whose value goes left, and the left side's
// class counts in f.left are recounted from h.
func (f *finisher) route(h *nodeHist, s *tree.Split, boundary int) int {
	vals := f.vals[s.Attr]
	if vals[boundary] <= s.Threshold && s.Threshold < vals[f.next] {
		return boundary
	}
	b := boundary
	for b >= 0 && !(vals[b] <= s.Threshold) {
		b--
	}
	for b+1 < len(vals) && vals[b+1] <= s.Threshold {
		b++
	}
	if b != boundary {
		clear(f.left)
		counts := h.counts[f.off[s.Attr]*f.nc : (f.off[s.Attr]+b+1)*f.nc]
		for i, v := range counts {
			f.left[i%f.nc] += int(v)
		}
	}
	return b
}

// childHists turns h, the histogram of the rows in idx, into the
// histograms of the children searchL and searchR say will search for a
// split, once idx is partitioned with the first rl rows going left. The
// child with fewer rows is counted; the other, when it searches, is h less
// that count. Past the memory bound h is released and the children count
// their own rows. A nil result is a child with no histogram.
func (f *finisher) childHists(idx []int32, rl int, h *nodeHist, searchL, searchR bool) (hl, hr *nodeHist) {
	if !searchL && !searchR {
		f.release(h, idx)
		return nil, nil
	}
	small := f.tryGet()
	if small == nil {
		f.release(h, idx)
		return nil, nil
	}
	swap := rl > len(idx)-rl
	smallRows, smallSearch, bigSearch := idx[:rl], searchL, searchR
	if swap {
		smallRows, smallSearch, bigSearch = idx[rl:], searchR, searchL
	}
	f.fill(small, smallRows)
	big := h
	if bigSearch {
		f.subtract(big, small, smallRows)
	} else {
		f.release(big, idx)
		big = nil
	}
	if !smallSearch {
		f.release(small, smallRows)
		small = nil
	}
	if swap {
		return big, small
	}
	return small, big
}

// get returns a zero histogram from the pool, allocating one when the pool
// is empty.
func (f *finisher) get() *nodeHist {
	if n := len(f.free); n > 0 {
		h := f.free[n-1]
		f.free = f.free[:n-1]
		return h
	}
	f.made++
	h := &nodeHist{counts: make([]int32, f.rows*f.nc), lo: make([]int, len(f.span)), hi: make([]int, len(f.span))}
	for a := range h.lo {
		h.lo[a], h.hi[a] = f.span[a], -1
	}
	return h
}

// tryGet is get within the memory bound: nil when the pool is empty and
// maxHists histograms exist.
func (f *finisher) tryGet() *nodeHist {
	if len(f.free) == 0 && f.made >= f.maxHists {
		return nil
	}
	return f.get()
}

// dense reports whether the ranks lo..hi are few enough next to n rows
// that walking the range costs less than walking the rows.
func dense(lo, hi, n int) bool { return hi-lo < 4*n }

// release zeroes h, which counts the rows in idx, and returns it to the
// pool; a nil h is ignored. An attribute's touched range is cleared
// whole where it is dense, and row by row where the rows are few next to
// it, so the cost stays near the row count however many ranks there are.
func (f *finisher) release(h *nodeHist, idx []int32) {
	if h == nil {
		return
	}
	nc := f.nc
	for a, lo := range h.lo {
		hi := h.hi[a]
		switch {
		case lo > hi:
			continue
		case dense(lo, hi, len(idx)):
			clear(h.counts[(f.off[a]+lo)*nc : (f.off[a]+hi+1)*nc])
		default:
			for _, i := range idx {
				r := f.off[a] + int(f.cols[a][i])
				clear(h.counts[r*nc : (r+1)*nc])
			}
		}
		h.lo[a], h.hi[a] = f.span[a], -1
	}
	f.free = append(f.free, h)
}

// fill adds the class counts of the rows in idx to h, attribute by
// attribute, widening each attribute's touched range to the ranks seen.
func (f *finisher) fill(h *nodeHist, idx []int32) {
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
			counts[c*nc+int(f.labels[i])] += int32(f.weights[i])
		}
		h.lo[a], h.hi[a] = lo, hi
	}
}

// subtract takes part's counts, those of the rows in idx, out of h, over
// part's touched ranges or row by row as release clears them. When part
// counts a subset of h's rows, h is left counting the rest; its touched
// ranges stay as they were.
func (f *finisher) subtract(h, part *nodeHist, idx []int32) {
	nc := f.nc
	for a, lo := range part.lo {
		hi := part.hi[a]
		switch {
		case lo > hi:
			continue
		case dense(lo, hi, len(idx)):
			from, to := (f.off[a]+lo)*nc, (f.off[a]+hi+1)*nc
			dst := h.counts[from:to]
			for i, v := range part.counts[from:to] {
				dst[i] -= v
			}
		default:
			counts := h.counts[f.off[a]*nc : (f.off[a]+f.span[a])*nc]
			for _, i := range idx {
				counts[int(f.cols[a][i])*nc+int(f.labels[i])] -= int32(f.weights[i])
			}
		}
	}
}

// bestSplit returns the best split of the rows in idx, which h counts and
// whose class counts are total, with its gini index, and leaves the class
// counts of its left side in f.left. For a numeric split, boundary is the
// largest rank going left. It narrows each numeric attribute's touched
// range in h to the ranks the rows occupy.
func (f *finisher) bestSplit(h *nodeHist, idx []int32, total []int) (best tree.Split, boundary int, bestG float64, found bool) {
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
							f.left[k] += int(n)
						}
					}
				}
			}
			continue
		}
		cum := f.cum
		clear(cum)
		occ := f.occupied(h, a, col, idx)
		for j, c := range occ {
			if j > 0 {
				if g := gini.SplitBelow(cum, total); g < bestG {
					lo, hi := f.vals[a][occ[j-1]], f.vals[a][c]
					bestG, found, boundary, f.next = g, true, occ[j-1], c
					best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: lo + (hi-lo)/2}
					copy(f.left, cum)
				}
			}
			for k, v := range counts[c*nc : (c+1)*nc] {
				cum[k] += int(v)
			}
		}
		h.lo[a], h.hi[a] = f.span[a], -1
		if len(occ) > 0 {
			// Every count outside the occupied ranks is zero.
			h.lo[a], h.hi[a] = occ[0], occ[len(occ)-1]
		}
	}
	return best, boundary, bestG, found
}

// occupied returns numeric attribute a's ranks that the rows in idx
// occupy, ascending. Where the ranks h may hold are few next to the rows,
// it walks that range of h for the ranks with a count (every row weighs at
// least 1); where they are many, it sorts the rows' own ranks instead, so
// a node's cost stays near its row count however many ranks there are.
func (f *finisher) occupied(h *nodeHist, a int, col []uint32, idx []int32) []int {
	occ := f.occ[:0]
	lo, hi := h.lo[a], h.hi[a]
	if dense(lo, hi, len(idx)) {
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
func (f *finisher) partition(idx []int32, s *tree.Split, boundary int) int {
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
