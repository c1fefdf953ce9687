package core

// The quantized path's in-memory finisher. A collect node buffers its
// records as raw bin codes, and once the scan has gathered them the subtree
// is grown here, entirely in code space: at each node every allowed
// attribute fills a dense per-code class histogram (the in-memory AVC-group
// of RainForest) and the split is read off it, with no sorting. Numeric
// attributes walk the occupied codes with a running cumulative count;
// categorical ones hand their per-value counts to the subset search.
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
	// weights[i] is the number of records row i stands for.
	weights []uint32

	idx, tmp []int32
	hist     []int   // numeric scratch: hist[code*nc+class], zero between uses
	cnt      []int32 // numeric scratch: rows per code, zero between uses
	occ      []int   // numeric scratch: the occupied codes
	cum      []int
	cat      [][][]int // per categorical attribute: a [value][class] table, zero between uses
	// left holds the class counts of bestSplit's left side; right is
	// build's scratch for the other side.
	left, right []int
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
		idx:     make([]int32, n),
		tmp:     make([]int32, n),
		cum:     make([]int, nc),
		cat:     make([][][]int, k),
		left:    make([]int, nc),
		right:   make([]int, nc),
	}
	counts := make([]int, nc)
	for i := range f.idx {
		f.idx[i] = int32(i)
		counts[f.labels[i]] += int(f.weights[i])
	}
	width := 0
	for a := 0; a < k; a++ {
		if cfg.AllowedAttrs != nil && !cfg.AllowedAttrs[a] {
			continue
		}
		col := make([]uint16, n)
		for i := range col {
			col[i] = buf.codes[i*k+a]
		}
		f.cols[a] = col
		if schema.Attrs[a].Kind == dataset.Categorical {
			card := schema.Attrs[a].Cardinality()
			flat := make([]int, card*nc)
			tab := make([][]int, card)
			for v := range tab {
				tab[v] = flat[v*nc : (v+1)*nc]
			}
			f.cat[a] = tab
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
		width = max(width, int(hi-lo)+1)
	}
	f.hist = make([]int, width*nc)
	f.cnt = make([]int32, width)
	root, _ := f.build(f.idx, counts, 0)
	return root
}

// build grows the subtree over the rows in idx, whose class counts are
// counts, and returns its root with the root's MDL cost when Prune is set.
// With Prune the subtree is the one prune.PUBLIC1 would leave of the full
// grown subtree, reached without growing what PUBLIC1 would delete, by the
// three cuts prune.MDL describes: with lc the node's leaf cost,
//
//  1. lc <= Bound: stay a leaf without searching for a split;
//  2. lc <= Internal(split, Floor(left), Floor(right)): stay a leaf without
//     recursing; after the left child is built, the test repeats with its
//     actual cost in place of its floor;
//  3. lc <= Internal(split, cost(left), cost(right)): PUBLIC1's own test.
func (f *codeFinisher) build(idx []int32, counts []int, depth int) (*tree.Node, float64) {
	node := &tree.Node{}
	node.SetCounts(counts)
	var lc float64
	if f.cfg.Prune {
		lc = f.mdl.Leaf(node.Errors())
	}
	if node.Gini == 0 || node.N < f.cfg.MinSplitRecords || depth >= f.cfg.MaxDepth {
		return node, lc
	}
	if f.cfg.PurityStop > 0 && float64(node.ClassCounts[node.Class]) >= f.cfg.PurityStop*float64(node.N) {
		return node, lc
	}
	if f.cfg.Prune && lc <= f.mdl.Bound(counts, node.N) {
		return node, lc // cut 1
	}
	split, boundary, g, ok := f.bestSplit(idx, counts)
	if !ok || node.Gini-g < f.cfg.MinGiniGain {
		return node, lc
	}
	nl := 0
	for c, k := range f.left {
		nl += k
		f.right[c] = counts[c] - k
	}
	if nl == 0 || nl == node.N {
		return node, lc
	}
	var floorR float64
	if f.cfg.Prune {
		floorR = f.mdl.Floor(f.right, node.N-nl)
		if lc <= f.mdl.Internal(&split, node.N, f.mdl.Floor(f.left, nl), floorR) {
			return node, lc // cut 2
		}
	}
	// nl counts records; the rows going left are the first rl of idx.
	rl := f.partition(idx, &split, boundary)
	cc := make([]int, 2*f.nc)
	copy(cc, f.left)
	copy(cc[f.nc:], f.right)
	left, costL := f.build(idx[:rl], cc[:f.nc:f.nc], depth+1)
	if f.cfg.Prune && lc <= f.mdl.Internal(&split, node.N, costL, floorR) {
		return node, lc // cut 2, with the left child's actual cost
	}
	right, costR := f.build(idx[rl:], cc[f.nc:], depth+1)
	cost := f.mdl.Internal(&split, node.N, costL, costR)
	if f.cfg.Prune && lc <= cost {
		return node, lc // cut 3
	}
	node.Split, node.Left, node.Right = &split, left, right
	return node, cost
}

// bestSplit returns the best split of the rows in idx with its gini index,
// and leaves the class counts of its left side in f.left. For a numeric
// split, boundary is the largest column code going left.
func (f *codeFinisher) bestSplit(idx []int32, total []int) (best tree.Split, boundary int, bestG float64, found bool) {
	bestG = 2.0
	for a, col := range f.cols {
		if col == nil {
			continue
		}
		if tab := f.cat[a]; tab != nil {
			for _, i := range idx {
				tab[col[i]][f.labels[i]] += int(f.weights[i])
			}
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
			for _, row := range tab {
				clear(row)
			}
			continue
		}
		cum := f.cum
		clear(cum)
		for j, c := range f.occupied(col, idx) {
			if j > 0 {
				if g := gini.SplitBelow(cum, total); g < bestG {
					lo, hi := float64(f.base[a]+f.occ[j-1]), float64(f.base[a]+c)
					bestG, found, boundary = g, true, f.occ[j-1]
					best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: lo + (hi-lo)/2}
					copy(f.left, cum)
				}
			}
			h := f.hist[c*f.nc : (c+1)*f.nc]
			for k, v := range h {
				cum[k] += v
			}
			clear(h)
			f.cnt[c] = 0
		}
	}
	return best, boundary, bestG, found
}

// occupied fills the per-code histogram of col over the rows in idx and
// returns the occupied codes in ascending order. The caller clears each
// code's hist and cnt entries as it walks them.
func (f *codeFinisher) occupied(col []uint16, idx []int32) []int {
	occ := f.occ[:0]
	lo, hi := len(f.cnt), -1
	for _, i := range idx {
		c := int(col[i])
		if f.cnt[c] == 0 {
			occ = append(occ, c)
			lo, hi = min(lo, c), max(hi, c)
		}
		f.cnt[c]++
		f.hist[c*f.nc+int(f.labels[i])] += int(f.weights[i])
	}
	if hi-lo < 4*len(occ) {
		// Dense enough: reading the occupied codes off the range is
		// cheaper than sorting them.
		occ = occ[:0]
		for c := lo; c <= hi; c++ {
			if f.cnt[c] != 0 {
				occ = append(occ, c)
			}
		}
	} else {
		slices.Sort(occ)
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
