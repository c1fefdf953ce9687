// Package exact implements a straightforward in-memory decision-tree
// builder that evaluates the gini index at every distinct attribute value —
// the "exact algorithm" the paper compares CMP's split selection against in
// Table 1. It is also used by the raw CMP builder and the comparators to
// finish small subtrees in memory once a node's records fit a buffer, the
// standard practice for disk-oriented tree builders. (Quantized CMP builds
// finish on bin codes instead, growing the same trees; see
// internal/core/qfinish.go.)
package exact

import (
	"sort"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// Config controls exact building.
type Config struct {
	// MinSplitRecords stops splitting nodes with fewer records.
	MinSplitRecords int
	// MaxDepth caps tree depth (in edges below the starting node).
	MaxDepth int
	// MinGiniGain is the minimum index improvement a split must deliver.
	MinGiniGain float64
	// PurityStop, when positive, stops splitting nodes whose majority class
	// covers at least this fraction of records.
	PurityStop float64
	// AllowedAttrs, when non-nil, restricts splits to attributes whose
	// entry is true — the in-memory leg of the CMP builder's feature
	// subsampling. Indexed by attribute; nil allows everything.
	AllowedAttrs []bool
	// Prune grows only the subtree prune.PUBLIC1 would leave of the full
	// one, cutting growth with the MDL terms of prune.MDL.
	Prune bool
}

// DefaultConfig mirrors the CMP builder's stopping rules.
func DefaultConfig() Config {
	return Config{MinSplitRecords: 2, MaxDepth: 32, MinGiniGain: 1e-4}
}

// Rows is the minimal row container the builder needs; *dataset.Table and
// the CMP builder's record buffers both satisfy it trivially via adapters.
type Rows interface {
	Len() int
	Row(i int) []float64
	Label(i int) int
}

type tableRows struct{ t *dataset.Table }

func (r tableRows) Len() int            { return r.t.NumRecords() }
func (r tableRows) Row(i int) []float64 { return r.t.Row(i) }
func (r tableRows) Label(i int) int     { return r.t.Label(i) }

// BuildTable builds an exact tree over an in-memory table.
func BuildTable(t *dataset.Table, cfg Config) *tree.Tree {
	root := BuildSubtree(tableRows{t}, t.Schema(), cfg)
	return &tree.Tree{Root: root, Schema: t.Schema()}
}

// BuildSubtree builds an exact subtree over the given rows and returns its
// root node. The rows are copied into scratch index arrays; the container is
// not modified.
func BuildSubtree(rows Rows, schema *dataset.Schema, cfg Config) *tree.Node {
	n := rows.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b := newBuilder(rows, schema, cfg)
	root, _ := b.build(idx, b.classCounts(idx), 0)
	return root
}

// BestSplit evaluates every attribute of the rows exactly and returns the
// best split with its gini index. ok is false when no split partitions the
// rows. This is the primitive Table 1's "Exact Algo." columns are produced
// with.
func BestSplit(rows Rows, schema *dataset.Schema) (tree.Split, float64, bool) {
	n := rows.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b := newBuilder(rows, schema, DefaultConfig())
	return b.bestSplit(idx, b.classCounts(idx))
}

type builder struct {
	rows   Rows
	schema *dataset.Schema
	cfg    Config
	mdl    prune.MDL
}

func newBuilder(rows Rows, schema *dataset.Schema, cfg Config) *builder {
	mdl := prune.MDL{NumAttrs: schema.NumAttrs(), NumClasses: schema.NumClasses()}
	return &builder{rows: rows, schema: schema, cfg: cfg, mdl: mdl}
}

func (b *builder) classCounts(idx []int) []int {
	counts := make([]int, b.schema.NumClasses())
	for _, i := range idx {
		counts[b.rows.Label(i)]++
	}
	return counts
}

// build grows the subtree over the rows in idx, whose class counts are
// counts, and returns its root with the root's MDL cost when Prune is set.
// With Prune it makes prune.MDL's three cuts: a node whose leaf cost lc is no
// worse than the bound stays a leaf; so does one whose split cannot beat lc
// even if each child reaches its floor (tested again with the left child's
// actual cost); and a grown node collapses when PUBLIC1 would collapse it.
func (b *builder) build(idx, counts []int, depth int) (*tree.Node, float64) {
	node := &tree.Node{}
	node.SetCounts(counts)
	var lc float64
	if b.cfg.Prune {
		lc = b.mdl.Leaf(node.Errors())
	}
	if node.Gini == 0 || node.N < b.cfg.MinSplitRecords || depth >= b.cfg.MaxDepth {
		return node, lc
	}
	if b.cfg.PurityStop > 0 && float64(node.ClassCounts[node.Class]) >= b.cfg.PurityStop*float64(node.N) {
		return node, lc
	}
	if b.cfg.Prune && lc <= b.mdl.Bound(counts, node.N) {
		return node, lc
	}
	split, g, ok := b.bestSplit(idx, counts)
	if !ok || node.Gini-g < b.cfg.MinGiniGain {
		return node, lc
	}
	nc := len(counts)
	cc := make([]int, 2*nc)
	leftCounts, rightCounts := cc[:nc:nc], cc[nc:]
	var left, right []int
	for _, i := range idx {
		if split.GoesLeft(b.rows.Row(i)) {
			left = append(left, i)
			leftCounts[b.rows.Label(i)]++
		} else {
			right = append(right, i)
			rightCounts[b.rows.Label(i)]++
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node, lc
	}
	var floorR float64
	if b.cfg.Prune {
		floorR = b.mdl.Floor(rightCounts, len(right))
		if lc <= b.mdl.Internal(&split, node.N, b.mdl.Floor(leftCounts, len(left)), floorR) {
			return node, lc
		}
	}
	l, costL := b.build(left, leftCounts, depth+1)
	if b.cfg.Prune && lc <= b.mdl.Internal(&split, node.N, costL, floorR) {
		return node, lc
	}
	r, costR := b.build(right, rightCounts, depth+1)
	cost := b.mdl.Internal(&split, node.N, costL, costR)
	if b.cfg.Prune && lc <= cost {
		return node, lc
	}
	node.Split, node.Left, node.Right = &split, l, r
	return node, cost
}

// bestSplit scans every attribute for the best exact split of the rows in
// idx, whose class counts are total.
func (b *builder) bestSplit(idx, total []int) (tree.Split, float64, bool) {
	var best tree.Split
	bestG := 2.0
	found := false
	zeros := make([]int, len(total))

	vals := make([]float64, len(idx))
	labels := make([]int, len(idx))
	order := make([]int, len(idx))

	for a := 0; a < b.schema.NumAttrs(); a++ {
		if b.cfg.AllowedAttrs != nil && !b.cfg.AllowedAttrs[a] {
			continue
		}
		attr := &b.schema.Attrs[a]
		if attr.Kind == dataset.Categorical {
			counts := make([][]int, attr.Cardinality())
			for v := range counts {
				counts[v] = make([]int, len(total))
			}
			for _, i := range idx {
				counts[int(b.rows.Row(i)[a])][b.rows.Label(i)]++
			}
			mask, g, ok := gini.BestSubsetSplit(counts)
			if ok && g < bestG {
				bestG = g
				best = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
				found = true
			}
			continue
		}
		for j, i := range idx {
			order[j] = j
			vals[j] = b.rows.Row(i)[a]
			labels[j] = b.rows.Label(i)
		}
		sort.Slice(order, func(x, y int) bool { return vals[order[x]] < vals[order[y]] })
		sortedVals := make([]float64, len(idx))
		sortedLabels := make([]int, len(idx))
		for j, o := range order {
			sortedVals[j] = vals[o]
			sortedLabels[j] = labels[o]
		}
		thresh, g, ok := gini.BestSplitSorted(sortedVals, sortedLabels, zeros, total, false)
		if ok && g < bestG {
			bestG = g
			best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: thresh}
			found = true
		}
	}
	return best, bestG, found
}
