// Package exact is the in-memory decision-tree builder that evaluates the
// gini index at every distinct attribute value: the "exact algorithm" the
// paper compares CMP's split selection against in Table 1. Every builder
// finishes a node here once its records fit a buffer, the standard practice
// for disk-oriented tree builders: the raw CMP builder, the comparators and
// windowing through the float front end (BuildSubtree, BuildTable,
// BestSplit), and quantized CMP builds through the code front end
// (FinishCodes). Both front ends rank-code their rows once and grow the
// tree with one finisher (finish.go).
package exact

import (
	"slices"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
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

// The stopping rules every builder shares: the CMP family and the
// regression forest hold them fixed, and DefaultConfig starts from them.
const (
	// MinSplitRecords: a node with fewer records stays a leaf.
	MinSplitRecords = 2
	// MinGiniGain is the minimum index improvement a split must deliver.
	MinGiniGain = 1e-4
)

// DefaultConfig mirrors the CMP builder's stopping rules.
func DefaultConfig() Config {
	return Config{MinSplitRecords: MinSplitRecords, MaxDepth: 32, MinGiniGain: MinGiniGain}
}

// Stops reports whether the stopping rules keep node, depth edges below
// the starting node, a leaf without a split search: it is pure, has fewer
// than MinSplitRecords records, is MaxDepth deep, or its majority class
// reaches PurityStop.
func (c Config) Stops(node *tree.Node, depth int) bool {
	if node.Gini == 0 || node.N < c.MinSplitRecords || depth >= c.MaxDepth {
		return true
	}
	return c.PurityStop > 0 && float64(node.ClassCounts[node.Class]) >= c.PurityStop*float64(node.N)
}

// Rows is the minimal row container the builder needs; *dataset.Table and
// the CMP builder's record buffers both satisfy it trivially via adapters.
type Rows interface {
	Len() int
	Row(i int) []float64
	Label(i int) int
}

// TableRows returns t's records as Rows.
func TableRows(t *dataset.Table) Rows { return tableRows{t} }

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
// root node. The container is not modified.
func BuildSubtree(rows Rows, schema *dataset.Schema, cfg Config) *tree.Node {
	return rankRows(rows, schema, cfg).grow()
}

// BestSplit evaluates every attribute of the rows exactly and returns the
// best split with its gini index. ok is false when no split partitions the
// rows. This is the primitive Table 1's "Exact Algo." columns are produced
// with.
func BestSplit(rows Rows, schema *dataset.Schema) (tree.Split, float64, bool) {
	f := rankRows(rows, schema, DefaultConfig())
	h := f.get()
	f.fill(h, f.idx)
	split, _, g, ok := f.bestSplit(h, f.idx, f.rootCounts())
	return split, g, ok
}

// allowed reports whether cfg lets attribute a split.
func allowed(cfg Config, a int) bool { return cfg.AllowedAttrs == nil || cfg.AllowedAttrs[a] }

// rankedValue is one row's value of a numeric attribute, for rank coding.
type rankedValue struct {
	v   float64
	row uint32
}

// rankRows is the float front end: it sorts each allowed numeric attribute
// of rows once and numbers its distinct values in ascending order, equal
// values (by ==, so -0 and +0 alike) sharing a rank. Categorical values
// are their category indices already. Every row stands for one record.
func rankRows(rows Rows, schema *dataset.Schema, cfg Config) *finisher {
	n, k := rows.Len(), schema.NumAttrs()
	labels := make([]int32, n)
	weights := make([]uint32, n)
	for i := range labels {
		labels[i] = int32(rows.Label(i))
		weights[i] = 1
	}
	cols := make([][]uint32, k)
	vals := make([][]float64, k)
	var pairs, scratch []rankedValue
	var distinct []float64
	for a := 0; a < k; a++ {
		if !allowed(cfg, a) {
			continue
		}
		col := make([]uint32, n)
		cols[a] = col
		if schema.Attrs[a].Kind == dataset.Categorical {
			for i := range col {
				col[i] = uint32(rows.Row(i)[a])
			}
			continue
		}
		if pairs == nil {
			pairs, scratch, distinct = make([]rankedValue, n), make([]rankedValue, n), make([]float64, 0, n)
		}
		for i := range pairs {
			pairs[i] = rankedValue{rows.Row(i)[a], uint32(i)}
		}
		distinct = distinct[:0]
		for _, p := range quantile.RadixSort(pairs, scratch, func(p rankedValue) float64 { return p.v }) {
			if len(distinct) == 0 || p.v != distinct[len(distinct)-1] {
				distinct = append(distinct, p.v)
			}
			col[p.row] = uint32(len(distinct) - 1)
		}
		vals[a] = slices.Clone(distinct)
	}
	// The rows' bytes: eight per value, four per label.
	return newFinisher(schema, cfg, cols, vals, labels, weights, n*(8*k+4))
}

// FinishCodes is the code front end: it grows the subtree over rows of bin
// codes, k per row in codes, each row with its label and the number of
// records it stands for (at least 1), and returns its root. A numeric
// attribute's occupied codes are numbered in ascending order, each rank
// standing for its code's value; the tree is the one BuildSubtree grows
// over the codes widened to float64 and each row repeated as often as it is
// weighted. A numeric threshold is the midpoint between two occupied codes.
func FinishCodes(codes []uint16, k int, labels []int32, weights []uint32, schema *dataset.Schema, cfg Config) *tree.Node {
	n := len(labels)
	cols := make([][]uint32, k)
	vals := make([][]float64, k)
	for a := 0; a < k; a++ {
		if !allowed(cfg, a) {
			continue
		}
		col := make([]uint32, n)
		for i := range col {
			col[i] = uint32(codes[i*k+a])
		}
		cols[a] = col
		if schema.Attrs[a].Kind == dataset.Categorical || n == 0 {
			continue
		}
		// Mark the occupied codes in [lo, hi], number them in code order
		// and replace each code with its number.
		lo, hi := col[0], col[0]
		for _, c := range col {
			lo, hi = min(lo, c), max(hi, c)
		}
		rank := make([]uint32, hi-lo+1)
		for _, c := range col {
			rank[c-lo] = 1
		}
		var distinct []float64
		for c, seen := range rank {
			if seen != 0 {
				rank[c] = uint32(len(distinct))
				distinct = append(distinct, float64(int(lo)+c))
			}
		}
		for i, c := range col {
			col[i] = rank[c-lo]
		}
		vals[a] = distinct
	}
	// The buffer's bytes: two per code, four per label and per weight.
	return newFinisher(schema, cfg, cols, vals, labels, weights, n*(2*k+8)).grow()
}
