// Package tree defines the decision-tree model produced by every builder in
// this repository: binary trees whose internal nodes test a numeric
// threshold, a categorical subset, or — uniquely to CMP — a linear
// combination of two numeric attributes.
package tree

import (
	"fmt"
	"math"
	"strings"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
)

// SplitKind discriminates the three split forms.
type SplitKind int

const (
	// SplitNumeric tests value[Attr] <= Threshold.
	SplitNumeric SplitKind = iota
	// SplitCategorical tests whether value[Attr] is in the Subset bitmask.
	SplitCategorical
	// SplitLinear tests A*value[AttrX] + B*value[AttrY] <= C, the
	// multivariate criterion of the full CMP algorithm.
	SplitLinear
)

// Split is a node's test. Records satisfying the test go left.
type Split struct {
	Kind      SplitKind
	Attr      int     // SplitNumeric, SplitCategorical
	Threshold float64 // SplitNumeric
	Subset    uint64  // SplitCategorical: bit v set => value v goes left
	// SplitLinear coefficients: A*x + B*y <= C with x = value[AttrX],
	// y = value[AttrY].
	AttrX, AttrY int
	A, B, C      float64
}

// GoesLeft evaluates the split on a record. Categorical values outside the
// bitmask's [0,64) domain go right deterministically (prediction routes them
// through the missing-value path before ever calling this; see
// splitValueMissing).
func (s *Split) GoesLeft(vals []float64) bool {
	switch s.Kind {
	case SplitNumeric:
		return vals[s.Attr] <= s.Threshold
	case SplitCategorical:
		v := vals[s.Attr]
		if categoryOutOfRange(v) {
			return false
		}
		return s.Subset&(1<<uint(int(v))) != 0
	case SplitLinear:
		return s.A*vals[s.AttrX]+s.B*vals[s.AttrY] <= s.C
	default:
		panic(fmt.Sprintf("tree: unknown split kind %d", s.Kind))
	}
}

// categoryOutOfRange reports whether a categorical value falls outside the
// [0,64) domain a Subset bitmask can represent (NaN included: every
// comparison with NaN is false). Before this guard, a negative value
// overflowed the shift to a huge count and a >= 64 one shifted to a zero
// mask — both silently routing right; such values are now treated as
// missing by prediction.
func categoryOutOfRange(v float64) bool {
	return !(v >= 0 && v < 64)
}

// Describe renders the split against a schema, e.g. "salary <= 65000" or
// "1.00*salary + 0.93*commission <= 95796".
func (s *Split) Describe(schema *dataset.Schema) string {
	switch s.Kind {
	case SplitNumeric:
		return fmt.Sprintf("%s <= %g", schema.Attrs[s.Attr].Name, s.Threshold)
	case SplitCategorical:
		a := &schema.Attrs[s.Attr]
		var vals []string
		for v := 0; v < len(a.Values); v++ {
			if s.Subset&(1<<uint(v)) != 0 {
				vals = append(vals, a.Values[v])
			}
		}
		return fmt.Sprintf("%s in {%s}", a.Name, strings.Join(vals, ","))
	case SplitLinear:
		return fmt.Sprintf("%.4g*%s + %.4g*%s <= %.6g",
			s.A, schema.Attrs[s.AttrX].Name, s.B, schema.Attrs[s.AttrY].Name, s.C)
	default:
		return fmt.Sprintf("Split(kind=%d)", s.Kind)
	}
}

// Node is one tree node. Leaves have a nil Split.
type Node struct {
	Split       *Split
	Left, Right *Node
	// Class is the majority class at this node; used for prediction at
	// leaves and as a fallback if a traversal is cut short.
	Class int
	// N and ClassCounts describe the training records that reached the node.
	N           int
	ClassCounts []int
	// Gini is the gini index of the node's training records.
	Gini float64
	// Value is the node's numeric prediction in a regression tree (the
	// mean training target of the records that reached it). Classification
	// trees leave it zero.
	Value float64
}

// IsLeaf reports whether the node has no split.
func (n *Node) IsLeaf() bool { return n.Split == nil }

// SetCounts installs the class distribution and derives N, Class and Gini.
func (n *Node) SetCounts(counts []int) {
	n.ClassCounts = counts
	n.N = 0
	best, bestN := 0, -1
	for c, k := range counts {
		n.N += k
		if k > bestN {
			best, bestN = c, k
		}
	}
	n.Class = best
	n.Gini = gini.Index(counts)
}

// Errors returns the number of training records at the node not of its
// majority class.
func (n *Node) Errors() int {
	if len(n.ClassCounts) == 0 {
		return 0
	}
	return n.N - n.ClassCounts[n.Class]
}

// Tree is a trained classifier.
type Tree struct {
	Root   *Node
	Schema *dataset.Schema
}

// Predict classifies one record. A NaN attribute value (a missing value) —
// or a categorical value outside the [0,64) bitmask domain — routes to the
// child that saw more training records, the standard majority-direction
// fallback. For batch or hot-loop classification, Compile the tree and use
// Compiled.Predict, which is bit-identical and considerably faster.
func (t *Tree) Predict(vals []float64) int {
	return t.leafOf(vals).Class
}

// PredictValue predicts one record's numeric target with a regression
// tree: the identical routing as Predict, returning the leaf's Value.
func (t *Tree) PredictValue(vals []float64) float64 {
	return t.leafOf(vals).Value
}

// leafOf routes one record to its leaf, applying the majority-direction
// fallback on missing values.
func (t *Tree) leafOf(vals []float64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if splitValueMissing(n.Split, vals) {
			if n.Left.N >= n.Right.N {
				n = n.Left
			} else {
				n = n.Right
			}
			continue
		}
		if n.Split.GoesLeft(vals) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// splitValueMissing reports whether the attribute(s) a split tests are
// unusable in the record: NaN, or — for categorical splits — outside the
// [0,64) domain of the subset bitmask.
func splitValueMissing(s *Split, vals []float64) bool {
	switch s.Kind {
	case SplitLinear:
		return math.IsNaN(vals[s.AttrX]) || math.IsNaN(vals[s.AttrY])
	case SplitCategorical:
		return categoryOutOfRange(vals[s.Attr])
	default:
		return math.IsNaN(vals[s.Attr])
	}
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the maximum root-to-leaf path length in edges; a lone root
// has depth 0.
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	return 1 + int(math.Max(float64(l), float64(r)))
}

// Walk visits every node in preorder.
func (t *Tree) Walk(fn func(n *Node, depth int)) { walk(t.Root, 0, fn) }

func walk(n *Node, d int, fn func(*Node, int)) {
	if n == nil {
		return
	}
	fn(n, d)
	walk(n.Left, d+1, fn)
	walk(n.Right, d+1, fn)
}

// String renders the tree as an indented outline.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, t.Root, "")
	return b.String()
}

func (t *Tree) render(b *strings.Builder, n *Node, indent string) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%sleaf: %s (n=%d, errs=%d)\n",
			indent, t.Schema.Classes[n.Class], n.N, n.Errors())
		return
	}
	fmt.Fprintf(b, "%sif %s (n=%d, gini=%.4f)\n",
		indent, n.Split.Describe(t.Schema), n.N, n.Gini)
	t.render(b, n.Left, indent+"  ")
	fmt.Fprintf(b, "%selse\n", indent)
	t.render(b, n.Right, indent+"  ")
}

// CountLinearSplits returns how many internal nodes use a linear-combination
// split, a headline property of full-CMP trees.
func (t *Tree) CountLinearSplits() int {
	count := 0
	t.Walk(func(n *Node, _ int) {
		if !n.IsLeaf() && n.Split.Kind == SplitLinear {
			count++
		}
	})
	return count
}
