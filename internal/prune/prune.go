// Package prune implements MDL-based decision-tree pruning in the style of
// PUBLIC (Rastogi & Shim, VLDB 1998), which the paper uses: pruning is
// applied *during* tree building, once per construction round, using a lower
// bound on the cost of any subtree that could still be grown under a
// not-yet-expanded node. The bound generalizes the paper's PUBLIC(1) to
// PUBLIC(S): it minimizes the encodable cost over subtrees with any number
// of splits up to classes-1, which with two classes reduces to PUBLIC(1).
//
// Encoding costs follow the usual MDL scheme: a node costs one bit to mark
// leaf/internal; a leaf additionally encodes its class label and its
// misclassified records (log2(classes) bits each); an internal node encodes
// which attribute it tests and the test's value. The terms are exported as
// MDL's methods so the in-memory finishers (internal/core's code finisher and
// internal/exact) can apply the same rule while they grow a subtree: a node
// whose leaf cost is no worse than any subtree could reach is never split,
// and a split whose subtree is certain to collapse is never recursed into.
package prune

import (
	"math"
	"slices"

	"cmpdt/internal/tree"
)

// Result reports what a pruning pass changed.
type Result struct {
	// Collapsed holds resolved internal nodes that were converted to leaves
	// (their subtrees were removed).
	Collapsed map[*tree.Node]bool
	// Finalized holds expandable frontier nodes that the PUBLIC(1) bound
	// proved should remain leaves: no subtree can beat their leaf cost.
	Finalized map[*tree.Node]bool
	// Cost is the MDL cost of the pruned tree (with expandable nodes charged
	// their optimistic lower bound).
	Cost float64
}

// PUBLIC1 prunes t in place. expandable marks frontier nodes the builder
// could still split; they are charged min(leaf cost, one-split lower bound)
// and are finalized as permanent leaves when the leaf cost is no worse than
// the bound. Pass nil when building is finished (pure post-pruning).
func PUBLIC1(t *tree.Tree, expandable map[*tree.Node]bool) Result {
	res := Result{
		Collapsed: make(map[*tree.Node]bool),
		Finalized: make(map[*tree.Node]bool),
	}
	m := MDL{NumAttrs: t.Schema.NumAttrs(), NumClasses: t.Schema.NumClasses()}
	res.Cost = m.pruneNode(t.Root, expandable, &res)
	return res
}

func (m MDL) pruneNode(n *tree.Node, expandable map[*tree.Node]bool, res *Result) float64 {
	if n == nil {
		return 0
	}
	lc := m.Leaf(n.Errors())
	if n.IsLeaf() {
		if expandable != nil && expandable[n] {
			bound := m.Bound(n.ClassCounts, n.N)
			if lc <= bound {
				res.Finalized[n] = true
				return lc
			}
			return bound
		}
		return lc
	}
	sub := m.Internal(n.Split, n.N, m.pruneNode(n.Left, expandable, res), m.pruneNode(n.Right, expandable, res))
	if lc <= sub {
		collapse(n, res)
		return lc
	}
	return sub
}

// collapse converts an internal node to a leaf and records every removed
// internal node so builders can drop pending work under it.
func collapse(n *tree.Node, res *Result) {
	var mark func(*tree.Node)
	mark = func(m *tree.Node) {
		if m == nil {
			return
		}
		res.Collapsed[m] = true
		mark(m.Left)
		mark(m.Right)
	}
	mark(n.Left)
	mark(n.Right)
	res.Collapsed[n] = true
	n.Split = nil
	n.Left, n.Right = nil, nil
}

// MDL evaluates the encoding costs of nodes in a tree over a schema with
// NumAttrs attributes and NumClasses classes.
//
// An in-memory builder can apply PUBLIC1's rule while it grows a subtree,
// and produce exactly the tree PUBLIC1 would leave of the fully grown one.
// With lc a node's leaf cost, it makes three cuts:
//
//  1. lc <= Bound: the node stays a leaf; no split is searched for.
//  2. lc <= Internal(split, Floor(left), Floor(right)): the node stays a leaf
//     without growing its children. Once the left child is grown the test
//     repeats with the left child's actual cost.
//  3. lc <= Internal(split, cost(left), cost(right)) once both children are
//     grown: PUBLIC1's own test, evaluated the same way.
//
// Cuts 1 and 2 never disagree with post-pruning. Every subtree with at
// least one split costs at least Bound plus 1 bit per split, because Split
// charges every test at least one bit beyond the attribute choice Bound
// charges (a numeric value log2(max(n,2)) >= 1 bit, a categorical subset >=
// 2 bits, a linear test a second attribute and two values). So a pruned
// child costs no less than its Floor, and a node whose leaf cost beats the
// bound would collapse under any subtree; the 1-bit margin dwarfs float
// rounding, and float addition is monotone, so evaluating Internal over the
// floors in PUBLIC1's order cannot tip a comparison the other way. A pruned
// subtree is a fixed point of PUBLIC1, so later pruning passes over a tree
// holding it see the same costs and collapse nothing in it.
type MDL struct {
	NumAttrs, NumClasses int
}

// Leaf is the cost of a leaf with errs misclassified records: 1 bit for the
// node type, log2(c) to name the class, and log2(c) per misclassified
// record.
func (m MDL) Leaf(errs int) float64 {
	lc := math.Log2(float64(m.NumClasses))
	return 1 + lc + float64(errs)*lc
}

// Split encodes the test s at a node of n records: the attribute choice
// plus its value. Numeric thresholds are charged log2(n) bits (one of up to
// n candidate positions); categorical subsets one bit per category value;
// linear splits the attribute pair plus two numeric values. Every kind
// costs at least one bit more than the attribute choice Bound charges.
func (m MDL) Split(s *tree.Split, n int) float64 {
	attrBits := math.Log2(float64(m.NumAttrs))
	valueBits := math.Log2(math.Max(float64(n), 2))
	switch s.Kind {
	case tree.SplitCategorical:
		card := bitsUpTo(s.Subset)
		return attrBits + float64(card)
	case tree.SplitLinear:
		return 2*attrBits + 2*valueBits
	default:
		return attrBits + valueBits
	}
}

// Internal is the cost of an internal node of n records split by s whose
// children cost costL and costR: 1 bit for the node type plus the test.
// pruneNode collapses the node when its leaf cost is no greater.
func (m MDL) Internal(s *tree.Split, n int, costL, costR float64) float64 {
	return 1 + m.Split(s, n) + costL + costR
}

// Floor is the least cost a node with the given class counts (n records)
// can reach, as a leaf or through any subtree: min(Leaf, Bound).
func (m MDL) Floor(counts []int, n int) float64 {
	return math.Min(m.Leaf(misclassified(counts, n)), m.Bound(counts, n))
}

// misclassified is tree.Node.Errors over bare class counts: the records
// outside the majority class.
func misclassified(counts []int, n int) int {
	if len(counts) == 0 {
		return 0
	}
	return n - slices.Max(counts)
}

// bitsUpTo returns the position of the highest set bit plus one, i.e. the
// number of category values the subset mask spans.
func bitsUpTo(mask uint64) int {
	b := 0
	for mask != 0 {
		b++
		mask >>= 1
	}
	if b < 2 {
		b = 2
	}
	return b
}

// maxStackClasses is how many classes Bound sorts without allocating.
const maxStackClasses = 64

// Bound is the PUBLIC(S) lower bound on the cost of any subtree with at
// least one split over a node with the given class counts (n records),
// generalized from the paper's PUBLIC(1): a subtree with s splits has s
// internal nodes (one bit and an attribute choice each) and s+1 leaves (one
// bit and a label each), and at best its leaves absorb the s+1 largest
// classes — every record outside them is an error. The bound minimizes over
// s = 1..NumClasses-1 (beyond that, extra splits cannot reduce the error
// term). With two classes this reduces exactly to PUBLIC(1).
//
// Every real subtree costs at least Bound+1: Split charges each test at
// least one bit beyond its attribute choice. Bound does not allocate for up
// to maxStackClasses classes.
func (m MDL) Bound(counts []int, n int) float64 {
	lc := math.Log2(float64(m.NumClasses))
	attrBits := math.Log2(float64(m.NumAttrs))

	var stack [maxStackClasses]int
	sorted := stack[:0]
	if len(counts) > len(stack) {
		sorted = make([]int, 0, len(counts))
	}
	// Descending insertion sort: class counts are few.
	for _, c := range counts {
		i := len(sorted)
		sorted = append(sorted, c)
		for ; i > 0 && sorted[i-1] < c; i-- {
			sorted[i] = sorted[i-1]
		}
		sorted[i] = c
	}

	best := math.Inf(1)
	maxSplits := m.NumClasses - 1
	if maxSplits < 1 {
		maxSplits = 1
	}
	top, covered := 0, 0 // top = sum of the largest `covered` counts
	for s := 1; s <= maxSplits; s++ {
		leaves := min(s+1, len(sorted))
		for ; covered < leaves; covered++ {
			top += sorted[covered]
		}
		minErrs := max(n-top, 0)
		cost := float64(s)*(1+attrBits) + // internal nodes + attribute choices
			float64(s+1)*(1+lc) + // leaves with labels
			float64(minErrs)*lc
		if cost < best {
			best = cost
		}
	}
	return best
}
