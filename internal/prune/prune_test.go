package prune

import (
	"math"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/tree"
)

func schema2() *dataset.Schema {
	return &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"a", "b"},
	}
}

// leaf builds a leaf with the given class counts.
func leaf(counts ...int) *tree.Node {
	n := &tree.Node{}
	n.SetCounts(counts)
	return n
}

// internal builds an internal node over two children with a numeric split.
func internal(th float64, l, r *tree.Node) *tree.Node {
	n := &tree.Node{
		Split: &tree.Split{Kind: tree.SplitNumeric, Attr: 0, Threshold: th},
		Left:  l, Right: r,
	}
	counts := make([]int, len(l.ClassCounts))
	for c := range counts {
		counts[c] = l.ClassCounts[c] + r.ClassCounts[c]
	}
	n.SetCounts(counts)
	return n
}

func TestUsefulSplitSurvives(t *testing.T) {
	// A split that perfectly separates 100 vs 100 records is far cheaper
	// than a 100-error leaf.
	root := internal(5, leaf(100, 0), leaf(0, 100))
	tr := &tree.Tree{Root: root, Schema: schema2()}
	PUBLIC1(tr, nil)
	if tr.Root.IsLeaf() {
		t.Fatal("useful split was pruned")
	}
}

func TestUselessSplitCollapses(t *testing.T) {
	// Children with the same majority class and no error reduction: the
	// split encodes bits for nothing.
	root := internal(5, leaf(50, 20), leaf(50, 20))
	tr := &tree.Tree{Root: root, Schema: schema2()}
	res := PUBLIC1(tr, nil)
	if !tr.Root.IsLeaf() {
		t.Fatal("useless split survived")
	}
	if len(res.Collapsed) == 0 {
		t.Error("collapse not reported")
	}
	if tr.Root.Left != nil || tr.Root.Split != nil {
		t.Error("collapse left dangling pointers")
	}
}

func TestDeepNoiseTreeCollapses(t *testing.T) {
	// A full depth-4 tree over pure-noise leaves (every leaf 6 vs 4) should
	// collapse entirely.
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		if depth == 0 {
			return leaf(6, 4)
		}
		return internal(float64(depth), build(depth-1), build(depth-1))
	}
	tr := &tree.Tree{Root: build(4), Schema: schema2()}
	PUBLIC1(tr, nil)
	if !tr.Root.IsLeaf() {
		t.Errorf("noise tree kept depth %d", tr.Depth())
	}
}

func TestExpandableFinalizedWhenPure(t *testing.T) {
	// An expandable frontier leaf that is already pure cannot benefit from
	// any subtree: the bound proves it should stay a leaf.
	pure := leaf(500, 0)
	root := internal(5, pure, leaf(0, 500))
	tr := &tree.Tree{Root: root, Schema: schema2()}
	res := PUBLIC1(tr, map[*tree.Node]bool{pure: true})
	if !res.Finalized[pure] {
		t.Error("pure expandable leaf not finalized")
	}
}

func TestExpandableImpureKeptOpen(t *testing.T) {
	// A very impure expandable leaf should NOT be finalized: a subtree
	// could reduce its cost, so the optimistic bound must win.
	impure := leaf(300, 300)
	root := internal(5, impure, leaf(0, 600))
	tr := &tree.Tree{Root: root, Schema: schema2()}
	res := PUBLIC1(tr, map[*tree.Node]bool{impure: true})
	if res.Finalized[impure] {
		t.Error("impure expandable leaf prematurely finalized")
	}
}

func TestCostPositive(t *testing.T) {
	root := internal(5, leaf(10, 2), leaf(1, 9))
	tr := &tree.Tree{Root: root, Schema: schema2()}
	res := PUBLIC1(tr, nil)
	if res.Cost <= 0 {
		t.Errorf("Cost = %v, want positive", res.Cost)
	}
}

func TestSubtreeLowerBoundMultiClass(t *testing.T) {
	// Three classes, 100 each: a one-split subtree must leave >= 100
	// errors, a two-split subtree can cover all three classes. The
	// generalized bound must account for the cheaper two-split option, so
	// it cannot exceed the two-split cost, and a pure-ish expandable node
	// must still be finalizable.
	n := leaf(100, 100, 100)
	bound := MDL{NumAttrs: 4, NumClasses: 3}.Bound(n.ClassCounts, n.N)
	lc := math.Log2(3.0)
	oneSplit := 1*(1+2) + 2*(1+lc) + 100*lc
	twoSplit := 2*(1+2) + 3*(1+lc) + 0*lc
	if bound > oneSplit+1e-9 {
		t.Errorf("bound %v exceeds one-split cost %v", bound, oneSplit)
	}
	if bound > twoSplit+1e-9 {
		t.Errorf("bound %v exceeds two-split cost %v", bound, twoSplit)
	}
	// The bound is the min of the achievable costs, so it must be within
	// the smaller of the two.
	want := math.Min(oneSplit, twoSplit)
	if math.Abs(bound-want) > 1e-9 {
		t.Errorf("bound %v, want %v", bound, want)
	}
}

func TestSubtreeLowerBoundTwoClassesReducesToPUBLIC1(t *testing.T) {
	n := leaf(70, 30)
	got := MDL{NumAttrs: 9, NumClasses: 2}.Bound(n.ClassCounts, n.N)
	lc := math.Log2(2.0)
	want := 1*(1+math.Log2(9.0)) + 2*(1+lc) + 0*lc // two leaves cover both classes
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bound %v, want PUBLIC(1) value %v", got, want)
	}
}
