package exact

// The reference builder the finisher is held to: the exact algorithm as it
// reads in the paper, sorting every numeric attribute's values at every
// node and scanning them for the best threshold, with the finisher's stop
// rules and PUBLIC's MDL cuts written out on float rows. It is slow and
// plain on purpose; the fuzzers compare the finisher with it node for node.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// oracleSubtree is BuildSubtree by the reference builder.
func oracleSubtree(rows Rows, schema *dataset.Schema, cfg Config) *tree.Node {
	n := rows.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b := newBuilder(rows, schema, cfg)
	root, _ := b.build(idx, b.classCounts(idx), 0)
	return root
}

// oracleBestSplit is BestSplit by the reference builder.
func oracleBestSplit(rows Rows, schema *dataset.Schema) (tree.Split, float64, bool) {
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
		thresh, g, ok := bestSplitSorted(sortedVals, sortedLabels, zeros, total, false)
		if ok && g < bestG {
			bestG = g
			best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: thresh}
			found = true
		}
	}
	return best, bestG, found
}

// bestSplitSorted finds the exact best threshold among records sorted
// ascending by attribute value. vals and labels run in parallel. leftCum
// holds per-class counts of the node's records whose values precede every
// value in vals (the "context" to the left — zero for a whole-node search),
// and total the node's per-class totals. Candidate splits lie between
// adjacent distinct values; the returned threshold is their midpoint, so
// records with value <= thresh go to the low side. A split after the final
// value is considered only when rightOpen is true (records with larger
// values exist beyond this range).
//
// ok is false when no candidate position exists (all values equal and the
// range is not right-open, or vals is empty).
func bestSplitSorted(vals []float64, labels []int, leftCum, total []int, rightOpen bool) (thresh, best float64, ok bool) {
	cum := append([]int(nil), leftCum...)
	best = 2.0
	for i := 0; i < len(vals); i++ {
		cum[labels[i]]++
		atEnd := i == len(vals)-1
		if !atEnd && vals[i+1] == vals[i] {
			continue
		}
		if atEnd && !rightOpen {
			break
		}
		g := gini.SplitBelow(cum, total)
		if g < best {
			best = g
			if atEnd {
				thresh = vals[i]
			} else {
				thresh = vals[i] + (vals[i+1]-vals[i])/2
			}
			ok = true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return thresh, best, true
}

// bruteBestSplit tries every prefix split of the sorted values.
func bruteBestSplit(vals []float64, labels []int, leftCum, total []int, rightOpen bool) (float64, float64, bool) {
	bestG := 2.0
	bestTh := 0.0
	found := false
	cum := append([]int(nil), leftCum...)
	n := 0
	for _, c := range total {
		n += c
	}
	for i := 0; i < len(vals); i++ {
		cum[labels[i]]++
		if i+1 < len(vals) && vals[i+1] == vals[i] {
			continue
		}
		if i == len(vals)-1 && !rightOpen {
			break
		}
		cn := 0
		for _, c := range cum {
			cn += c
		}
		if cn == 0 || cn == n {
			// Degenerate but bestSplitSorted may still report it; it is a
			// valid split position as long as both sides are non-empty in
			// the wider node, which leftCum/rightOpen control.
		}
		g := gini.SplitBelow(cum, total)
		if g < bestG {
			bestG = g
			if i == len(vals)-1 {
				bestTh = vals[i]
			} else {
				bestTh = vals[i] + (vals[i+1]-vals[i])/2
			}
			found = true
		}
	}
	return bestTh, bestG, found
}

func TestBestSplitSortedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(30)
		vals := make([]float64, n)
		labels := make([]int, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(10)) // duplicates likely
			labels[i] = rng.Intn(3)
		}
		sort.Float64s(vals)
		total := make([]int, 3)
		leftCum := make([]int, 3)
		for c := 0; c < 3; c++ {
			leftCum[c] = rng.Intn(5)
			total[c] = leftCum[c] + rng.Intn(5)
		}
		for _, l := range labels {
			total[l]++
		}
		rightOpen := rng.Intn(2) == 0

		th, g, ok := bestSplitSorted(vals, labels, leftCum, total, rightOpen)
		bth, bg, bok := bruteBestSplit(vals, labels, leftCum, total, rightOpen)
		if ok != bok {
			t.Fatalf("ok=%v brute=%v (vals=%v labels=%v)", ok, bok, vals, labels)
		}
		if !ok {
			continue
		}
		if math.Abs(g-bg) > 1e-12 || math.Abs(th-bth) > 1e-12 {
			t.Fatalf("got (%v,%v) brute (%v,%v)", th, g, bth, bg)
		}
	}
}

func TestBestSplitSortedEmptyAndConstant(t *testing.T) {
	total := []int{3, 3}
	if _, _, ok := bestSplitSorted(nil, nil, []int{0, 0}, total, false); ok {
		t.Error("expected no split for empty input")
	}
	vals := []float64{5, 5, 5}
	labels := []int{0, 1, 0}
	if _, _, ok := bestSplitSorted(vals, labels, []int{0, 0}, total, false); ok {
		t.Error("expected no split for constant values with closed right")
	}
	// With an open right side, splitting after the constant run is valid.
	if th, _, ok := bestSplitSorted(vals, labels, []int{0, 0}, total, true); !ok || th != 5 {
		t.Errorf("open-right constant: got th=%v ok=%v, want 5 true", th, ok)
	}
}
