package stream

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// tableRows adapts a dataset.Table to exact.Rows.
type tableRows struct{ t *dataset.Table }

func (r tableRows) Len() int            { return r.t.NumRecords() }
func (r tableRows) Row(i int) []float64 { return r.t.Row(i) }
func (r tableRows) Label(i int) int     { return r.t.Label(i) }

// TestStreamMultiClassCategoricalSplit: a 3-class stream whose label is
// decided by cat in {a,c} must split the root once, into two pure children.
// Class x never occurs, so every value's first-class share is 0; ordering
// values by that share and trying prefixes ({a}, {a,b}, {a,b,c}) cannot
// reach {a,c}, and grows a deeper tree instead.
func TestStreamMultiClassCategoricalSplit(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "cat", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d"}},
			{Name: "noise", Kind: dataset.Numeric},
		},
		Classes: []string{"x", "y", "z"},
	}
	b, err := New(Config{Schema: schema, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for i := 0; i < 5_000; i++ {
		cat := rng.Intn(4)
		label := 2
		if cat == 0 || cat == 2 {
			label = 1
		}
		if err := b.Ingest(ctx, []float64{float64(cat), rng.Float64()}, label); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	root := b.Snapshot().Root
	sp := root.Split
	if sp == nil || sp.Kind != tree.SplitCategorical || sp.Attr != 0 || (sp.Subset != 0b0101 && sp.Subset != 0b1010) {
		t.Fatalf("root split %+v, want cat in {a,c} against {b,d}", sp)
	}
	for _, child := range []*tree.Node{root.Left, root.Right} {
		if child.Gini != 0 {
			t.Errorf("child counts %v are not pure", child.ClassCounts)
		}
	}
	if st := b.Stats(); st.Nodes != 3 {
		t.Errorf("tree has %d nodes, want 3", st.Nodes)
	}
}

// TestFrozenLeafCategoricalMatchesExact: on records over categorical
// attributes with 3-5 classes, a frozen leaf's best candidate names the
// same attribute and partition as exact.BestSplit over the same records.
func TestFrozenLeafCategoricalMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nc := 3 + rng.Intn(3)
		schema := &dataset.Schema{Classes: make([]string, nc)}
		for c := range schema.Classes {
			schema.Classes[c] = string(rune('p' + c))
		}
		for a := 0; a < 3; a++ {
			vals := make([]string, 3+rng.Intn(5))
			for v := range vals {
				vals[v] = string(rune('a' + v))
			}
			schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: string(rune('A' + a)), Kind: dataset.Categorical, Values: vals})
		}
		b, err := New(Config{Schema: schema, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := dataset.New(schema)
		if err != nil {
			t.Fatal(err)
		}
		// Attribute 0's values lean towards a random class each, so the
		// best partition groups several classes on each side.
		lean := make([]int, schema.Attrs[0].Cardinality())
		for v := range lean {
			lean[v] = rng.Intn(nc)
		}
		v := b.newLeaf(0, 0)
		for i := 0; i < 400; i++ {
			vals := make([]float64, len(schema.Attrs))
			for a := range vals {
				vals[a] = float64(rng.Intn(schema.Attrs[a].Cardinality()))
			}
			label := rng.Intn(nc)
			if rng.Intn(10) < 7 {
				label = lean[int(vals[0])]
			}
			if err := tbl.Append(vals, label); err != nil {
				t.Fatal(err)
			}
			v.leaf.buf = append(v.leaf.buf, brec{vals: vals, label: label})
		}
		b.freeze(v)

		best := candidate{gain: -1}
		for a := range schema.Attrs {
			if c, ok := b.bestForAttr(v.leaf, a); ok && c.gain > best.gain {
				best = c
			}
		}
		want, _, ok := exact.BestSplit(tableRows{tbl}, schema)
		if !ok || best.gain <= 0 {
			t.Fatalf("seed %d: exact ok=%v, stream gain %v", seed, ok, best.gain)
		}
		if best.split.Attr != want.Attr || best.split.Subset != want.Subset {
			t.Errorf("seed %d: stream chose attr %d subset %b, exact attr %d subset %b",
				seed, best.split.Attr, best.split.Subset, want.Attr, want.Subset)
		}
	}
}

// TestStreamHalfLifeMinLeaf: with decayed counts, no split offered or
// committed leaves a side under minLeaf. Every candidate a frozen leaf
// offers after each batch must hold both sides at minLeaf or more, and a
// split committed during the batch must seed children that, after the
// batch's one decay, still hold at least minLeaf times the decay factor.
func TestStreamHalfLifeMinLeaf(t *testing.T) {
	const (
		n        = 12_000
		halfLife = 1_500
		batch    = 256
	)
	old := synth.Generate(synth.F2, n, 4)
	next := synth.Generate(synth.F3, n, 4)
	b, err := New(Config{Schema: synth.Schema(), Workers: 1, BatchSize: batch, Warmup: 100, Grace: 50, HalfLife: halfLife})
	if err != nil {
		t.Fatal(err)
	}
	lambda := math.Exp(-math.Ln2 * batch / halfLife)
	seen := map[*tree.Split]bool{}
	var check func(v *snode)
	check = func(v *snode) {
		if v.split != nil {
			if !seen[v.split] {
				seen[v.split] = true
				if v.left.n < minLeaf*lambda || v.right.n < minLeaf*lambda {
					t.Fatalf("split %+v committed with child mass %v / %v", *v.split, v.left.n, v.right.n)
				}
			}
			check(v.left)
			check(v.right)
			return
		}
		if lf := v.leaf; !lf.warming && !lf.dead {
			for a := range lf.hist {
				if lf.hist[a] == nil {
					continue
				}
				if c, ok := b.bestForAttr(lf, a); ok && (sum(c.lcounts) < minLeaf || sum(c.rcounts) < minLeaf) {
					t.Fatalf("candidate %+v offers side masses %v / %v", c.split, sum(c.lcounts), sum(c.rcounts))
				}
			}
		}
	}
	ctx := context.Background()
	for _, tbl := range []*dataset.Table{old, next} {
		for i := 0; i < n; i++ {
			if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
				t.Fatal(err)
			}
			if b.m == 0 {
				check(b.root)
			}
		}
	}
	if st := b.Stats(); st.Splits < 10 || st.Regrows == 0 {
		t.Errorf("run too tame to exercise the guard: %d splits, %d regrows", st.Splits, st.Regrows)
	}
}

// TestStreamNumericSplitNearExactOptimum is the one-pass error bound: the
// root's committed numeric split, evaluated on the records ingested up to
// the commit, is within the GK rank error plus one bin's mass of the exact
// optimum over those records. Moving one record across a split changes
// gini^D by less than 2/n, so a displacement of r records costs at most
// 2r/n.
func TestStreamNumericSplitNearExactOptimum(t *testing.T) {
	schema := synth.Schema()
	checked := 0
	for fn := synth.F1; fn <= synth.F10; fn++ {
		tbl := synth.Generate(fn, 20_000, 3)
		b, err := New(Config{Schema: schema, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var frozen *leafState
		ctx := context.Background()
		for i := 0; i < tbl.NumRecords() && b.root.split == nil; i++ {
			if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
				t.Fatal(err)
			}
			if lf := b.root.leaf; lf != nil && !lf.warming {
				frozen = lf
			}
		}
		sp := b.root.split
		if sp == nil || sp.Kind != tree.SplitNumeric {
			continue
		}
		prefix := int(b.stats.FirstSplitAt)
		total := make([]int, schema.NumClasses())
		left := make([]int, len(total))
		for i := 0; i < prefix; i++ {
			total[tbl.Label(i)]++
			if sp.GoesLeft(tbl.Row(i)) {
				left[tbl.Label(i)]++
			}
		}
		committed := gini.SplitBelow(left, total)

		// The exact optimum over the numeric attributes: the root split of
		// a one-level exact tree over the prefix.
		first := make([]int, prefix)
		for i := range first {
			first[i] = i
		}
		numeric := make([]bool, schema.NumAttrs())
		for _, a := range schema.NumericAttrs() {
			numeric[a] = true
		}
		opt := exact.BuildSubtree(tableRows{tbl.Slice(first)}, schema,
			exact.Config{MinSplitRecords: 2, MaxDepth: 1, AllowedAttrs: numeric})
		if opt.Split == nil {
			t.Fatalf("%s: no exact numeric split of the first %d records", fn, prefix)
		}
		optG, optAttr, optThresh := gini.SplitBelow(opt.Left.ClassCounts, total), opt.Split.Attr, opt.Split.Threshold
		binMass := sum(frozen.histRow(optAttr, frozen.cuts[optAttr].Interval(optThresh)))
		rankErr := gkEps * float64(b.cfg.Warmup)
		bound := 2 * (rankErr + binMass) / float64(prefix)
		t.Logf("%s: split at %d records on attr %d, gini %.5f, exact %.5f on attr %d, gap %.5f, bound %.5f",
			fn, prefix, sp.Attr, committed, optG, optAttr, committed-optG, bound)
		if committed-optG > bound {
			t.Errorf("%s: committed gini %.5f exceeds the exact optimum %.5f by %.5f, bound %.5f",
				fn, committed, optG, committed-optG, bound)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no function committed a numeric root split")
	}
}
