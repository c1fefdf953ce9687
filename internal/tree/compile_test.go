package tree

import (
	"math"
	"math/rand"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
)

// testSchema returns a schema mixing numeric and categorical attributes,
// the shapes every split kind needs.
func compileTestSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "n0", Kind: dataset.Numeric},
			{Name: "c0", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d"}},
			{Name: "n1", Kind: dataset.Numeric},
			{Name: "c1", Kind: dataset.Categorical, Values: []string{"p", "q", "r", "s", "t", "u"}},
			{Name: "n2", Kind: dataset.Numeric},
		},
		Classes: []string{"x", "y", "z"},
	}
}

// randomTree grows a random tree over schema: all three split kinds, random
// class counts (so missing-value routing has real majorities to follow),
// and leafP controlling shape — small values give deep, degenerate chains.
func randomTree(rng *rand.Rand, schema *dataset.Schema, maxDepth int, leafP float64) *Tree {
	numeric, categorical := []int{}, []int{}
	for i := range schema.Attrs {
		if schema.Attrs[i].Kind == dataset.Numeric {
			numeric = append(numeric, i)
		} else {
			categorical = append(categorical, i)
		}
	}
	var grow func(depth int) *Node
	grow = func(depth int) *Node {
		n := &Node{}
		counts := make([]int, schema.NumClasses())
		for c := range counts {
			counts[c] = rng.Intn(50)
		}
		counts[rng.Intn(len(counts))]++ // never all-zero
		n.SetCounts(counts)
		if depth >= maxDepth || rng.Float64() < leafP {
			return n
		}
		s := &Split{}
		switch rng.Intn(3) {
		case 0:
			s.Kind = SplitNumeric
			s.Attr = numeric[rng.Intn(len(numeric))]
			s.Threshold = rng.NormFloat64() * 10
		case 1:
			s.Kind = SplitCategorical
			s.Attr = categorical[rng.Intn(len(categorical))]
			card := schema.Attrs[s.Attr].Cardinality()
			s.Subset = rng.Uint64() & ((1 << uint(card)) - 1)
		default:
			s.Kind = SplitLinear
			s.AttrX = numeric[rng.Intn(len(numeric))]
			s.AttrY = numeric[rng.Intn(len(numeric))]
			s.A = rng.NormFloat64()
			s.B = rng.NormFloat64()
			s.C = rng.NormFloat64() * 5
		}
		n.Split = s
		n.Left = grow(depth + 1)
		n.Right = grow(depth + 1)
		return n
	}
	return &Tree{Root: grow(0), Schema: schema}
}

// randomRecord draws attribute values, injecting NaN and out-of-range
// categorical codes (negative, >= 64, fractional) at the given rate.
func randomRecord(rng *rand.Rand, schema *dataset.Schema, hostileP float64) []float64 {
	vals := make([]float64, schema.NumAttrs())
	for i := range vals {
		a := &schema.Attrs[i]
		if rng.Float64() < hostileP {
			switch rng.Intn(4) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = -1 - float64(rng.Intn(5))
			case 2:
				vals[i] = 64 + float64(rng.Intn(100))
			default:
				vals[i] = rng.Float64()*10 - 5 // fractional, possibly negative
			}
			continue
		}
		if a.Kind == dataset.Categorical {
			vals[i] = float64(rng.Intn(len(a.Values)))
		} else {
			vals[i] = rng.NormFloat64() * 10
		}
	}
	return vals
}

// TestCompileEquivalence is the pointer-vs-compiled property suite: across
// randomized trees of every shape (bushy, deep chains, lone leaves) and
// records laced with NaNs and out-of-range categorical codes, the compiled
// tree must agree with the pointer tree on every prediction.
func TestCompileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := compileTestSchema()
	shapes := []struct {
		maxDepth int
		leafP    float64
	}{
		{0, 1.0},  // single leaf
		{3, 0.3},  // shallow
		{8, 0.25}, // bushy
		{14, 0.1}, // deep
		{20, 0.02},
	}
	for _, shape := range shapes {
		for rep := 0; rep < 8; rep++ {
			tr := randomTree(rng, schema, shape.maxDepth, shape.leafP)
			c := Compile(tr)
			if c.Len() != tr.Size() {
				t.Fatalf("compiled %d nodes, tree has %d", c.Len(), tr.Size())
			}
			for i := 0; i < 400; i++ {
				vals := randomRecord(rng, schema, 0.15)
				want, got := tr.Predict(vals), c.Predict(vals)
				if want != got {
					t.Fatalf("depth<=%d rep %d: pointer=%d compiled=%d on %v\n%s",
						shape.maxDepth, rep, want, got, vals, tr)
				}
			}
		}
	}
}

// TestCompileBatchDeterminism checks batch-vs-single equality and that the
// sharded path returns identical predictions for workers 1, 2 and 8.
func TestCompileBatchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := compileTestSchema()
	tr := randomTree(rng, schema, 10, 0.2)
	c := Compile(tr)

	records := make([][]float64, 1037)
	for i := range records {
		records[i] = randomRecord(rng, schema, 0.1)
	}
	single := make([]int, len(records))
	for i, r := range records {
		single[i] = c.Predict(r)
	}
	batch := make([]int, len(records))
	c.PredictBatch(batch, records)
	for i := range batch {
		if batch[i] != single[i] {
			t.Fatalf("PredictBatch[%d]=%d, Predict=%d", i, batch[i], single[i])
		}
	}
	for _, workers := range []int{1, 2, 8} {
		out := make([]int, len(records))
		c.PredictBatchWorkers(out, records, workers)
		for i := range out {
			if out[i] != single[i] {
				t.Fatalf("workers=%d: [%d]=%d, want %d", workers, i, out[i], single[i])
			}
		}
	}
}

// TestCompilePredictTable checks the table-sharded path against row-by-row
// pointer predictions.
func TestCompilePredictTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := compileTestSchema()
	tr := randomTree(rng, schema, 8, 0.25)
	c := Compile(tr)

	tbl := dataset.MustNew(schema)
	for i := 0; i < 513; i++ {
		vals := randomRecord(rng, schema, 0) // Append rejects NaN/out-of-range
		if err := tbl.Append(vals, rng.Intn(schema.NumClasses())); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		dst := make([]int, tbl.NumRecords())
		c.PredictTable(dst, tbl, workers)
		for i := range dst {
			if want := tr.Predict(tbl.Row(i)); dst[i] != want {
				t.Fatalf("workers=%d row %d: got %d want %d", workers, i, dst[i], want)
			}
		}
	}
}

// TestCategoricalOutOfRange pins the guard: negative, >= 64 and NaN
// categorical values must route through the missing-value path (to the
// majority child) instead of silently through an overflowed bitmask, on
// both the pointer and compiled trees.
func TestCategoricalOutOfRange(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}}},
		Classes: []string{"L", "R"},
	}
	left := &Node{}
	left.SetCounts([]int{10, 0}) // majority child
	right := &Node{}
	right.SetCounts([]int{0, 4})
	root := &Node{
		Split: &Split{Kind: SplitCategorical, Attr: 0, Subset: 0b101},
		Left:  left, Right: right,
	}
	root.SetCounts([]int{10, 4})
	tr := &Tree{Root: root, Schema: schema}
	c := Compile(tr)

	for _, v := range []float64{-1, -0.5, -1e18, 64, 100, 1e18, math.NaN()} {
		if got := tr.Predict([]float64{v}); got != 0 {
			t.Errorf("Predict(%v) = %d, want majority child 0", v, got)
		}
		if got := c.Predict([]float64{v}); got != 0 {
			t.Errorf("compiled Predict(%v) = %d, want majority child 0", v, got)
		}
		s := root.Split
		if s.GoesLeft([]float64{v}) {
			t.Errorf("GoesLeft(%v) = true, want deterministic false", v)
		}
	}
	// In-range values still follow the subset mask.
	for v, want := range map[float64]int{0: 0, 1: 1, 2: 0, 2.9: 0} {
		if got := tr.Predict([]float64{v}); got != want {
			t.Errorf("Predict(%v) = %d, want %d", v, got, want)
		}
		if got := c.Predict([]float64{v}); got != want {
			t.Errorf("compiled Predict(%v) = %d, want %d", v, got, want)
		}
	}
}

// predictSink defeats dead-code elimination in the allocation tests.
var predictSink int

// TestPredictZeroAlloc pins the flat-tree hot path at zero allocations per
// prediction: Compiled.Predict over zero-copy Table row views (the exact
// loop eval.Accuracy and eval.Confusion run) and PredictBatch into a
// preallocated destination.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	schema := compileTestSchema()
	tr := randomTree(rng, schema, 10, 0.2)
	c := Compile(tr)

	tbl := dataset.MustNew(schema)
	for i := 0; i < 256; i++ {
		if err := tbl.Append(randomRecord(rng, schema, 0), rng.Intn(schema.NumClasses())); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		predictSink += c.Predict(tbl.Row(i % tbl.NumRecords()))
		i++
	}); allocs != 0 {
		t.Errorf("Predict over Row views: %v allocs/op, want 0", allocs)
	}

	records := make([][]float64, 64)
	for j := range records {
		records[j] = randomRecord(rng, schema, 0.1)
	}
	dst := make([]int, len(records))
	if allocs := testing.AllocsPerRun(200, func() {
		c.PredictBatch(dst, records)
	}); allocs != 0 {
		t.Errorf("PredictBatch into reused dst: %v allocs/op, want 0", allocs)
	}

	tblDst := make([]int, tbl.NumRecords())
	if allocs := testing.AllocsPerRun(200, func() {
		c.PredictTable(tblDst, tbl, 1)
	}); allocs != 0 {
		t.Errorf("serial PredictTable: %v allocs/op, want 0", allocs)
	}
}

// TestBatchObserverZeroAlloc pins the observability hooks themselves at
// zero allocations: an attached latency histogram must not change the
// batch paths' allocation profile, and Predict — which is deliberately
// never instrumented — stays allocation-free either way.
func TestBatchObserverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	schema := compileTestSchema()
	c := Compile(randomTree(rng, schema, 8, 0.2))
	c.SetBatchObserver(obs.NewHistogram(nil))

	records := make([][]float64, 64)
	for j := range records {
		records[j] = randomRecord(rng, schema, 0)
	}
	dst := make([]int, len(records))
	if allocs := testing.AllocsPerRun(200, func() {
		c.PredictBatch(dst, records)
	}); allocs != 0 {
		t.Errorf("PredictBatch with observer attached: %v allocs/op, want 0", allocs)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		predictSink += c.Predict(records[i%len(records)])
		i++
	}); allocs != 0 {
		t.Errorf("Predict with observer attached: %v allocs/op, want 0", allocs)
	}
	if got := c.batchObs.Snapshot().Count; got == 0 {
		t.Error("observer recorded no batches")
	}
}

func TestCompilePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Compile(nil)", func() { Compile(nil) })
	rng := rand.New(rand.NewSource(1))
	c := Compile(randomTree(rng, compileTestSchema(), 3, 0.3))
	mustPanic("short dst", func() { c.PredictBatch(make([]int, 1), make([][]float64, 2)) })
	mustPanic("short dst workers", func() { c.PredictBatchWorkers(make([]int, 1), make([][]float64, 2), 2) })
}
