package attrlist

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

var layouts = []Layout{SPRINT, SLIQ}

func (l Layout) String() string {
	if l == SLIQ {
		return "SLIQ"
	}
	return "SPRINT"
}

// defaultConfig is the comparators' evaluation setup: exact's stopping
// rules, pruned.
func defaultConfig() exact.Config {
	cfg := exact.DefaultConfig()
	cfg.Prune = true
	return cfg
}

func build(t *testing.T, tbl *dataset.Table, cfg exact.Config, layout Layout) *Result {
	t.Helper()
	res, err := Build(storage.NewMem(tbl), cfg, layout)
	if err != nil {
		t.Fatalf("%v: %v", layout, err)
	}
	return res
}

func accuracy(t *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if t.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRecords())
}

// treeJSON serializes t for byte comparison.
func treeJSON(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracle runs the replaced builder of layout under cfg's rules.
func oracle(t *testing.T, tbl *dataset.Table, cfg exact.Config, layout Layout) *oracleResult {
	t.Helper()
	oc := oracleConfig{
		MinSplitRecords: cfg.MinSplitRecords, MaxDepth: cfg.MaxDepth,
		MinGiniGain: cfg.MinGiniGain, PurityStop: cfg.PurityStop, Prune: cfg.Prune,
	}
	build := oracleSPRINT
	if layout == SLIQ {
		build = oracleSLIQ
	}
	res, err := build(storage.NewMem(tbl), oc)
	if err != nil {
		t.Fatalf("%v oracle: %v", layout, err)
	}
	return res
}

// checkOracle requires Build's tree and both costs to equal the oracle's.
// SLIQ's oracle grows an empty child where a split sends every record one
// way and the exact tree keeps a leaf (DESIGN.md, "SPRINT and SLIQ are
// list-I/O cost policies"); its SLIQ comparison is then skipped.
func checkOracle(t *testing.T, name string, tbl *dataset.Table, cfg exact.Config) {
	t.Helper()
	for _, layout := range layouts {
		want := oracle(t, tbl, cfg, layout)
		if want.EmptyChild {
			continue
		}
		got := build(t, tbl, cfg, layout)
		if g, w := treeJSON(t, got.Tree), treeJSON(t, want.Tree); !bytes.Equal(g, w) {
			t.Fatalf("%s %v: trees differ\nBuild:\n%s\noracle:\n%s", name, layout, got.Tree, want.Tree)
		}
		if got.ListBytesIO != want.ListBytesIO || got.PeakMemoryBytes != want.PeakMemoryBytes {
			t.Fatalf("%s %v: list bytes %d, peak memory %d; oracle %d, %d", name, layout,
				got.ListBytesIO, got.PeakMemoryBytes, want.ListBytesIO, want.PeakMemoryBytes)
		}
	}
}

// TestLayoutsMatchOracles: on Agrawal data, with and without pruning and
// under each stopping rule, both layouts grow the replaced builders' trees
// and charge their list traffic and memory.
func TestLayoutsMatchOracles(t *testing.T) {
	for _, fn := range []synth.Func{synth.F1, synth.F2, synth.F3, synth.F6, synth.F7} {
		tbl := synth.Generate(fn, 3000, int64(fn))
		for _, prune := range []bool{false, true} {
			cfg := exact.DefaultConfig()
			cfg.Prune = prune
			checkOracle(t, fmt.Sprintf("F%d prune=%v", int(fn), prune), tbl, cfg)
		}
		cfg := exact.DefaultConfig()
		cfg.MaxDepth, cfg.PurityStop, cfg.MinSplitRecords = 3, 0.8, 50
		checkOracle(t, fmt.Sprintf("F%d stops", int(fn)), tbl, cfg)
	}
}

func checkTrainAccuracy(t *testing.T, layout Layout) {
	tbl := synth.Generate(synth.F2, 8000, 3)
	res := build(t, tbl, exact.DefaultConfig(), layout)
	if acc := accuracy(res.Tree, tbl); acc < 0.999 {
		t.Errorf("%v training accuracy %.4f, want ~1.0 (exact algorithm)", layout, acc)
	}
}

func TestSPRINTAccuracy(t *testing.T) { checkTrainAccuracy(t, SPRINT) }

func TestSLIQAccuracy(t *testing.T) { checkTrainAccuracy(t, SLIQ) }

func TestSLIQCategorical(t *testing.T) {
	tbl := synth.Generate(synth.F3, 8000, 6)
	for _, layout := range layouts {
		res := build(t, tbl, defaultConfig(), layout)
		if acc := accuracy(res.Tree, tbl); acc < 0.99 {
			t.Errorf("%v: F3 accuracy %.4f", layout, acc)
		}
		hasCat := false
		res.Tree.Walk(func(n *tree.Node, _ int) {
			if !n.IsLeaf() && n.Split.Kind == tree.SplitCategorical {
				hasCat = true
			}
		})
		if !hasCat {
			t.Errorf("%v: F3 tree should contain a categorical split", layout)
		}
	}
}

func TestSPRINTCategoricalSplits(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "c", Kind: dataset.Categorical, Values: []string{"p", "q", "r"}},
			{Name: "x", Kind: dataset.Numeric},
		},
		Classes: []string{"no", "yes"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 600; i++ {
		v := i % 3
		label := 0
		if v == 1 {
			label = 1
		}
		tbl.Append([]float64{float64(v), float64(i % 7)}, label)
	}
	for _, layout := range layouts {
		res := build(t, tbl, defaultConfig(), layout)
		if acc := accuracy(res.Tree, tbl); acc != 1.0 {
			t.Errorf("%v: categorical accuracy %.3f", layout, acc)
		}
		if res.Tree.Root.Split.Kind != tree.SplitCategorical {
			t.Errorf("%v: root should split on the categorical attribute", layout)
		}
	}
}

func TestSPRINTEmptyInput(t *testing.T) {
	tbl := dataset.MustNew(synth.Schema())
	for _, layout := range layouts {
		if _, err := Build(storage.NewMem(tbl), defaultConfig(), layout); err == nil {
			t.Errorf("%v: empty training set accepted", layout)
		}
	}
	if _, err := Build(storage.NewMem(synth.Generate(synth.F1, 10, 1)), defaultConfig(), SLIQ+1); err == nil {
		t.Error("unknown layout accepted")
	}
}

func TestSLIQEmptyAndStops(t *testing.T) {
	tbl := synth.Generate(synth.F7, 6000, 4)
	cfg := defaultConfig()
	cfg.MaxDepth = 2
	if res := build(t, tbl, cfg, SLIQ); res.Tree.Depth() > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", res.Tree.Depth())
	}
}

func TestSPRINTPurityStop(t *testing.T) {
	tbl := synth.Generate(synth.F2, 5000, 3)
	cfg := exact.DefaultConfig()
	cfg.PurityStop = 0.80
	for _, layout := range layouts {
		res := build(t, tbl, cfg, layout)
		full := build(t, tbl, defaultConfig(), layout)
		if res.Tree.Size() > full.Tree.Size() {
			t.Errorf("%v: purity stop grew the tree: %d > %d", layout, res.Tree.Size(), full.Tree.Size())
		}
	}
}

// TestSPRINTStats: SPRINT reads the source once, moves at least its
// presort's bytes, and holds the root's rid hash next to its page buffers.
func TestSPRINTStats(t *testing.T) {
	const n = 5000
	tbl := synth.Generate(synth.F1, n, 2)
	src := storage.NewMem(tbl)
	res, err := Build(src, defaultConfig(), SPRINT)
	if err != nil {
		t.Fatal(err)
	}
	if presort := int64(2*n*sprintEntry) * int64(len(tbl.Schema().NumericAttrs())); res.ListBytesIO <= presort {
		t.Errorf("ListBytesIO = %d, want above the presort's %d", res.ListBytesIO, presort)
	}
	if want := 9*n + int64(tbl.Schema().NumAttrs())*4*storage.PageSize; res.PeakMemoryBytes != want {
		t.Errorf("PeakMemoryBytes = %d, want %d", res.PeakMemoryBytes, want)
	}
	if scans := src.Stats().Scans; scans != 1 {
		t.Errorf("source scans = %d, want 1", scans)
	}
}

// TestSLIQIOModel: SLIQ reads the source once, pins its 8-byte-per-record
// class list in memory, and never rewrites its lists, so it moves fewer
// list bytes than SPRINT over the same tree.
func TestSLIQIOModel(t *testing.T) {
	const n = 5000
	tbl := synth.Generate(synth.F1, n, 2)
	src := storage.NewMem(tbl)
	res, err := Build(src, defaultConfig(), SLIQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMemoryBytes <= 8*n {
		t.Errorf("PeakMemoryBytes = %d, want above the class list's %d", res.PeakMemoryBytes, 8*n)
	}
	if sprint := build(t, tbl, defaultConfig(), SPRINT); res.ListBytesIO <= 0 || res.ListBytesIO >= sprint.ListBytesIO {
		t.Errorf("SLIQ moves %d list bytes, SPRINT %d; want 0 < SLIQ < SPRINT", res.ListBytesIO, sprint.ListBytesIO)
	}
	if scans := src.Stats().Scans; scans != 1 {
		t.Errorf("source scans = %d, want 1", scans)
	}
}

// TestDegenerateSplit: a split whose every record goes one way leaves the
// exact tree a leaf. Here the root's best split lies between -MaxFloat64
// and MaxFloat64, whose midpoint overflows to +Inf. SPRINT still charges
// the rid hash it builds for that split; SLIQ's oracle grows an empty
// child, and Build keeps the leaf under both layouts.
func TestDegenerateSplit(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"no", "yes"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 20; i++ {
		tbl.Append([]float64{math.Copysign(math.MaxFloat64, float64(i%2)-0.5)}, i%2)
	}
	cfg := exact.DefaultConfig()
	got := build(t, tbl, cfg, SPRINT)
	want := oracle(t, tbl, cfg, SPRINT)
	if !got.Tree.Root.IsLeaf() || !want.Tree.Root.IsLeaf() {
		t.Fatalf("root split: Build %v, oracle %v", got.Tree.Root.Split, want.Tree.Root.Split)
	}
	if got.PeakMemoryBytes != want.PeakMemoryBytes || got.PeakMemoryBytes != 9*20+4*storage.PageSize {
		t.Errorf("SPRINT peak memory %d, oracle %d, want the hash charged", got.PeakMemoryBytes, want.PeakMemoryBytes)
	}
	if !oracle(t, tbl, cfg, SLIQ).EmptyChild {
		t.Error("SLIQ's oracle did not grow an empty child")
	}
	if res := build(t, tbl, cfg, SLIQ); !res.Tree.Root.IsLeaf() {
		t.Errorf("SLIQ split the root: %v", res.Tree.Root.Split)
	}
}
